"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1 and 2 check the reference tables at their stated tolerances.
Two fixed-p rows are held in corrected form (see delchan.analysis.presets):
p=0.75 with N1 = 19, the only value that fits both its printed delta_in and
its printed rate, and p=0.99 with delta_in = 0.00986, its exact gamma
0.0098540484... rounded up. The exact rational check of gamma and of the
round-up convention lives in tests/test_analysis.py.
"""

import time
from dataclasses import replace
from itertools import combinations
from math import comb, exp, sqrt

import pytest

from delchan.analysis import REF_M_B, presets
from delchan.channels import ChannelModel
from delchan.cli import main
from delchan.harness import (
    cached_inner_codebook,
    desk_params,
    desk_scheme,
    run_end_to_end,
    run_single_codeword,
    run_transition,
)
from delchan.inner import InnerParams, construct_inner
from delchan.outer import construct_outer
from delchan.scheme import Scheme
from delchan.strings import SProfile, enumerate_S
from oracles import (
    deletion_ball_bound,
    edit_distance,
    embed_all,
    insertion_ball_bruteforce,
    is_subsequence,
)


def _report(announce, number, label, failures, elapsed=None):
    status = "FAIL" if failures else "PASS"
    suffix = f" [{elapsed:.2f} s]" if elapsed is not None else ""
    announce(f"[criterion {number:2d}] {status} {label}{suffix}")
    assert not failures, "\n".join(failures)


def _valid_profiles(m):
    out = []
    for r2 in range(m // 2 + 1):
        r1 = m - 2 * r2
        if r1 >= 0 and (r1 + r2) % 2 == 1:
            out.append(SProfile(m, r1, r2))
    return out


def test_criterion_01_reference_table_reproduction(announce):
    start = time.perf_counter()
    failures = []
    for preset in (p for p in presets() if p.kind == "bdc_row"):
        r_in = preset.computed_R_in()
        if abs(r_in - preset.expected_R_in) > 2e-3:
            failures.append(
                f"{preset.name}: R_in {r_in:.6f} vs {preset.expected_R_in} (> 2e-3)"
            )
        rate = preset.computed_rate()
        rel = abs(rate - preset.expected_rate) / preset.expected_rate
        if rel > 0.01:
            failures.append(
                f"{preset.name}: rate {rate:.6g} vs {preset.expected_rate}"
                f" (rel err {rel:.2%} > 1%)"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f} s >= 1 s")
    _report(announce, 1, "fixed-p table: R_in within 2e-3, rate within 1%",
            failures, elapsed)


def test_criterion_02_decodability_condition(announce):
    start = time.perf_counter()
    failures = []
    for preset in presets():
        gamma = preset.probs().gamma
        if gamma >= preset.delta_in:
            failures.append(
                f"{preset.name}: gamma {gamma:.8f} >= delta_in {preset.delta_in}"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f} s >= 1 s")
    _report(announce, 2, "gamma < delta_in for all parameter sets", failures, elapsed)


def test_criterion_03_regime_constants(announce):
    expected = {
        "bdc_regime_high": (8.27323, 0.761),
        "bdc_regime_mid": (8.48521, 0.765),
        "bdc_regime_low": (7.71206, 0.765),
        "prc_regime": (8.58349, 0.766),
    }
    failures = []
    for preset in presets():
        if preset.name not in expected:
            continue
        denom_target, beta_target = expected[preset.name]
        beta2 = (1.0 - preset.beta1) / 2.0
        denom = preset.beta1 * preset.M1 + beta2 * preset.M2 + REF_M_B
        beta = preset.beta1 + beta2
        if round(denom, 5) != denom_target:
            failures.append(f"{preset.name}: denominator {denom:.6f} != {denom_target}")
        if round(beta, 3) != beta_target:
            failures.append(f"{preset.name}: beta {beta:.4f} != {beta_target}")
    _report(announce, 3, "regime denominator constants and beta to 5/3 decimals",
            failures)


def test_criterion_04_theorem_level_rates(announce):
    failures = []
    for preset in presets():
        rate = preset.computed_rate()
        if preset.kind == "bdc_row" and rate < (1 - preset.p_or_lam) / 16:
            failures.append(f"{preset.name}: rate {rate:.6g} < (1-p)/16")
        if preset.kind == "prc_regime" and rate <= preset.p_or_lam / 17:
            failures.append(f"{preset.name}: rate {rate:.6g} <= lambda/17")
    _report(announce, 4, "every fixed-p rate >= (1-p)/16; repeat-channel rate"
            " > lambda/17", failures)


def test_criterion_05_combinatorial_oracles(announce):
    start = time.perf_counter()
    failures = []
    checked = 0
    for m in range(1, 12):
        sub_profiles = {
            length: _valid_profiles(length) for length in range(max(1, m - 3), m + 1)
        }
        for target in _valid_profiles(m):
            for d in range(0, min(3, m - 1) + 1):
                for sub_prof in sub_profiles.get(m - d, []):
                    for s_sub in enumerate_S(sub_prof):
                        ball = embed_all(s_sub, target)
                        oracle = insertion_ball_bruteforce(s_sub, target)
                        checked += 1
                        if ball != oracle:
                            failures.append(
                                f"embed mismatch: {s_sub} -> {target}"
                            )
                        bound = (d + 1) * comb(target.num_runs, d)
                        if len(ball) > bound:
                            failures.append(
                                f"insertion ball {len(ball)} > bound {bound}"
                                f" for {s_sub} -> {target}"
                            )
        # deletion balls: subsequences of each family member that stay in
        # the family at each shorter length
        for prof in _valid_profiles(m):
            members = enumerate_S(prof)
            for d in range(0, min(3, m - 1) + 1):
                shorter = [
                    t for p2 in _valid_profiles(m - d) for t in enumerate_S(p2)
                ]
                bound = deletion_ball_bound(InnerParams(prof, d))
                for s in members:
                    ball_size = sum(1 for t in shorter if is_subsequence(t, s))
                    if ball_size > bound:
                        failures.append(
                            f"deletion ball {ball_size} > bound {bound} for {s}"
                        )
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f} s >= 60 s")
    if checked < 1000:
        failures.append(f"only {checked} embed cases checked")
    _report(announce, 5, f"embedding = brute force on {checked} cases,"
            " ball bounds hold", failures, elapsed)


def test_criterion_06_inner_code_separation(announce, m25_codebook):
    start = time.perf_counter()
    failures = []
    small = construct_inner(InnerParams(SProfile(7, 3, 2), 2))
    for cb in (small, m25_codebook):
        d = cb.params.d
        for a, b in combinations(cb.codewords, 2):
            if edit_distance(a, b) <= 2 * d:
                failures.append(f"too close: {a} {b}")
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.2f} s >= 300 s")
    _report(announce, 6, "pairwise edit distance > 2d, exhaustive at m=7 and"
            " m=25", failures, elapsed)


def test_criterion_07_monte_carlo_sandwich(announce, bdc_desk, prc_desk):
    start = time.perf_counter()
    failures = []
    for label, scheme, seed in (("bdc", bdc_desk, 101), ("prc", prc_desk, 102)):
        rep = run_single_codeword(scheme, 10_000, seed)
        lo = rep["analytic"]["xi_m"] - 3 * rep["x_stderr"]
        hi = rep["analytic"]["gamma_m_plus_p10"] + 3 * rep["x_stderr"]
        if not lo <= rep["x_mean"] <= hi:
            failures.append(
                f"{label}: mean X {rep['x_mean']:.4f} outside [{lo:.4f}, {hi:.4f}]"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.2f} s >= 120 s")
    _report(announce, 7, "mean X within [xi*m - 3se, gamma*m + P10 + 3se],"
            " both channels", failures, elapsed)


def test_criterion_08_transition_probability_agreement(announce, bdc_desk, prc_desk):
    failures = []
    for label, scheme, seed in (("bdc", bdc_desk, 201), ("prc", prc_desk, 202)):
        rep = run_transition(scheme, 100_000, seed)
        for name, entry in rep["transitions"].items():
            tol = 3 * entry["stderr"] + 1e-12
            if abs(entry["empirical"] - entry["exact"]) > tol:
                failures.append(
                    f"{label} {name}: empirical {entry['empirical']:.6g}"
                    f" vs exact {entry['exact']:.6g} (tol {tol:.2g})"
                )
    _report(announce, 8, "empirical transitions within 3-sigma of exact,"
            " 10^5 runs each", failures)


def test_criterion_09_buffer_error_bound(announce):
    failures = []
    scheme = desk_scheme("bdc", M_B=0.5)
    rep = run_single_codeword(scheme, 10_000, 303)
    freq = rep["deleted_buffer_frequency"]
    bound = exp(-0.5 * 25 / 8.0)
    sigma = sqrt(bound * (1 - bound) / rep["buffers_transmitted"])
    if freq > bound + 3 * sigma:
        failures.append(f"deleted-buffer freq {freq:.5f} > {bound:.5f} + 3 sigma")
    _report(announce, 9, f"deleted-buffer frequency {freq:.2g} within analytic"
            f" bound {bound:.3g}", failures)


# Pr[a buffer is lost] in each M_B = 0.5 desk scheme (buffer threshold 6):
# Pr[Bin(18, 0.7) <= 6] on the BDC, Pr[Poisson(0.5 * 25) <= 6] on the PRC.
BUFFER_LOSS = {"bdc": 0.00143, "prc": 0.034567}


@pytest.mark.parametrize("desk", ["bdc", "prc"])
def test_buffer_loss_matches_exact_probability(desk):
    # criterion 9 checks only a loose bound; a buffer of B bits is lost
    # exactly when at most buffer_threshold of its zeros survive
    scheme = desk_scheme(desk, M_B=0.5)
    rep = run_single_codeword(scheme, 50_000, 304)
    exact = scheme.params.channel.at_most(scheme.B, scheme.params.buffer_threshold)
    assert abs(exact - BUFFER_LOSS[desk]) < 5e-6
    sigma = sqrt(exact * (1 - exact) / rep["buffers_transmitted"])
    assert abs(rep["deleted_buffer_frequency"] - exact) <= 3 * sigma


def test_criterion_10_end_to_end_decoding(announce, bdc_desk):
    failures = []
    noisy = run_end_to_end(bdc_desk, 100, 404)
    if noisy["successes"] < 95:
        failures.append(f"noisy channel: {noisy['successes']}/100 < 95")
    clean_params = replace(desk_params("bdc"), channel=ChannelModel("bdc", 0.0))
    clean = Scheme(
        clean_params,
        cached_inner_codebook(clean_params.inner).truncate(4),
        construct_outer(clean_params.outer, 2024),
    )
    lossless = run_end_to_end(clean, 100, 405)
    if lossless["successes"] != 100:
        failures.append(f"lossless channel: {lossless['successes']}/100 != 100")
    _report(announce, 10, f"decoded {noisy['successes']}/100 noisy and"
            f" {lossless['successes']}/100 lossless messages", failures)


def test_criterion_11_simulation_determinism(announce, tmp_path):
    failures = []
    a = tmp_path / "first.json"
    b = tmp_path / "second.json"
    for out in (a, b):
        code = main(["simulate", "--trials", "25", "--seed", "606", "--out", str(out)])
        if code != 0:
            failures.append(f"simulate exited {code}")
    if a.read_bytes() != b.read_bytes():
        failures.append("reports differ between identical runs")
    _report(announce, 11, "repeated simulate runs are byte-identical", failures)
