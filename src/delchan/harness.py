"""Monte Carlo experiment runner with reproducible, deterministic reports.

Three experiment modes:
  single_codeword — transmit one blown-up inner codeword flanked by buffers
    per trial and classify each block of trials from its (trials, runs) arrays
    and per-run survivors (scheme.classify; nothing is decoded): error events
    and the per-codeword distortion statistic X;
  end_to_end — encode random messages, transmit, decode in blocks, count successes;
  transition — count, from their words alone, how many of a bulk of bare blown-up
    runs keep at most T survivors, and none; compare with the exact formulas.

The first two fold over _blocks, the one place that owns their stream, block
and draw rule. So a report depends on (seed, trials) only: reports are
plain dicts serialized as sorted JSON, and identical configs and seeds
produce byte-identical files. Wall-clock time is printed, never stored.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import exp, sqrt
from pathlib import Path

import numpy as np

from .analysis import REF_M, REF_M_B, REF_R_OUT, presets, rate_mu, verify_preset
from .channels import ChannelModel, RngStream
from .channels import apply_copy_counts  # noqa: F401  (the benchmark's tracer wraps it here)
from .inner import InnerParams, construct_inner
from .outer import OuterSpec, construct_outer
from .scheme import Layout, Scheme, SchemeParams, classify, lay_out, load_scheme
from .strings import SProfile, naming, nonnegative, read_fields


@lru_cache(maxsize=None)
def cached_inner_codebook(params: InnerParams):
    """construct_inner, memoized for the tests' in-process runs (the desk code takes 22 ms)."""
    return construct_inner(params)


# Desk-scale reference configuration: small enough that every analytic bound
# exercised against it is numerically nontrivial, large enough to decode
# reliably. The buffer scale M_B is deliberately generous; the tighter
# M_B = 0.5 variant below exists to measure buffer-loss frequency against
# its analytic bound, which is only meaningful when losses are observable.
DESK_M_B = 2.5
DESK_SEED = 2024
# Trials drawn from one stream and decoded or classified together; a fixed
# constant, since every report depends on it. Bounds a block's memory.
_BLOCK_TRIALS = 256
# Runs whose words one count_at_most call takes in run_transition, to bound
# its memory; the words taken do not depend on it.
_TRANSITION_CHUNK = 1 << 16
# The most trials a config may ask for: about a day of transition trials.
MAX_TRIALS = 10**12
_GRID_STEP = 0.01  # spacing of sweep_csv's p grid


def desk_params(kind: str, *, M_B: float = DESK_M_B) -> SchemeParams:
    if kind not in ("bdc", "prc"):
        raise ValueError(f"desk must be bdc or prc, got {kind!r}")
    return SchemeParams(
        channel=ChannelModel("bdc", 0.3) if kind == "bdc" else ChannelModel("prc", 0.5),
        M1=4.0,
        M2=13.5,
        M_B=M_B,
        T=8,
        inner=InnerParams(SProfile(25, 13, 6), 2),
        outer=OuterSpec(q=4, n=32, k=4, delta_out=0.125),
    )


def desk_scheme(kind: str, *, M_B: float = DESK_M_B) -> Scheme:
    params = desk_params(kind, M_B=M_B)
    inner_cb = cached_inner_codebook(params.inner).truncate(params.outer.q)
    outer = construct_outer(params.outer, DESK_SEED)
    return Scheme(params, inner_cb, outer)


def _blocks(scheme: Scheme, trials: int, master_seed: int, values: int,
            lay: Callable[[np.ndarray], Layout]):
    """Each block b of _BLOCK_TRIALS trials as (drawn, lay(drawn), counts), from
    RngStream(master_seed, b): drawn in [0, values), then a survivor word per run in run order."""
    for index, block in enumerate(range(0, trials, _BLOCK_TRIALS)):
        rng = RngStream(master_seed, index).generator()
        drawn = rng.integers(0, values, min(_BLOCK_TRIALS, trials - block))
        layout = lay(drawn)
        yield drawn, layout, scheme.params.channel.copy_counts(layout, rng)


def run_single_codeword(scheme: Scheme, trials: int, master_seed: int) -> dict:
    """Transmit isolated codewords; classify each block from its run arrays
    (no decoding); count X per value, and the error events."""
    if trials < 2:
        raise ValueError("single_codeword needs at least 2 trials for a variance")
    # x_counts[v]: codewords of X = v <= 2m + 1 (a run costs at most its and the next's length)
    x_counts = np.zeros(2 * scheme.params.inner.m + 2, np.int64)
    events: Counter[str] = Counter()
    for _, runs, counts in _blocks(scheme, trials, master_seed, len(scheme.inner_cb), lambda s:
                                   lay_out(s[:, None], scheme.run_table, edge_buffers=True)):
        block_xs, block_events = classify(scheme, runs, counts)
        x_counts += np.bincount(block_xs, minlength=x_counts.size)
        events.update(block_events)  # keeps the keys of zero counts
    s1, s2 = (sum(v**k * c for v, c in enumerate(x_counts.tolist())) for k in (1, 2))
    x_var = float(Fraction(trials * s2 - s1 * s1, trials * (trials - 1)))  # rounded once
    probs = scheme.probs
    m = scheme.params.inner.m
    return {
        "mode": "single_codeword",
        "trials": trials,
        "master_seed": master_seed,
        "x_mean": s1 / trials,
        "x_var": x_var,
        "x_stderr": sqrt(x_var) / sqrt(trials),
        "error_events": dict(events),
        "buffers_transmitted": 2 * trials,
        "deleted_buffer_frequency": events["deleted_buffer"] / (2 * trials),
        "analytic": {
            "xi_m": probs.xi * m,
            "gamma_m_plus_p10": probs.gamma * m + probs.p10,
            "buffer_loss_bound": exp(-scheme.params.M_B * m / 8.0),
        },
    }


def run_end_to_end(scheme: Scheme, trials: int, master_seed: int) -> dict:
    """Encode random messages, transmit, decode; count exact recoveries."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    successes = 0
    for messages, layout, counts in _blocks(scheme, trials, master_seed,
                                            scheme.outer.spec.num_messages, scheme.encode_block):
        decoded = scheme.decode_block(layout.run_bits, counts)
        successes += sum(d == m for d, m in zip(decoded, messages.tolist()))
    return {
        "mode": "end_to_end",
        "trials": trials,
        "master_seed": master_seed,
        "successes": successes,
        "success_rate": successes / trials,
    }


def run_transition(scheme: Scheme, trials: int, master_seed: int) -> dict:
    """Bulk-transmit bare blown-up runs; compare frequencies to exact values.

    The words of all trials' N1-runs, then of their N2-runs, are compared with
    the table's thresholds _TRANSITION_CHUNK runs at a time; no survivor count is built.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    T = scheme.params.T
    rng = RngStream(master_seed, 0).generator()

    def tally(n: int) -> tuple[int, int]:
        """Of trials runs of n bits: how many keep at most T survivors, and none."""
        short = vanished = 0
        for start in range(0, trials, _TRANSITION_CHUNK):
            size = min(_TRANSITION_CHUNK, trials - start)
            chunk_short, chunk_vanished = scheme.params.channel.count_at_most(n, (T, 0), size, rng)
            short, vanished = short + chunk_short, vanished + chunk_vanished
        return short, vanished

    (short1, vanished1), (short2, vanished2) = tally(scheme.N1), tally(scheme.N2)
    probs = scheme.probs
    empirical = {
        "p12": (trials - short1) / trials,
        "p10": vanished1 / trials,
        "p21": short2 / trials,
        "p20": vanished2 / trials,
    }
    table = {}
    for name, freq in empirical.items():
        exact = getattr(probs, name)  # binomial standard error at the exact probability:
        table[name] = {"empirical": freq, "exact": exact,
                       "stderr": sqrt(exact * (1.0 - exact) / trials)}
    return {
        "mode": "transition",
        "trials": trials,
        "master_seed": master_seed,
        "transitions": table,
    }


@dataclass(frozen=True)
class ExperimentConfig:
    """What to run: a scheme (by descriptor path or desk default), a mode,
    a trial count, and a master seed."""

    mode: str = "end_to_end"
    trials: int = 100
    master_seed: int = 0
    scheme_path: str | None = None
    desk: str = "bdc"
    M_B: float = DESK_M_B

    def __post_init__(self) -> None:
        if self.mode not in ("single_codeword", "end_to_end", "transition"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be at most {MAX_TRIALS}")
        if self.mode == "single_codeword" and self.trials < 2:
            raise ValueError("single_codeword needs at least 2 trials for a variance")
        desk_params(self.desk, M_B=self.M_B)  # rejects an unknown desk and a bad M_B


# Each key of an experiment config: its ExperimentConfig field and type.
_CONFIG_KEYS = {"mode": ("mode", str), "trials": ("trials", int),
                "seed": ("master_seed", nonnegative), "scheme": ("scheme_path", str),
                "desk": ("desk", str), "M_B": ("M_B", float)}


def load_config(path: str | Path) -> ExperimentConfig:
    """An experiment config from a key=value file; absent keys keep their defaults."""
    fields = read_fields(path, {key: kind for key, (_, kind) in _CONFIG_KEYS.items()})
    with naming(path):
        for key in ("desk", "M_B"):
            if "scheme" in fields and key in fields:
                raise ValueError(f"{key} is ignored when scheme is given")
        return ExperimentConfig(**{_CONFIG_KEYS[key][0]: value for key, value in fields.items()})


def run_experiment(config: ExperimentConfig) -> dict:
    if config.scheme_path is not None:
        scheme = load_scheme(config.scheme_path)
    else:
        scheme = desk_scheme(config.desk, M_B=config.M_B)
    runner = {
        "single_codeword": run_single_codeword,
        "end_to_end": run_end_to_end,
        "transition": run_transition,
    }[config.mode]
    report = runner(scheme, config.trials, config.master_seed)
    report["config"] = {
        "mode": config.mode,
        "trials": config.trials,
        "seed": config.master_seed,
        "channel": scheme.params.channel.kind,
        "channel_param": scheme.params.channel.parameter,
        "N1": scheme.N1,
        "N2": scheme.N2,
        "B": scheme.B,
        "T": scheme.params.T,
    }
    return report


def report_json(report: dict) -> str:
    """Canonical serialization: sorted keys, fixed indentation."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def analyze_csv() -> tuple[str, int]:
    """Verification table for every reference parameter set.

    Returns (csv text, number of parameter sets that failed verification).
    """
    header = (
        "preset,p_or_lambda,P12,P10,P21,P20,gamma,xi,delta_in,"
        "gamma_lt_delta,R_in,final_rate,paper_rate,rel_err"
    )
    lines = [header]
    failures = 0
    for preset in presets():
        v = verify_preset(preset)
        r = v.report
        if v.failures:
            failures += 1
        paper_rate = "" if preset.expected_rate is None else preset.expected_rate
        lines.append(
            f"{preset.name},{preset.p_or_lam},{r.p12:.6e},{r.p10:.6e},"
            f"{r.p21:.6e},{r.p20:.6e},{r.gamma:.6e},{r.xi:.6e},"
            f"{preset.delta_in},{int(r.gamma < preset.delta_in)},"
            f"{v.R_in:.6f},{v.rate:.6e},{paper_rate},"
            f"{'' if v.rel_err is None else f'{v.rel_err:.3e}'}"
        )
    return "\n".join(lines) + "\n", failures


def sweep_csv() -> str:
    """Fixed-p reference rates plus a dense ceiling-free rate curve. Each
    deletion regime preset covers the p above the previous one's worst p, up
    to its own (the last one up to 1)."""
    lines = ["kind,p,rate,curve_15_71,lower_16"]
    for preset in presets():
        if preset.kind != "bdc_row":
            continue
        p = preset.p_or_lam
        v = verify_preset(preset)
        lines.append(
            f"table,{p},{v.rate:.6e},{(1 - p) / 15.71:.6e},{(1 - p) / 16:.6e}"
        )
    regimes = sorted((r for r in presets() if r.kind == "bdc_regime"), key=lambda r: r.p_or_lam)
    p = _GRID_STEP
    while p < 0.995:
        r = next((r for r in regimes if p <= r.p_or_lam), regimes[-1])
        rate = rate_mu(r.M1, r.M2, REF_M_B, r.beta1, 1 - p, r.expected_R_in, REF_R_OUT, REF_M,
                       ceiling=False)
        lines.append(
            f"grid,{p:.2f},{rate:.6e},{(1 - p) / 15.71:.6e},{(1 - p) / 16:.6e}"
        )
        p = round(p + _GRID_STEP, 10)
    return "\n".join(lines) + "\n"
