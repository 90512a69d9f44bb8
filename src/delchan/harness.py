"""Monte Carlo experiment runner with reproducible, deterministic reports.

Three experiment modes:
  single_codeword — transmit one blown-up inner codeword flanked by buffers
    per trial and classify each block of trials from its (trials, runs) arrays
    and per-run survivors (scheme.classify; nothing is decoded): error events
    and the per-codeword distortion statistic X;
  end_to_end — encode random messages, transmit, decode in blocks, count successes;
  transition — transmit bare blown-up runs in bulk and compare empirical
    run-transition frequencies against the exact formulas.

The first two draw each block of _BLOCK_TRIALS (the fixed 256) trials from
one stream: its messages or symbols in one draw, then the survivors of its
buffers, 1-runs and 2-runs in three. So a report depends on (seed, trials)
only: reports are plain dicts serialized as sorted JSON, and identical configs
and seeds produce byte-identical files. Wall-clock time is printed, never stored.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import exp, sqrt
from pathlib import Path

import numpy as np

from .analysis import REF_M, REF_M_B, REF_R_OUT, presets, rate_mu, verify_preset
from .channels import ChannelModel, RngStream
from .channels import apply_copy_counts  # noqa: F401  (the benchmark's tracer wraps it here)
from .inner import InnerParams, construct_inner
from .outer import OuterSpec, construct_outer
from .scheme import Scheme, SchemeParams, classify, lay_out, load_scheme
from .strings import SProfile, nonnegative, read_fields


@lru_cache(maxsize=None)
def cached_inner_codebook(params: InnerParams):
    """Inner construction is the slow step; memoize it per parameter set."""
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


def run_single_codeword(scheme: Scheme, trials: int, master_seed: int) -> dict:
    """Transmit isolated codewords; classify each block from its run arrays
    (no decoding) and collect X and error-event statistics. Block b draws
    its symbols, then its survivors, from RngStream(master_seed, b)."""
    if trials < 2:
        raise ValueError("single_codeword needs at least 2 trials for a variance")
    xs: list[int] = []
    events: Counter[str] = Counter()
    buffers = 0
    for index, block in enumerate(range(0, trials, _BLOCK_TRIALS)):
        rng = RngStream(master_seed, index).generator()
        symbols = rng.integers(0, len(scheme.inner_cb), min(_BLOCK_TRIALS, trials - block))
        runs = lay_out(symbols[:, None], scheme.run_table, edge_buffers=True)
        counts = scheme.params.channel.copy_counts(runs, rng)
        block_xs, block_events = classify(scheme, runs, counts)
        xs += block_xs
        events.update(block_events)  # keeps the keys of zero counts
        buffers += runs.buffers.size
    x_arr = np.array(xs, dtype=np.float64)
    x_var = float(x_arr.var(ddof=1))
    probs = scheme.probs
    m = scheme.params.inner.m
    return {
        "mode": "single_codeword",
        "trials": trials,
        "master_seed": master_seed,
        "x_mean": float(x_arr.mean()),
        "x_var": x_var,
        "x_stderr": sqrt(x_var) / sqrt(trials),
        "error_events": dict(events),
        "buffers_transmitted": buffers,
        "deleted_buffer_frequency": events["deleted_buffer"] / buffers,
        "analytic": {
            "xi_m": probs.xi * m,
            "gamma_m_plus_p10": probs.gamma * m + probs.p10,
            "buffer_loss_bound": exp(-scheme.params.M_B * m / 8.0),
        },
    }


def run_end_to_end(scheme: Scheme, trials: int, master_seed: int) -> dict:
    """Encode random messages, transmit, decode; count exact recoveries. Block
    b draws its messages, then its survivors, from RngStream(master_seed, b)."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    num_messages = scheme.outer.spec.num_messages
    successes = 0
    for index, block in enumerate(range(0, trials, _BLOCK_TRIALS)):
        rng = RngStream(master_seed, index).generator()
        messages = rng.integers(0, num_messages, min(_BLOCK_TRIALS, trials - block))
        layout = scheme.encode_block(messages)
        counts = scheme.params.channel.copy_counts(layout, rng)
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

    The survivors of all trials' N1-runs are one draw, and those of their
    N2-runs another.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    T = scheme.params.T
    rng = RngStream(master_seed, 0).generator()
    z1 = scheme.params.channel.survivors(scheme.N1, trials, rng)
    z2 = scheme.params.channel.survivors(scheme.N2, trials, rng)
    probs = scheme.probs
    empirical = {
        "p12": np.count_nonzero(z1 > T) / trials,
        "p10": np.count_nonzero(z1 == 0) / trials,
        "p21": np.count_nonzero(z2 <= T) / trials,
        "p20": np.count_nonzero(z2 == 0) / trials,
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
        desk_params(self.desk)  # rejects an unknown desk


# Each key of an experiment config: its ExperimentConfig field and type.
_CONFIG_KEYS = {"mode": ("mode", str), "trials": ("trials", int),
                "seed": ("master_seed", nonnegative), "scheme": ("scheme_path", str),
                "desk": ("desk", str), "M_B": ("M_B", float)}


def load_config(path: str | Path) -> ExperimentConfig:
    """An experiment config from a key=value file; absent keys keep their defaults."""
    fields = read_fields(path, {key: kind for key, (_, kind) in _CONFIG_KEYS.items()})
    for key in ("desk", "M_B"):
        if "scheme" in fields and key in fields:
            raise ValueError(f"{path}: {key} is ignored when scheme is given")
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
        paper_rate = preset.expected_rate
        rel = (
            abs(v.rate - paper_rate) / paper_rate if paper_rate is not None else ""
        )
        lines.append(
            f"{preset.name},{preset.p_or_lam},{r.p12:.6e},{r.p10:.6e},"
            f"{r.p21:.6e},{r.p20:.6e},{r.gamma:.6e},{r.xi:.6e},"
            f"{preset.delta_in},{int(r.gamma < preset.delta_in)},"
            f"{v.R_in:.6f},{v.rate:.6e},"
            f"{paper_rate if paper_rate is not None else ''},"
            f"{rel if rel == '' else f'{rel:.3e}'}"
        )
    return "\n".join(lines) + "\n", failures


def sweep_csv(grid_step: float = 0.01) -> str:
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
    p = grid_step
    while p < 0.995:
        r = next((r for r in regimes if p <= r.p_or_lam), regimes[-1])
        rate = rate_mu(r.M1, r.M2, REF_M_B, r.beta1, 1 - p, r.expected_R_in, REF_R_OUT, REF_M,
                       ceiling=False)
        lines.append(
            f"grid,{p:.2f},{rate:.6e},{(1 - p) / 15.71:.6e},{(1 - p) / 16:.6e}"
        )
        p = round(p + grid_step, 10)
    return "\n".join(lines) + "\n"
