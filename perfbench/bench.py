"""Workloads, correctness checks and metrics of the delchan benchmark.

A run builds one scheme cold, the way `delchan construct` followed by
`delchan simulate` with `scheme=` does it (construct_inner, construct_outer,
save, load_scheme), checks the program's output at a pinned seed, and then
runs closed-loop chunks of Monte Carlo trials through the harness, one chunk
after another in this one process, for a fixed wall time.

On a 2-core host shared with other tenants, speed changes by up to 40%
between processes, and process CPU time follows wall time, so a raw
trials/s figure is not steady. Each chunk and each set-up is therefore
bracketed by runs of a fixed calibration kernel owned by this file, whose
work is of the same kind as what it brackets (interpreted loops with small
numpy draws; bulk draws for transition_p99), and every time is scaled to a
host on which that kernel runs CALIB_REF times per second. The raw figures
are reported next to the scaled ones in the traced run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, replace
from math import sqrt
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def _import_program() -> None:
    """Put the checkout's src/ first on the path; refuse any other delchan."""
    package = SRC / "delchan" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: no delchan sources at {package}")
    sys.path.insert(0, str(SRC))
    import delchan

    if Path(delchan.__file__).resolve() != package.resolve():
        raise SystemExit(f"perfbench: imported delchan from {delchan.__file__}")


_import_program()

import numpy as np  # noqa: E402

import delchan.channels  # noqa: E402
import delchan.harness  # noqa: E402
import delchan.inner  # noqa: E402
import delchan.outer  # noqa: E402
import delchan.scheme  # noqa: E402
import delchan.strings  # noqa: E402
from delchan.analysis import presets  # noqa: E402
from delchan.channels import ChannelModel, RngStream  # noqa: E402
from delchan.harness import DESK_SEED, desk_params  # noqa: E402
from delchan.inner import InnerCodebook  # noqa: E402
from delchan.outer import OuterCode  # noqa: E402
from delchan.scheme import Scheme, SchemeParams  # noqa: E402
from tracing import Tracer  # noqa: E402

# Seed of the correctness check every run makes; its reports are pinned below.
PINNED_SEED = 7
# Never used while tuning the benchmark or a change: run it once to confirm a
# claim that was developed on other seeds.
RESERVED_SEED = 8191
# Cold set-ups per untraced run; setup_s is their median.
SETUP_REPS = 3
# Chunks every run makes whatever --seconds says; decode_error_rate is taken
# over exactly these, so it is exact at a fixed seed.
MIN_CHUNKS = 16
# Calibration-kernel runs per second on the reference host.
CALIB_REF = 60.0


# -- calibration -----------------------------------------------------------


def _lcs(a: str, b: str) -> int:
    """Frozen copy of the bit-parallel LCS recurrence, so that the kernel
    does not speed up when the program's own copy does."""
    n = len(b)
    mask = (1 << n) - 1
    m0 = m1 = 0
    for i, c in enumerate(b):
        if c == "1":
            m1 |= 1 << i
        else:
            m0 |= 1 << i
    v = mask
    for c in a:
        p = (m1 if c == "1" else m0) & v
        v = ((v + p) | (v - p)) & mask
    return n - bin(v).count("1")


_CAL_STRINGS = [format((i * 2654435761) % (1 << 60), "060b") for i in range(1, 33)]


def calibration_rate() -> float:
    """Runs per second of a fixed mix of the program's kinds of work: Python
    big-integer loops, string building, and numpy random draws. Garbage
    left by the work before it is collected first, outside the timing."""
    gc.collect()
    start = perf_counter()
    total = 0
    for a in _CAL_STRINGS:
        for b in _CAL_STRINGS[:16]:
            total += _lcs(a, b)
    rng = np.random.Generator(np.random.PCG64(12345))
    for _ in range(64):
        # small arrays, so that the allocator never maps fresh pages for them
        x = rng.random(2048)
        total += int((x >= 0.3).sum())
        total += len("".join(b * int(k) for b, k in zip("01" * 256, x[:512] * 3)))
    elapsed = perf_counter() - start
    if total <= 0:
        raise RuntimeError("calibration kernel produced no work")
    return 1.0 / elapsed


def bulk_calibration_rate() -> float:
    """Runs per second of bulk per-bit deletion draws shaped like those of
    run_transition at the bdc_p0.99 row. This memory-bound numpy work slows
    under host contention by a different factor than interpreted code does."""
    gc.collect()
    rng = np.random.Generator(np.random.PCG64(12345))
    start = perf_counter()
    total = 0
    for run_len in (541, 2280):
        total += int((rng.random((1000, run_len)) >= 0.99).sum())
    elapsed = perf_counter() - start
    if total <= 0:
        raise RuntimeError("calibration kernel produced no work")
    return 1.0 / elapsed


# -- workloads ---------------------------------------------------------------


def _p99_row():
    return next(p for p in presets() if p.name == "bdc_p0.99")


def _p99_params() -> SchemeParams:
    """The bdc_p0.99 reference row (N1, N2, T) on the desk codebooks."""
    row = _p99_row()
    mu = 1.0 - row.p_or_lam
    return replace(
        desk_params("bdc"),
        channel=ChannelModel("bdc", row.p_or_lam),
        M1=row.N1 * mu,
        M2=row.N2 * mu,
        T=row.T,
    )


def _agg_e2e(reports: list[dict]) -> dict:
    trials = sum(r["trials"] for r in reports)
    successes = sum(r["successes"] for r in reports)
    return {"trials": trials, "successes": successes, "errors": trials - successes}


def _gate_e2e(agg: dict) -> bool:
    # criterion 10: at least 95 of every 100 messages decoded
    return agg["trials"] > 0 and agg["successes"] >= 0.95 * agg["trials"]


def _agg_single(reports: list[dict]) -> dict:
    n = sum(r["trials"] for r in reports)
    mean = sum(r["trials"] * r["x_mean"] for r in reports) / n
    ss = sum(
        (r["trials"] - 1) * r["x_var"] + r["trials"] * (r["x_mean"] - mean) ** 2
        for r in reports
    )
    events = {
        key: sum(r["error_events"][key] for r in reports)
        for key in reports[0]["error_events"]
    }
    return {
        "trials": n,
        "x_mean": mean,
        "x_stderr": sqrt(ss / (n - 1) / n) if n > 1 else float("inf"),
        "analytic": reports[0]["analytic"],
        "error_events": events,
        "errors": events["wrong_inner_decode"],
    }


def _gate_single(agg: dict) -> bool:
    # criterion 7: xi*m - 3se <= mean X <= gamma*m + P10 + 3se
    lo = agg["analytic"]["xi_m"] - 3 * agg["x_stderr"]
    hi = agg["analytic"]["gamma_m_plus_p10"] + 3 * agg["x_stderr"]
    return lo <= agg["x_mean"] <= hi


def _agg_transition(reports: list[dict]) -> dict:
    n = sum(r["trials"] for r in reports)
    table = {}
    for name, first in reports[0]["transitions"].items():
        exact = first["exact"]
        table[name] = {
            "empirical": sum(r["trials"] * r["transitions"][name]["empirical"]
                             for r in reports) / n,
            "exact": exact,
            "stderr": sqrt(exact * (1.0 - exact) / n),
        }
    return {"trials": n, "transitions": table, "errors": 0}


def _gate_transition(agg: dict) -> bool:
    # criterion 8: every empirical transition within 3 stderr of exact
    return all(
        abs(e["empirical"] - e["exact"]) <= 3 * e["stderr"] + 1e-12
        for e in agg["transitions"].values()
    )


def _sane(report: dict, trials: int, seed: int) -> bool:
    """Checks every chunk report must pass, whatever the seed."""
    if report.get("trials") != trials or report.get("master_seed") != seed:
        return False
    mode = report.get("mode")
    if mode == "end_to_end":
        return 0 <= report["successes"] <= trials
    if mode == "single_codeword":
        return report["x_mean"] >= 0 and min(report["error_events"].values()) >= 0
    if mode == "transition":
        return all(0.0 <= e["empirical"] <= 1.0 for e in report["transitions"].values())
    return False


@dataclass(frozen=True)
class Workload:
    name: str
    runner: str  # harness function each chunk calls, looked up at call time
    chunk_trials: int
    check_trials: int
    params: Callable[[], SchemeParams]
    aggregate: Callable[[list[dict]], dict]
    gate: Callable[[dict], bool]
    # calibration kernel whose work is of the same kind as the chunks'
    calibrate: Callable[[], float] = calibration_rate


WORKLOADS = {
    w.name: w
    for w in (
        Workload("e2e_bdc", "run_end_to_end", 32, 8,
                 lambda: desk_params("bdc"), _agg_e2e, _gate_e2e),
        Workload("single_prc", "run_single_codeword", 200, 100,
                 lambda: desk_params("prc"), _agg_single, _gate_single),
        # Chunks of bounded size: run_transition allocates trials x N2 floats.
        Workload("transition_p99", "run_transition", 4000, 2000,
                 _p99_params, _agg_transition, _gate_transition, bulk_calibration_rate),
    )
}

# sha256 of the canonical JSON of check_report() at PINNED_SEED.
PINNED_DIGESTS = {
    "e2e_bdc": "d083f3090a49c17ac9abdb767674bfc3422104efb8f4822b23dc324b9d813b5a",
    "single_prc": "8c5bf3aceadfb4c643a8aca434215fb856811bd35b8ced93abf2ec34f226ef1f",
    "transition_p99": "efb4c20d39daa0351397d48d7ba544fa1ae25d07b550c09797ed792ce5cf0218",
}


# -- set-up ------------------------------------------------------------------


def build_scheme(params: SchemeParams, workdir: Path) -> tuple[Scheme, Scheme]:
    """Build cold, save the descriptor, load it back (which validates both
    codes). Returns the built and the loaded scheme."""
    inner_cb = delchan.inner.construct_inner(params.inner)
    outer_code = delchan.outer.construct_outer(params.outer, DESK_SEED)
    built = delchan.scheme.assemble_scheme(
        params, inner_cb.truncate(params.outer.q), outer_code
    )
    inner_cb.save(workdir / "codebook.txt")
    outer_code.save(workdir / "outercode.txt")
    delchan.scheme.save_scheme(
        built, workdir / "scheme.txt", "codebook.txt", "outercode.txt", DESK_SEED
    )
    return built, delchan.scheme.load_scheme(workdir / "scheme.txt")


def setup_ok(workload: Workload, built: Scheme, loaded: Scheme) -> bool:
    if loaded != built:
        return False
    if workload.name == "transition_p99":
        return (loaded.N1, loaded.N2) == (_p99_row().N1, _p99_row().N2)
    return True


# -- correctness check -------------------------------------------------------


def _decoded_messages(scheme: Scheme, count: int = 4) -> list[list[int]]:
    out = []
    for i in range(count):
        rng = RngStream(PINNED_SEED, 1_000 + i).generator()
        message = int(rng.integers(0, scheme.outer.spec.num_messages))
        received = scheme.params.channel.transmit(scheme.encode(message), rng)
        out.append([message, scheme.decode(received)])
    return out


def check_report(workload: Workload, scheme: Scheme) -> dict:
    """The workload's harness report at PINNED_SEED; for e2e_bdc also the
    sent and decoded message of a few noisy transmissions."""
    report = getattr(delchan.harness, workload.runner)(
        scheme, workload.check_trials, PINNED_SEED
    )
    if workload.name == "e2e_bdc":
        report["decoded"] = _decoded_messages(scheme)
    return report


def digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def verdict(workload: Workload, check: dict, agg: dict | None) -> tuple[bool, bool]:
    """(digest matches the pin, statistical gate holds on the run's trials).

    A run is correct when either holds: a changed digest is accepted only
    while the workload's gate from the acceptance suite still passes.
    """
    digest_ok = digest(check) == PINNED_DIGESTS[workload.name]
    gate_ok = agg is not None and workload.gate(agg)
    return digest_ok, gate_ok


# -- tracing -----------------------------------------------------------------

HARNESS_SPANS = (
    "harness.run_end_to_end",
    "harness.run_single_codeword",
    "harness.run_transition",
)
TRIAL_LAYERS = (
    "scheme.encode",
    "channels.copy_counts",
    "channels.apply_copy_counts",
    "scheme.decode_with_trace",
    "scheme.window_spans",
    "scheme.threshold_decode",
    "inner.decode",
    "outer.decode",
)
SETUP_LAYERS = (
    "inner.construct_inner",
    "outer.construct_outer",
    "scheme.load_scheme",
    "inner.validate",
    "outer.validate",
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _set_trial(t: Tracer, args, kwargs) -> None:
    t.trial = _arg(args, kwargs, 1, "stream_index")


def _bits_in(t, args, kwargs, result) -> None:
    t.extra["channels.copy_counts.bits_in"] += len(_arg(args, kwargs, 1, "bits"))


def _bits_out(t, args, kwargs, result) -> None:
    t.extra["channels.apply_copy_counts.bits_out"] += len(result)


def _windows_found(t, args, kwargs, result) -> None:
    t.extra["scheme.window_spans.windows_found"] += len(result)


def _windows_expected(t, args, kwargs, result) -> None:
    record = _arg(args, kwargs, 2, "record")
    n = len(record.layout.codeword_runs) if record is not None else args[0].outer.spec.n
    t.extra["scheme.windows_expected"] += n


def _discarded(t, args, kwargs, result) -> None:
    # run_single_codeword keeps only the trace and drops the decoded message
    if t.in_span("harness.run_single_codeword"):
        t.extra["outer.decode.discarded"] += 1


def _candidates(t, args, kwargs, result) -> None:
    t.extra["inner.construct_inner.candidates"] += len(result)


def _accepted(name: str):
    def extra(t, args, kwargs, result) -> None:
        t.extra[f"{name}.accepted"] += len(result)

    return extra


def layer_tracer() -> Tracer:
    """A tracer that wraps every layer boundary the benchmark reports on."""
    t = Tracer()
    h = delchan.harness
    for span in HARNESS_SPANS:
        t.span(h, span.split(".")[1], span)
    t.hook(h, "RngStream", _set_trial)
    t.span(Scheme, "encode_with_layout", "scheme.encode")
    t.span(ChannelModel, "copy_counts", "channels.copy_counts", _bits_in)
    t.span(delchan.channels, "apply_copy_counts", "channels.apply_copy_counts", _bits_out)
    t.span(h, "apply_copy_counts", "channels.apply_copy_counts", _bits_out)
    t.span(Scheme, "decode_with_trace", "scheme.decode_with_trace", _windows_expected)
    t.span(delchan.scheme, "window_spans", "scheme.window_spans", _windows_found)
    t.span(delchan.scheme, "threshold_decode", "scheme.threshold_decode")
    t.span(InnerCodebook, "decode", "inner.decode")
    t.span(OuterCode, "decode", "outer.decode", _discarded)
    t.span(delchan.inner, "construct_inner", "inner.construct_inner",
           _accepted("inner.construct_inner"))
    t.span(delchan.outer, "construct_outer", "outer.construct_outer",
           _accepted("outer.construct_outer"))
    t.span(delchan.scheme, "load_scheme", "scheme.load_scheme")
    t.span(InnerCodebook, "validate", "inner.validate")
    t.span(OuterCode, "validate", "outer.validate")
    t.count(delchan.inner, "enumerate_S", "strings.enumerate_S", _candidates)
    t.count(delchan.strings, "lcs_len", "strings.lcs_len")
    t.count(delchan.inner, "lcs_len", "strings.lcs_len")
    t.count(delchan.strings, "sequence_lcs_len", "strings.sequence_lcs_len")
    return t


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(trials_t: Tracer, trials: int, setup_t: Tracer) -> dict:
    """Per-trial figures from the traced chunks, per-set-up figures from one
    traced set-up. Layers a workload never calls read 0."""
    m: dict[str, tuple[float, str]] = {}
    x = trials_t.extra
    for name in TRIAL_LAYERS:
        m[f"{name}.calls"] = (trials_t.calls[name] / trials, "1/trial")
        m[f"{name}.self_ms"] = (trials_t.self_s[name] * 1e3 / trials, "ms/trial")
    harness_s = sum(trials_t.self_s[name] for name in HARNESS_SPANS)
    m["harness.self_ms"] = (harness_s * 1e3 / trials, "ms/trial")
    m["channels.copy_counts.bits_in"] = (x["channels.copy_counts.bits_in"] / trials,
                                         "bits/trial")
    m["channels.apply_copy_counts.bits_out"] = (
        x["channels.apply_copy_counts.bits_out"] / trials, "bits/trial")
    found = x["scheme.window_spans.windows_found"]
    m["scheme.window_spans.windows_found"] = (found / trials, "1/trial")
    m["scheme.window_ratio"] = (_ratio(found, x["scheme.windows_expected"]), "ratio")
    m["inner.decode.calls_per_window"] = (_ratio(trials_t.calls["inner.decode"], found),
                                          "ratio")
    m["outer.decode.discarded"] = (x["outer.decode.discarded"] / trials, "1/trial")
    for kernel in ("strings.lcs_len", "strings.sequence_lcs_len"):
        m[f"{kernel}.calls"] = (trials_t.kernel_total(kernel) / trials, "1/trial")

    s = setup_t.extra
    for name in SETUP_LAYERS:
        m[f"{name}.self_ms"] = (setup_t.self_s[name] * 1e3, "ms")
    candidates = s["inner.construct_inner.candidates"]
    accepted = s["inner.construct_inner.accepted"]
    m["inner.construct_inner.candidates"] = (candidates, "count")
    m["inner.construct_inner.accepted"] = (accepted, "count")
    m["inner.construct_inner.accept_ratio"] = (_ratio(accepted, candidates), "ratio")
    m["outer.construct_outer.accepted"] = (s["outer.construct_outer.accepted"], "count")
    for layer, kernel in (
        ("inner.construct_inner", "strings.lcs_len"),
        ("inner.validate", "strings.lcs_len"),
        ("outer.construct_outer", "strings.sequence_lcs_len"),
        ("outer.validate", "strings.sequence_lcs_len"),
    ):
        m[f"{layer}.lcs_calls"] = (setup_t.kernel_total(kernel, layer), "count")
    return m


# -- the timed loop ----------------------------------------------------------


@dataclass
class Chunk:
    trials: int
    seconds: float
    calib: float  # mean calibration rate just before and just after
    traced: bool
    report: dict | None  # None when the chunk raised or failed its checks

    @property
    def raw_rate(self) -> float:
        return self.trials / self.seconds

    @property
    def rate(self) -> float:
        return self.raw_rate * CALIB_REF / self.calib


def chunk_seed(seed: int, index: int) -> int:
    return seed * 1_000_000 + index


def _timed_chunk(workload: Workload, scheme: Scheme, cseed: int) -> tuple[dict, float]:
    t0 = perf_counter()
    report = getattr(delchan.harness, workload.runner)(scheme, workload.chunk_trials, cseed)
    return report, perf_counter() - t0


def run_chunks(workload: Workload, scheme: Scheme, seed: int, seconds: float,
               min_chunks: int, tracer: Tracer | None = None) -> list[Chunk]:
    """Closed loop: run chunks until `seconds` have passed and at least
    `min_chunks` are done. With a tracer, every other chunk is traced."""
    chunks: list[Chunk] = []
    calib = workload.calibrate()
    start = perf_counter()
    index = 0
    while index < min_chunks or perf_counter() - start < seconds:
        traced = tracer is not None and index % 2 == 1
        cseed = chunk_seed(seed, index)
        try:
            if traced:
                tracer.chunk, tracer.trial = index, None
                with tracer.installed():
                    report, elapsed = _timed_chunk(workload, scheme, cseed)
            else:
                report, elapsed = _timed_chunk(workload, scheme, cseed)
        except Exception:
            traceback.print_exc()
            report, elapsed = None, float("nan")
        if report is not None and not _sane(report, workload.chunk_trials, cseed):
            print(f"perfbench: chunk {index} report failed its checks", file=sys.stderr)
            report = None
        after = workload.calibrate()
        chunks.append(Chunk(workload.chunk_trials, elapsed, (calib + after) / 2,
                            traced, report))
        calib = after
        index += 1
    return chunks


def _host_rate() -> float:
    """Median of three calibration runs, for the long set-up timings."""
    return statistics.median(calibration_rate() for _ in range(3))


def timed_setups(params: SchemeParams, reps: int) -> tuple[list[float], Scheme, Scheme]:
    """Cold set-up `reps` times; returns each one's scaled seconds."""
    samples = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        calib = _host_rate()
        for _ in range(reps):
            t0 = perf_counter()
            built, loaded = build_scheme(params, Path(tmp))
            elapsed = perf_counter() - t0
            after = _host_rate()
            samples.append(elapsed * (calib + after) / 2 / CALIB_REF)
            calib = after
    return samples, built, loaded


# -- one run -----------------------------------------------------------------


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "pinned_seed": PINNED_SEED,
        "reserved_seed": RESERVED_SEED,
        "calib_ref": CALIB_REF,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run. Returns the result object (correct, attempted,
    failed, metrics) plus a "diagnostics" entry that is not printed last."""
    meta = run_metadata(workload.name, seed, seconds, trace)
    params = workload.params()
    OUT.mkdir(parents=True, exist_ok=True)
    setup_t = layer_tracer() if trace else None
    if trace:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp, setup_t.installed():
            built, scheme = build_scheme(params, Path(tmp))
        setup_samples: list[float] = []
    else:
        setup_samples, built, scheme = timed_setups(params, SETUP_REPS)
    ok_setup = setup_ok(workload, built, scheme)

    check = check_report(workload, scheme)
    traced_same = True
    if trace:
        with layer_tracer().installed():
            traced_same = digest(check_report(workload, scheme)) == digest(check)

    trials_t = layer_tracer() if trace else None
    chunks = run_chunks(workload, scheme, seed, seconds, MIN_CHUNKS, trials_t)
    reports = [c.report for c in chunks if c.report is not None]
    agg = workload.aggregate(reports) if reports else None
    digest_ok, gate_ok = verdict(workload, check, agg)
    check_ok = ok_setup and traced_same and (digest_ok or gate_ok)

    failed_chunks = sum(1 for c in chunks if c.report is None)
    attempted = len(chunks) + 1
    failed = failed_chunks + (0 if check_ok else 1)
    first = [c.report for c in chunks[:MIN_CHUNKS] if c.report is not None]
    first_agg = workload.aggregate(first) if first else None
    error_rate = _ratio(first_agg["errors"], first_agg["trials"]) if first_agg else 0.0

    untraced = [c for c in chunks if not c.traced and c.report is not None]
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        traced = [c for c in chunks if c.traced and c.report is not None]
        traced_trials = sum(c.trials for c in traced)
        traced_s = sum(c.seconds for c in traced)
        metrics = layer_metrics(trials_t, max(traced_trials, 1), setup_t)
        metrics["decode_error_rate"] = (error_rate, "ratio")
        metrics["trials_per_s_raw"] = (_median([c.raw_rate for c in untraced]), "1/s")
        metrics["host.calib_per_s"] = (_median([c.calib for c in chunks]), "1/s")
        metrics["trace.overhead"] = (
            _ratio(_median([c.rate for c in untraced]), _median([c.rate for c in traced])),
            "ratio")
        metrics["trace.accounted_share"] = (
            _ratio(sum(trials_t.self_s.values()), traced_s), "ratio")
        trials_t.write(OUT / f"trace-{workload.name}-seed{seed}.jsonl", meta)
    else:
        metrics["trials_per_s"] = (_median([c.rate for c in untraced]), "1/s")
        metrics["setup_s"] = (_median(setup_samples), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    meta.update({
        "chunks": len(chunks),
        "trials": sum(c.trials for c in chunks),
        "digest_ok": digest_ok,
        "gate_ok": gate_ok,
        "setup_ok": ok_setup,
        "traced_matches_untraced": traced_same,
        "check_digest": digest(check),
        "decode_error_rate": error_rate,
        "failed_frac": failed / attempted,
        "setup_s_samples": setup_samples,
    })
    return {
        "correct": check_ok and failed_chunks == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "diagnostics": meta,
    }
