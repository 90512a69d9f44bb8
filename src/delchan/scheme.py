"""Concatenated encoding pipeline and threshold decoder.

Encoding: outer encode a message to n symbols, map each symbol to an inner
codeword, blow each 1-run up to N1 bits and each 2-run up to N2 bits, and
join the n blocks with zero buffers of length B. The blow-up factors are
sized so that, after the channel, a 1-run's expected survivor count is M1, a
2-run's is M2, and a buffer's is M_B * m.

Decoding: split the received string on long zero runs (buffers), map each
window's runs back to 1-/2-runs with the survivor threshold T, decode each
window with the inner code, and hand the resulting symbol sequence (whatever
its length) to the outer decoder.

Classification is separate from decoding: classify() reads a transmission's
layout and per-bit copy counts (the ground truth a decoder never sees) and
returns each codeword's distortion X and the error-event counts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import ceil, floor
from pathlib import Path

import numpy as np

from .channels import ChannelModel
from .inner import InnerCodebook, InnerParams
from .outer import OuterCode, OuterSpec
from .strings import SProfile, runs_of

# Tolerance for snapping near-integer ratios before applying ceil/floor, so
# that e.g. 20.21/0.43 = 46.999999... rounds to 47, not 48.
_SNAP = 1e-9


def ceil_snapped(x: float) -> int:
    """Ceiling that forgives float error just above an integer."""
    r = round(x)
    if abs(x - r) < _SNAP:
        return int(r)
    return int(ceil(x))


def floor_snapped(x: float) -> int:
    """Floor that forgives float error just below an integer."""
    r = round(x)
    if abs(x - r) < _SNAP:
        return int(r)
    return int(floor(x))


@dataclass(frozen=True)
class SchemeParams:
    """All tunables of the concatenated scheme.

    M1/M2 are target expected survivor counts for blown-up 1-/2-runs, M_B
    scales the buffer, T is the survivor-count threshold separating them.
    """

    channel: ChannelModel
    M1: float
    M2: float
    M_B: float
    T: int
    inner: InnerParams
    outer: OuterSpec

    def __post_init__(self) -> None:
        if not (self.M1 > 0 and self.M2 > 0 and self.M_B > 0):
            raise ValueError("M1, M2, M_B must be positive")
        if not self.M1 < self.T < self.M2:
            raise ValueError(f"need M1 < T < M2, got {self.M1}, {self.T}, {self.M2}")
        if self.channel.kind == "prc" and self.M2 <= self.channel.parameter:
            raise ValueError("M2 must exceed the repeat mean")

    @property
    def buffer_threshold(self) -> int:
        """Zero runs strictly longer than this are treated as buffers."""
        return floor_snapped(self.M_B * self.inner.m / 2.0)


@dataclass(frozen=True)
class Scheme:
    """A built scheme: codebooks plus the integer blow-up factors.

    N1 = ceil(M1 / mu), N2 = ceil(M2 / mu), B = ceil(M_B * m / mu), where mu
    is the channel's expected survivors per bit (1 - p or lambda).
    """

    params: SchemeParams
    inner_cb: InnerCodebook
    outer: OuterCode
    N1: int
    N2: int
    B: int

    def __post_init__(self) -> None:
        if not self.N1 < self.N2:
            raise ValueError(f"need N1 < N2, got {self.N1}, {self.N2}")
        if self.B < 1:
            raise ValueError("buffer length must be at least 1")
        if self.outer.spec != self.params.outer:
            raise ValueError("outer code does not match the declared parameters")
        if self.params.outer.q > len(self.inner_cb):
            raise ValueError(
                f"outer alphabet {self.params.outer.q} exceeds inner codebook"
                f" size {len(self.inner_cb)}"
            )

    @property
    def block_length(self) -> int:
        """Bits per blown-up inner codeword."""
        prof = self.params.inner.profile
        return prof.r1 * self.N1 + prof.r2 * self.N2

    def encode(self, message: int) -> str:
        bits, _ = self.encode_with_layout(message)
        return bits

    def encode_with_layout(self, message: int) -> tuple[str, "Layout"]:
        return lay_out(self.outer.encode(message), self.inner_cb, self.N1, self.N2, self.B)

    def decode(self, received: str) -> int:
        message, _ = self.decode_with_trace(received)
        return message

    def decode_with_trace(self, received: str) -> tuple[int, "DecodeTrace"]:
        p = self.params
        spans = window_spans(received, p.buffer_threshold)
        outputs = [threshold_decode(received[a:b], p.T) for a, b in spans]
        symbols = [self.inner_cb.decode(w) for w in outputs]
        return self.outer.decode(symbols), DecodeTrace(spans, outputs, symbols)


@dataclass(frozen=True)
class RunSpan:
    """One blown-up run: [start, end) in the transmitted string, its bit, and
    the original run length (1 or 2)."""

    start: int
    end: int
    bit: int
    orig_len: int


@dataclass(frozen=True)
class Layout:
    """Ground-truth positions of every blown-up run and buffer."""

    symbols: tuple[int, ...]
    codeword_runs: list[list[RunSpan]]
    buffer_spans: list[tuple[int, int]]


@dataclass
class DecodeTrace:
    """Decoder internals: each window's span, thresholded string and inner symbol."""

    window_boundaries: list[tuple[int, int]]
    per_window_threshold_outputs: list[str]
    per_window_inner_symbols: list[int]


def classify(
    scheme: Scheme, layout: Layout, counts: np.ndarray
) -> tuple[list[int], dict[str, int]]:
    """Per-codeword distortion X and error-event counts of one transmission,
    from the survivor count of each blown-up run and buffer (counts[i] copies
    of transmitted bit i reached the receiver).

    X for a codeword sums, over its runs: 0 if the thresholded run matches
    the original length; 1 if survivors > 0 but it does not; the original
    length plus the next run's (or plus 2 for the last run) if the run
    vanished entirely. A buffer is deleted when at most buffer_threshold of
    its zeros survive; a spurious buffer is a longer zero run inside one
    codeword's received bits; an inner decode is wrong when those bits, edge
    zeros stripped, are empty or decode to another symbol.
    """
    p = scheme.params
    threshold = p.buffer_threshold
    before = [0, *np.cumsum(counts).tolist()]  # survivors of bits [0, i)
    events = {"deleted_buffer": 0, "spurious_buffer": 0, "wrong_inner_decode": 0}
    for a, b in layout.buffer_spans:
        events["deleted_buffer"] += before[b] - before[a] <= threshold

    xs: list[int] = []
    for symbol, spans in zip(layout.symbols, layout.codeword_runs):
        survivors = [before[span.end] - before[span.start] for span in spans]
        next_len = [span.orig_len for span in spans[1:]] + [2]
        x = 0
        for span, z, after in zip(spans, survivors, next_len):
            if z == 0:
                x += span.orig_len + after
            elif (2 if z > p.T else 1) != span.orig_len:
                x += 1
        xs.append(x)
        window = "".join(str(span.bit) * z for span, z in zip(spans, survivors)).strip("0")
        events["spurious_buffer"] += sum(
            bit == 0 and ln > threshold for bit, ln in runs_of(window)
        )
        events["wrong_inner_decode"] += (
            not window or scheme.inner_cb.decode(threshold_decode(window, p.T)) != symbol
        )
    return xs, events


def lay_out(
    symbols: tuple[int, ...], inner_cb: InnerCodebook, N1: int, N2: int, B: int,
    *, edge_buffers: bool = False,
) -> tuple[str, Layout]:
    """Blow up each symbol's inner codeword (1-runs to N1 bits, 2-runs to N2)
    and join the blocks with zero buffers of B bits; edge_buffers adds one
    more buffer before the first block and after the last."""
    pieces: list[str] = []
    codeword_runs: list[list[RunSpan]] = []
    buffer_spans: list[tuple[int, int]] = []
    pos = 0
    for idx, sym in enumerate(symbols):
        if idx > 0 or edge_buffers:
            pieces.append("0" * B)
            buffer_spans.append((pos, pos + B))
            pos += B
        spans: list[RunSpan] = []
        for b, ln in runs_of(inner_cb.encode(sym)):
            blown = N1 if ln == 1 else N2
            pieces.append(str(b) * blown)
            spans.append(RunSpan(pos, pos + blown, b, ln))
            pos += blown
        codeword_runs.append(spans)
    if edge_buffers:
        pieces.append("0" * B)
        buffer_spans.append((pos, pos + B))
    return "".join(pieces), Layout(tuple(symbols), codeword_runs, buffer_spans)


def window_spans(bits: str, threshold: int) -> list[tuple[int, int]]:
    """[start, end) of each nonempty segment between buffer zero-runs.

    A maximal zero-run strictly longer than threshold is a buffer; segments
    between buffers (and the string ends) are returned in order.
    """
    spans: list[tuple[int, int]] = []
    start = 0
    for buffer in re.finditer(f"0{{{threshold + 1},}}", bits):
        if buffer.start() > start:
            spans.append((start, buffer.start()))
        start = buffer.end()
    if len(bits) > start:
        spans.append((start, len(bits)))
    return spans


def threshold_decode(window: str, T: int) -> str:
    """Map each run to a 2-run if longer than T, else a 1-run."""
    if T < 1:
        raise ValueError("threshold T must be at least 1")
    return "".join(str(b) * (2 if ln > T else 1) for b, ln in runs_of(window))


def assemble_scheme(
    params: SchemeParams, inner_cb: InnerCodebook, outer: OuterCode
) -> Scheme:
    """Derive N1, N2, B from already-built codebooks."""
    mu = params.channel.mean_copies
    return Scheme(
        params,
        inner_cb,
        outer,
        N1=ceil_snapped(params.M1 / mu),
        N2=ceil_snapped(params.M2 / mu),
        B=ceil_snapped(params.M_B * params.inner.m / mu),
    )


def read_fields(path: str | Path) -> dict[str, str]:
    """The key=value lines of a scheme descriptor or experiment config.

    Blank lines and lines starting with # are skipped; whitespace around
    keys and values is dropped. A later line overrides an earlier key.
    """
    fields: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            if "=" not in line:
                raise ValueError(f"{path}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            fields[key.strip()] = value.strip()
    return fields


def params_to_fields(params: SchemeParams) -> dict[str, str]:
    prof = params.inner.profile
    return {
        "channel": params.channel.kind,
        "param": repr(params.channel.parameter),
        "M1": repr(params.M1),
        "M2": repr(params.M2),
        "M_B": repr(params.M_B),
        "T": str(params.T),
        "m": str(prof.m),
        "r1": str(prof.r1),
        "r2": str(prof.r2),
        "d": str(params.inner.d),
        "q": str(params.outer.q),
        "n": str(params.outer.n),
        "k": str(params.outer.k),
        "dout": repr(params.outer.delta_out),
    }


def params_from_fields(fields: dict[str, str]) -> SchemeParams:
    """Inverse of params_to_fields; keys it does not use are ignored."""
    return SchemeParams(
        channel=ChannelModel(fields["channel"], float(fields["param"])),
        M1=float(fields["M1"]),
        M2=float(fields["M2"]),
        M_B=float(fields["M_B"]),
        T=int(fields["T"]),
        inner=InnerParams(
            SProfile(int(fields["m"]), int(fields["r1"]), int(fields["r2"])),
            int(fields["d"]),
        ),
        outer=OuterSpec(
            int(fields["q"]), int(fields["n"]), int(fields["k"]), float(fields["dout"])
        ),
    )


def save_scheme(scheme: Scheme, path: str | Path, codebook_path: str, outer_path: str,
                seed: int) -> None:
    fields = params_to_fields(scheme.params)
    fields.update(seed=str(seed), codebook=codebook_path, outercode=outer_path)
    Path(path).write_text("".join(f"{key}={value}\n" for key, value in fields.items()))


def load_scheme(path: str | Path) -> Scheme:
    base = Path(path).parent
    fields = read_fields(path)
    try:
        params = params_from_fields(fields)
        codebook, outercode = fields["codebook"], fields["outercode"]
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    inner_cb = InnerCodebook.load(base / codebook).truncate(params.outer.q)
    outer = OuterCode.load(base / outercode)
    return assemble_scheme(params, inner_cb, outer)
