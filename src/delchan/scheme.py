"""Concatenated encoding pipeline and threshold decoder, on run arrays.

Encoding: outer encode a message to n symbols, map each symbol to an inner
codeword, blow each 1-run up to N1 bits and each 2-run up to N2 bits, and
join the n blocks with zero buffers of length B. A Scheme derives these
lengths from its parameters, so that after the channel a 1-run's expected
survivor count is M1, a 2-run's is M2, and a buffer's is M_B * m. A Layout
holds the transmission as run lengths only: codewords start and end with 1
and buffers are 0, so runs alternate. The channel draws one survivor count
per run of the Layout.

Decoding (decode_block, several receptions in one pass): drop vanished runs
and merge the neighbours they leave, split on zero runs longer than the
buffer threshold, map each window's runs back to 1-/2-runs with the survivor
threshold T, decode each window with the memoised inner code, and hand the
symbols (however many) to the outer decoder, which looks codewords up first.
decode() and decode_with_trace() read a string into runs, a block of one;
window_spans and threshold_decode are the string reference of its first steps.

Classification is separate from decoding: classify() reads the layouts and
per-run survivors of a block of transmissions (the ground truth a decoder
never sees) in one pass and returns each codeword's distortion X and the
summed error-event counts.

A descriptor (save_scheme, load_scheme) holds the PARAM_KEYS, the seed and
the two code-file names, one key=value per line, read by strings.read_fields.
A Scheme refuses codes whose parameters differ from the descriptor's.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .analysis import ProbReport, transition_probs
from .channels import ChannelModel, floor_snapped
from .inner import InnerCodebook, InnerParams
from .outer import OuterCode, OuterSpec
from .strings import SProfile, in_S, read_fields, runs_of

# Windows one scheme's inner-decode memo holds at most, to bound its memory.
_MEMO_CAP = 1 << 12

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
    """A built scheme: its parameters and codebooks. The blow-up factors are
    derived: N1 = ceil(M1 / mu), N2 = ceil(M2 / mu), B = ceil(M_B * m / mu),
    where mu is the channel's expected survivors per bit (1 - p or lambda);
    see ChannelModel.run_length.
    """

    params: SchemeParams
    inner_cb: InnerCodebook
    outer: OuterCode

    def __post_init__(self) -> None:
        if not self.N1 < self.N2:
            raise ValueError(f"need N1 < N2, got {self.N1}, {self.N2}")
        if self.B < 1:  # ceil_snapped rounds a tiny M_B * m / mu down to 0
            raise ValueError("buffer length must be at least 1")
        if self.inner_cb.params != self.params.inner:
            raise ValueError("inner codebook does not match the declared parameters")
        if self.outer.spec != self.params.outer:
            raise ValueError("outer code does not match the declared parameters")
        if self.params.outer.q > len(self.inner_cb):
            raise ValueError(
                f"outer alphabet {self.params.outer.q} exceeds inner codebook"
                f" size {len(self.inner_cb)}"
            )

    @cached_property
    def N1(self) -> int:
        return self.params.channel.run_length(self.params.M1)

    @cached_property
    def N2(self) -> int:
        return self.params.channel.run_length(self.params.M2)

    @cached_property
    def B(self) -> int:
        return self.params.channel.run_length(self.params.M_B * self.params.inner.m)

    @property
    def block_length(self) -> int:
        """Bits per blown-up inner codeword."""
        prof = self.params.inner.profile
        return prof.r1 * self.N1 + prof.r2 * self.N2

    @cached_property
    def probs(self) -> ProbReport:
        """Exact run-transition probabilities at N1, N2 and T."""
        prof = self.params.inner.profile
        return transition_probs(self.params.channel, self.N1, self.N2, self.params.T,
                                prof.r1 / prof.m)

    @cached_property
    def blocks(self) -> np.ndarray:
        """Each symbol's blown-up block (see blow_up), stacked: symbol s is blocks[s]."""
        return np.stack([blow_up(c, self.N1, self.N2) for c in self.inner_cb.codewords])

    @cached_property
    def codeword_layouts(self) -> tuple["Layout", ...]:
        """Each symbol's blown-up codeword alone between two buffers: symbol s
        is codeword_layouts[s]."""
        return tuple(lay_out((s,), self.blocks, self.B, edge_buffers=True)
                     for s in range(len(self.inner_cb)))

    @cached_property
    def _outer_table(self) -> np.ndarray:
        """The outer codeword of each message, one row per message."""
        return np.array(self.outer.codewords)

    @cached_property
    def _memo(self) -> dict[str, int]:
        """inner_decode's answers, seeded with each codeword's smallest index."""
        return {c: i for i, c in reversed(list(enumerate(self.inner_cb.codewords)))}

    def encode(self, message: int) -> str:
        return self.encode_with_layout(message).bits()

    def encode_with_layout(self, message: int) -> "Layout":
        return lay_out(self.outer.encode(message), self.blocks, self.B)

    def encode_block(self, messages: np.ndarray) -> "Layout":
        """The layouts of the messages as one block: row i is encode_with_layout(messages[i])."""
        return lay_out(self._outer_table[messages], self.blocks, self.B)

    def decode(self, received: str) -> int:
        return self.decode_with_trace(received)[0]

    def decode_with_trace(self, received: str) -> tuple[int, "DecodeTrace"]:
        bits = np.frombuffer(received.encode("ascii", "replace"), np.uint8) - 48
        if (bits > 1).any():
            raise ValueError("received string must be binary")
        return self.decode_block([(bits, np.ones(bits.size, np.int64))])[0]  # runs of one bit

    def decode_block(
        self, receptions: list[tuple[np.ndarray, np.ndarray]]
    ) -> list[tuple[int, "DecodeTrace"]]:
        """Decode each reception of lengths[i] copies of bits[i] for each run i
        (runs of length 0 and same-bit neighbours may occur), in one pass over
        all their runs: runs of two receptions never merge, and no window spans two."""
        if not receptions:
            return []
        p = self.params
        owner = np.repeat(np.arange(len(receptions)), [len(b) for b, _ in receptions])
        bits, lengths, owner = merge_runs(np.concatenate([b for b, _ in receptions]),
                                          np.concatenate([n for _, n in receptions]), owner)
        first, last = segments((bits == 1) | (lengths <= p.buffer_threshold), owner)
        text, offsets = threshold_text(bits, lengths, p.T)
        pos = np.concatenate(([0], np.cumsum(lengths)))
        window_owner = owner[first]
        base = pos[np.searchsorted(owner, window_owner)]  # where each window's reception starts
        spans = list(zip((pos[first] - base).tolist(), (pos[last] - base).tolist()))
        outputs = [text[a:b] for a, b in zip(offsets[first].tolist(), offsets[last].tolist())]
        symbols = [self.inner_decode(w) for w in outputs]
        cuts = np.searchsorted(window_owner, np.arange(len(receptions) + 1)).tolist()
        return [(self.outer.decode(symbols[a:b]),
                 DecodeTrace(spans[a:b], outputs[a:b], symbols[a:b]))
                for a, b in zip(cuts, cuts[1:])]

    def inner_decode(self, window: str) -> int:
        """inner_cb.decode of a thresholded window, memoised (_MEMO_CAP windows
        at most). The memo starts with each codeword at its smallest index,
        decode's answer: no other codeword of length m reaches its LCS of m."""
        symbol = self._memo.get(window)
        if symbol is None:
            symbol = self.inner_cb.decode(window)
            if len(self._memo) < _MEMO_CAP:
                self._memo[window] = symbol
        return symbol


@dataclass(frozen=True, eq=False)
class Layout:
    """A transmission as run arrays: run i covers the bits [starts[i],
    starts[i] + lengths[i]) and was a run of orig[i] (1 or 2) bits before the
    blow-up, or is a buffer if orig[i] is 0. Runs alternate in bit, starting
    from 1 if the first run is a codeword's, or 0 if it is a buffer. A block
    of layouts holds one transmission per row of each array."""

    symbols: tuple
    lengths: np.ndarray
    orig: np.ndarray

    def __len__(self) -> int:
        """Transmitted bits."""
        return int(self.lengths.sum())

    @cached_property
    def starts(self) -> np.ndarray:
        return np.cumsum(self.lengths, axis=-1) - self.lengths

    @cached_property
    def run_bits(self) -> np.ndarray:
        return ((np.arange(self.orig.shape[-1]) & 1) ^ (self.orig[..., :1] > 0)).astype(np.uint8)

    @cached_property
    def runs_by_orig(self) -> tuple[np.ndarray, ...]:
        """Flat run indices of the buffers, of the 1-runs and of the 2-runs."""
        return tuple(np.flatnonzero(self.orig == orig) for orig in range(3))

    @property
    def buffers(self) -> np.ndarray:
        """Run indices of the buffers."""
        return self.runs_by_orig[0]

    def bits(self) -> str:
        """The transmitted string."""
        return np.repeat(self.run_bits + 48, self.lengths).tobytes().decode()


@dataclass
class DecodeTrace:
    """Decoder internals: each window's span, thresholded string and inner symbol."""

    window_boundaries: list[tuple[int, int]]
    per_window_threshold_outputs: list[str]
    per_window_inner_symbols: list[int]


def classify(
    scheme: Scheme, transmissions: list[tuple[Layout, np.ndarray]]
) -> tuple[list[int], dict[str, int]]:
    """Every codeword's distortion X, in order, and the summed error-event
    counts of a block of transmissions, in one pass over all their runs. A
    transmission is a layout and the survivors of each of its runs (counts[i]
    bits of run i reached the receiver), the ground truth a decoder never sees.

    X for a codeword sums, over its runs: 0 if the thresholded run matches
    the original length; 1 if survivors > 0 but it does not; the original
    length plus the next run's (or plus 2 for the last run) if the run
    vanished entirely. A buffer is deleted when at most buffer_threshold of
    its zeros survive; a spurious buffer is a longer zero run inside one
    codeword's received bits; an inner decode is wrong when those bits, edge
    zeros stripped, are empty or decode to another symbol.
    """
    p = scheme.params
    events = {"deleted_buffer": 0, "spurious_buffer": 0, "wrong_inner_decode": 0}
    if not transmissions:
        return [], events
    layouts, counts = zip(*transmissions)
    sizes = np.array([layout.lengths.size for layout in layouts])
    if not np.array_equal(sizes, [c.size for c in counts]):
        raise ValueError("counts length does not match input length")
    tx = np.repeat(np.arange(sizes.size), sizes)  # each run's transmission
    orig = np.concatenate([layout.orig for layout in layouts])
    z = np.concatenate(counts)
    bits = np.concatenate([layout.run_bits for layout in layouts])
    first, last = segments(orig > 0, tx)  # each codeword's runs
    after = np.append(orig[1:], 0)
    after[last - 1] = 2  # a codeword's last run is followed by a buffer or nothing
    cost = np.concatenate(([0], np.cumsum(np.where(z == 0, orig + after, 1 + (z > p.T) != orig))))
    events["deleted_buffer"] = int((z[orig == 0] <= p.buffer_threshold).sum())
    w_bits, w_lengths, owner = merge_runs(bits[orig > 0], z[orig > 0],
                                          np.repeat(np.arange(first.size), last - first))
    edge = (np.diff(owner, prepend=-1) != 0) | (np.diff(owner, append=-1) != 0)
    keep = (w_bits == 1) | ~edge  # each codeword's edge zeros stripped
    w_bits, w_lengths, owner = w_bits[keep], w_lengths[keep], owner[keep]
    events["spurious_buffer"] = int(((w_bits == 0) & (w_lengths > p.buffer_threshold)).sum())
    text, offsets = threshold_text(w_bits, w_lengths, p.T)
    cuts = offsets[np.searchsorted(owner, np.arange(first.size + 1))].tolist()
    windows = [text[a:b] for a, b in zip(cuts, cuts[1:])]
    symbols = [symbol for layout in layouts for symbol in layout.symbols]
    events["wrong_inner_decode"] = sum(not w or scheme.inner_decode(w) != symbol
                                       for w, symbol in zip(windows, symbols))
    return (cost[last] - cost[first]).tolist(), events


def blow_up(codeword: str, N1: int, N2: int) -> np.ndarray:
    """A codeword's run lengths blown up (1-runs to N1 bits, 2-runs to N2) in
    row 0, and its original run lengths in row 1."""
    if not in_S(codeword):  # runs must alternate from 1 to 1 across buffers
        raise ValueError(f"{codeword!r} is not in S")
    orig = np.array([ln for _, ln in runs_of(codeword)], np.int64)
    return np.stack((np.where(orig == 1, N1, N2), orig))


def lay_out(symbols, blocks, B: int, *, edge_buffers: bool = False) -> Layout:
    """Join the blown-up blocks of the symbols (blocks[s] is blow_up of the
    codeword of s; all have one run count) with zero buffers of B bits;
    edge_buffers adds one more buffer before the first block and after the
    last. A (trials, n) array of symbols gives a block of trials layouts."""
    table = np.insert(np.asarray(blocks), 0, [B, 0], axis=-1)  # a buffer before each block
    runs = table.swapaxes(0, 1)[:, np.asarray(symbols)].reshape(2, *np.shape(symbols)[:-1], -1)
    runs = np.concatenate((runs, runs[..., :1]), axis=-1) if edge_buffers else runs[..., 1:]
    return Layout(tuple(symbols), runs[0], runs[1])


def merge_runs(bits: np.ndarray, lengths: np.ndarray, owner: np.ndarray):
    """Drop the runs of length 0 and merge the same-bit neighbours they leave;
    return the merged bits, lengths and owners. Runs of two owners (two
    receptions, say) never merge."""
    keep = lengths > 0
    bits, lengths, owner = bits[keep], lengths[keep], owner[keep]
    starts = np.flatnonzero(np.diff(bits + 2 * owner, prepend=-1))
    return bits[starts], np.add.reduceat(lengths, starts), owner[starts]


def segments(mask: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[first, last) of each maximal stretch of True in mask; a stretch also
    ends where the owner changes."""
    before, after = np.concatenate(([False], mask)), np.concatenate((mask, [False]))
    joined = before & after  # element i - 1 and element i lie in one stretch
    joined[1:-1] &= owner[1:] == owner[:-1]
    return np.flatnonzero(after & ~joined), np.flatnonzero(before & ~joined)


def threshold_text(bits: np.ndarray, lengths: np.ndarray, T: int) -> tuple[str, np.ndarray]:
    """Every run as a 2-run if longer than T, else a 1-run, as one string;
    and the offset in it where each run starts, plus its length."""
    doubled = 1 + (lengths > T)
    text = np.repeat(bits + 48, doubled).tobytes().decode()
    return text, np.concatenate(([0], np.cumsum(doubled)))


def window_spans(bits: str, threshold: int) -> list[tuple[int, int]]:
    """[start, end) of each nonempty segment between buffer zero-runs.

    A maximal zero-run strictly longer than threshold is a buffer; segments
    between buffers (and the string ends) are returned in order.
    """
    buffers = re.finditer(f"0{{{threshold + 1},}}", bits)
    bounds = [0, *(i for buffer in buffers for i in buffer.span()), len(bits)]
    return [(a, b) for a, b in zip(bounds[::2], bounds[1::2]) if b > a]


def threshold_decode(window: str, T: int) -> str:
    """Map each run to a 2-run if longer than T, else a 1-run."""
    if T < 1:
        raise ValueError("threshold T must be at least 1")
    return "".join(str(b) * (2 if ln > T else 1) for b, ln in runs_of(window))


# The old builder's name, still called by the benchmark's set-up.
assemble_scheme = Scheme


# Each key of a scheme's parameters (params_to_fields) and its type.
PARAM_KEYS = {"channel": str, "param": float, "M1": float, "M2": float, "M_B": float, "T": int,
              **dict.fromkeys(("m", "r1", "r2", "d", "q", "n", "k"), int), "dout": float}


def params_to_fields(params: SchemeParams) -> dict:
    prof = params.inner.profile
    outer = params.outer
    return {"channel": params.channel.kind, "param": params.channel.parameter,
            "M1": params.M1, "M2": params.M2, "M_B": params.M_B, "T": params.T,
            "m": prof.m, "r1": prof.r1, "r2": prof.r2, "d": params.inner.d,
            "q": outer.q, "n": outer.n, "k": outer.k, "dout": outer.delta_out}


def params_from_fields(f: dict) -> SchemeParams:
    """Inverse of params_to_fields; keys it does not use are ignored."""
    return SchemeParams(
        ChannelModel(f["channel"], f["param"]), f["M1"], f["M2"], f["M_B"], f["T"],
        InnerParams(SProfile(f["m"], f["r1"], f["r2"]), f["d"]),
        OuterSpec(f["q"], f["n"], f["k"], f["dout"]),
    )


def save_scheme(scheme: Scheme, path: str | Path, codebook_path: str, outer_path: str,
                seed: int) -> None:
    fields = params_to_fields(scheme.params)
    fields.update(seed=seed, codebook=codebook_path, outercode=outer_path)
    Path(path).write_text("".join(f"{key}={value}\n" for key, value in fields.items()))


def load_scheme(path: str | Path) -> Scheme:
    base = Path(path).parent
    fields = read_fields(path, {**PARAM_KEYS, "seed": int, "codebook": str, "outercode": str})
    params = params_from_fields(fields)
    inner_cb = InnerCodebook.load(base / fields["codebook"])
    outer = OuterCode.load(base / fields["outercode"])
    try:  # the descriptor and the code files' headers must agree
        return Scheme(params, inner_cb.truncate(params.outer.q), outer)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
