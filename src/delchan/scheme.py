"""Concatenated encoding pipeline and threshold decoder, on run arrays.

Encoding: outer encode a message to n symbols, map each symbol to an inner
codeword, blow each 1-run up to N1 bits and each 2-run up to N2 bits, and
join the n blocks with zero buffers of length B. A Scheme derives these
lengths from its parameters, so that after the channel a 1-run's expected
survivor count is M1, a 2-run's is M2, and a buffer's is M_B * m. A Layout
holds the transmission as run lengths only: codewords start and end with 1
and buffers are 0, so runs alternate. The channel draws one survivor count
per run of the Layout.

Decoding (decode_block: the (trials, runs) arrays of a block of receptions
in one pass, returning the decoded messages only): drop vanished runs and
add the few runs that then follow a run of their own bit into it, split on
zero runs longer than the buffer threshold, and give each window its inner
symbol (inner_symbols). A window of a codeword's run count that starts with
a 1 is keyed by the bits `length > T` of its runs and looked up among the
codewords' keys with one searchsorted; such lookups resolve 96.0% of the
windows of desk-BDC end_to_end, 35.8% of desk-PRC end_to_end's and 36.6% of
the classify windows of single codewords on the PRC. Every other window is
thresholded to a string, in one pass over their runs, and decoded by the
memoised inner code (a miss is one lane-packed pass, InnerCodebook.decode).
Each row's symbols (however many) go to the outer decoder, which looks
codewords up first. decode() and decode_with_trace() read a string into runs
and decode it as a block of one through the same window finder and mapper;
only decode_with_trace builds a DecodeTrace.
window_spans and threshold_decode are the string reference of its first steps.

Classification is separate from decoding: classify() scores a block Layout
(one gather from the scheme's run_table) straight from its run arrays and
per-run survivors, the ground truth a decoder never sees, and returns each
codeword's distortion X and the summed error-event counts.

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
# Runs a run-pattern key covers: a key is read as one 64-bit word from the
# byte holding its first bit, which may be that byte's bit 7.
_KEY_BITS = 57

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
    def run_table(self) -> np.ndarray:
        """The table lay_out gathers this scheme's layouts from (see run_table)."""
        return run_table(self.blocks, self.B)

    @cached_property
    def _outer_table(self) -> np.ndarray:
        """The outer codeword of each message, one row per message."""
        return np.array(self.outer.codewords)

    @cached_property
    def _memo(self) -> dict[str, int]:
        """inner_decode's answers."""
        return {}

    @cached_property
    def _codeword_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The codewords' run-pattern keys, sorted, and the smallest symbol of
        each: bit j of a key is set where run j is a 2-run. Codewords of more
        than _KEY_BITS runs have no keys."""
        orig = self.blocks[:, 1]
        if orig.shape[1] > _KEY_BITS:
            return np.zeros(0, np.uint64), np.zeros(0, np.int64)
        keys = (orig == 2).astype(np.uint64) << np.arange(orig.shape[1], dtype=np.uint64)
        return np.unique(keys.sum(axis=1), return_index=True)

    def encode(self, message: int) -> str:
        return self.encode_with_layout(message).bits()

    def encode_with_layout(self, message: int) -> "Layout":
        return lay_out(self.outer.encode(message), self.run_table)

    def encode_block(self, messages: np.ndarray) -> "Layout":
        """The layouts of the messages as one block: row i is encode_with_layout(messages[i])."""
        return lay_out(self._outer_table[messages], self.run_table)

    def decode(self, received: str) -> int:
        return self.decode_with_trace(received)[0]

    def decode_with_trace(self, received: str) -> tuple[int, "DecodeTrace"]:
        chars = np.frombuffer(received.encode("ascii", "replace"), np.uint8) - 48
        if (chars > 1).any():
            raise ValueError("received string must be binary")
        starts = np.flatnonzero(np.diff(chars, prepend=2))  # where each run of the string starts
        runs = np.diff(np.append(starts, chars.size))
        bits, lengths, _, first, last = self._windows(chars[starts][None], runs[None])
        symbols = self.inner_symbols(bits, lengths, first, last).tolist()
        text, offsets = threshold_text(bits, lengths, self.params.T)
        pos = np.concatenate(([0], np.cumsum(lengths)))
        spans = list(zip(pos[first].tolist(), pos[last].tolist()))
        outputs = [text[a:b] for a, b in zip(offsets[first].tolist(), offsets[last].tolist())]
        return self.outer.decode(symbols), DecodeTrace(spans, outputs, symbols)

    def decode_block(self, bits: np.ndarray, lengths: np.ndarray) -> list[int]:
        """The decoded message of each row of a block of receptions: row i of
        the (trials, runs) arrays holds lengths[i, j] copies of bits[i, j] for
        each run j (runs of length 0 and same-bit neighbours may occur). One
        pass over all their runs: runs of two rows never merge, and no window
        spans two."""
        trials = len(lengths)
        bits, lengths, owner, first, last = self._windows(bits, lengths)
        symbols = self.inner_symbols(bits, lengths, first, last).tolist()
        cuts = np.searchsorted(owner[first], np.arange(trials + 1)).tolist()
        return [self.outer.decode(symbols[a:b]) for a, b in zip(cuts, cuts[1:])]

    def _windows(self, bits: np.ndarray, lengths: np.ndarray):
        """The merged runs of a block of receptions (see decode_block), their
        rows, and [first, last) of each window: a stretch of runs between zero
        runs longer than the buffer threshold."""
        owner = np.repeat(np.arange(len(lengths)), lengths.shape[1])
        bits, lengths, owner = merge_runs(bits.reshape(-1), lengths.reshape(-1), owner)
        first, last = segments((bits == 1) | (lengths <= self.params.buffer_threshold), owner)
        return bits, lengths, owner, first, last

    def inner_symbols(self, bits: np.ndarray, lengths: np.ndarray, first: np.ndarray,
                      last: np.ndarray) -> np.ndarray:
        """The inner symbol of each window [first[i], last[i]) of runs of
        alternating bits, or -1 for an empty window. A window of a codeword's
        run count that starts with a 1 thresholds to that codeword exactly
        when its key, bit j set where its run j is longer than T, is the
        codeword's; it is looked up among _codeword_keys. Every other nonempty
        window is thresholded to a string and decoded by inner_decode, in
        window order."""
        symbols = np.full(first.size, -1, np.int64)
        keys, key_symbols = self._codeword_keys
        if keys.size:
            width = self.blocks.shape[-1]  # a codeword's runs
            exact = np.flatnonzero(last - first == width)
            at = first[exact]
            flags = np.packbits(lengths > self.params.T, bitorder="little")
            flags = np.append(flags, np.zeros(8, np.uint8))
            words = np.ndarray(flags.size - 7, "<u8", flags, strides=(1,))  # one at each byte
            key = (words[at >> 3] >> (at & 7).astype(np.uint64)) & np.uint64((1 << width) - 1)
            slot = np.searchsorted(keys, key).clip(max=keys.size - 1)
            hit = (keys[slot] == key) & (bits[at] == 1)
            symbols[exact] = np.where(hit, key_symbols[slot], -1)
        other = np.flatnonzero((symbols < 0) & (last > first))
        hi = last[other]
        sizes = hi - first[other]
        ends = np.cumsum(sizes)
        runs = np.repeat(hi - ends, sizes)  # each run of those windows, in order
        runs += np.arange(runs.size)
        text, offsets = threshold_text(bits[runs], lengths[runs], self.params.T)
        cuts = offsets[np.append(0, ends)].tolist()
        windows = [text[a:b] for a, b in zip(cuts, cuts[1:])]
        known = map(self._memo.get, windows)  # inner_decode only where the memo lacks one
        symbols[other] = [self.inner_decode(w) if symbol is None else symbol
                          for w, symbol in zip(windows, known)]
        return symbols

    def inner_decode(self, window: str) -> int:
        """inner_cb.decode of a thresholded window, memoised (_MEMO_CAP windows
        at most)."""
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
    holds one transmission per row of each array, with its buffers at the same
    runs in every row; symbols is as lay_out was given it."""

    symbols: np.ndarray | tuple
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


def classify(scheme: Scheme, layout: Layout,
             counts: np.ndarray) -> tuple[list[int], dict[str, int]]:
    """Every codeword's distortion X, in row order, and the summed error-event
    counts of a block of transmissions: its layout (one transmission is a
    block of one row) and the survivors of each run (counts[i, j] bits of run
    j of row i reached the receiver), the ground truth a decoder never sees.
    The rows share their buffer runs, so row 0 shows which runs are codewords'.

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
    if np.shape(counts) != layout.lengths.shape:
        raise ValueError("counts length does not match input length")
    orig, z = np.atleast_2d(layout.orig, counts)
    coded = orig[:1].any(axis=0)  # the runs of codewords, not buffers (none if no rows)
    o = orig[:, coded].reshape(-1, scheme.blocks.shape[-1])  # one codeword per row
    zc = z[:, coded].reshape(o.shape)
    after = np.append(o[:, 1:], np.full((len(o), 1), 2), axis=1)  # then a buffer or nothing
    cost = np.where(zc == 0, o + after, 1 + (zc > p.T) != o)
    events["deleted_buffer"] = int((z[:, ~coded] <= p.buffer_threshold).sum())
    bits = np.atleast_2d(layout.run_bits)[:, coded].reshape(-1)
    w_bits, w_lengths, owner = merge_runs(bits, zc.reshape(-1), np.arange(zc.size) // o.shape[1])
    cut = owner[1:] != owner[:-1]
    keep = w_bits == 1  # each codeword's edge zeros stripped: a 0 stays only inside
    keep[1:-1] |= ~(cut[:-1] | cut[1:])
    w_bits, w_lengths, owner = w_bits[keep], w_lengths[keep], owner[keep]
    events["spurious_buffer"] = int(((w_bits == 0) & (w_lengths > p.buffer_threshold)).sum())
    cuts = np.searchsorted(owner, np.arange(len(o) + 1))
    found = scheme.inner_symbols(w_bits, w_lengths, cuts[:-1], cuts[1:])
    events["wrong_inner_decode"] = int((found != np.ravel(layout.symbols)).sum())
    return cost.sum(axis=1).tolist(), events


def blow_up(codeword: str, N1: int, N2: int) -> np.ndarray:
    """A codeword's run lengths blown up (1-runs to N1 bits, 2-runs to N2) in
    row 0, and its original run lengths in row 1."""
    if not in_S(codeword):  # runs must alternate from 1 to 1 across buffers
        raise ValueError(f"{codeword!r} is not in S")
    orig = np.array([ln for _, ln in runs_of(codeword)], np.int64)
    return np.stack((np.where(orig == 1, N1, N2), orig))


def run_table(blocks, B: int) -> np.ndarray:
    """The blown-up blocks (blocks[s] is blow_up of the codeword of s; all have
    one run count), each after a zero buffer of B bits: table[0, s] holds the
    run lengths of that buffer and block, table[1, s] their original lengths."""
    return np.insert(np.asarray(blocks), 0, [B, 0], axis=-1).swapaxes(0, 1).copy()


def lay_out(symbols, table: np.ndarray, *, edge_buffers: bool = False) -> Layout:
    """Join the blown-up blocks of the symbols with zero buffers, from a
    run_table; edge_buffers adds one more buffer before the first block and
    after the last. A (trials, n) array of symbols gives a block of trials
    layouts, zero rows included."""
    index = np.asarray(symbols, np.intp)
    runs = table[:, index].reshape(2, *index.shape[:-1], index.shape[-1] * table.shape[-1])
    runs = np.concatenate((runs, runs[..., :1]), axis=-1) if edge_buffers else runs[..., 1:]
    return Layout(symbols, runs[0], runs[1])


def merge_runs(bits: np.ndarray, lengths: np.ndarray, owner: np.ndarray):
    """Drop the runs of length 0 and merge the same-bit neighbours they leave;
    return the merged bits, lengths and owners. Runs of two owners (two
    receptions, say) never merge. Only the few runs that follow a run of
    their own bit are added into the run that heads their chain."""
    keep = lengths > 0
    bits, lengths, owner = bits[keep], lengths[keep], owner[keep]
    later = np.flatnonzero((bits[1:] == bits[:-1]) & (owner[1:] == owner[:-1])) + 1
    # a chain of later runs is headed by the run just before its first one
    head = np.maximum.accumulate(np.where(np.diff(later, prepend=-1) > 1, later - 1, 0))
    np.add.at(lengths, head, lengths[later])
    alone = np.ones(bits.size, bool)
    alone[later] = False
    return bits[alone], lengths[alone], owner[alone]


def segments(mask: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[first, last) of each maximal stretch of True in mask; a stretch also
    ends where the owner changes."""
    cut = owner[1:] != owner[:-1]
    opens, closes = mask.copy(), mask.copy()
    opens[1:] &= ~mask[:-1] | cut
    closes[:-1] &= ~mask[1:] | cut
    return np.flatnonzero(opens), np.flatnonzero(closes) + 1


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
