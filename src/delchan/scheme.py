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
symbol (inner_symbols) from one memo. It is keyed by a window's run pattern
(`length > T` of each run, its run count and first bit), or by its
thresholded string past _KEY_BITS runs, and starts with the codewords' keys;
only a window whose key it lacks is thresholded to a string and decoded by
InnerCodebook.decode. Each row's symbols (however many) go to the outer
decoder, which looks codewords up first. decode() and decode_with_trace()
read a string into runs and decode it as a block of one; only
decode_with_trace builds a DecodeTrace.
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
from math import inf
from pathlib import Path

import numpy as np

from .analysis import ProbReport, transition_probs
from .channels import RUN_DTYPE, ChannelModel, floor_snapped
from .inner import InnerCodebook, InnerParams
from .outer import OuterCode, OuterSpec
from .strings import SProfile, bit_runs, in_S, nonnegative, read_fields, runs_of

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
        for name in ("M1", "M2", "M_B"):
            if not 0 < getattr(self, name) < inf:
                raise ValueError(f"{name}={getattr(self, name)} must be positive and finite")
        if not self.M1 < self.T < self.M2:
            raise ValueError(f"need M1 < T < M2, got {self.M1}, {self.T}, {self.M2}")
        N1, N2 = self.channel.run_length(self.M1), self.channel.run_length(self.M2)
        if not N1 < N2:
            raise ValueError(f"need N1 < N2, got {N1}, {N2}")

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
        if self.B < 1:  # ceil_snapped rounds a tiny M_B * m / mu down to 0
            raise ValueError("buffer length must be at least 1")
        # The run arrays hold RUN_DTYPE lengths; on the BDC a merged run holds at most a row's bits.
        row = self.params.outer.n * (self.block_length + self.B) + self.B
        if max(self.N2, row) > np.iinfo(RUN_DTYPE).max:
            raise ValueError(f"N2={self.N2} and a row's {row} bits must stay below 2**31")
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
    def run_table(self) -> np.ndarray:
        """The table lay_out gathers this scheme's layouts from (see run_table)."""
        return run_table([blow_up(c, self.N1, self.N2) for c in self.inner_cb.codewords], self.B)

    @cached_property
    def _memo(self) -> dict[int | str, int]:
        """Each window key's inner symbol (see inner_symbols): every codeword's
        key at its smallest symbol, then the windows decoded so far."""
        orig = self.run_table[1, :, 1:]
        keys = self.inner_cb.codewords
        if orig.shape[1] <= _KEY_BITS:
            keys = run_keys(orig.ravel() == 2, np.arange(0, orig.size, orig.shape[1]),
                            orig.shape[1], 1).tolist()
        return {key: symbol for symbol, key in reversed(list(enumerate(keys)))}

    def encode(self, message: int) -> str:
        return self.encode_with_layout(message).bits()

    def encode_with_layout(self, message: int) -> "Layout":
        return lay_out(self.outer.encode(message), self.run_table)

    def encode_block(self, messages: np.ndarray) -> "Layout":
        """The layouts of the messages as one block: row i is encode_with_layout(messages[i])."""
        return lay_out(self.outer.table[messages], self.run_table)

    def decode(self, received: str) -> int:
        return self.decode_block(*(a[None] for a in bit_runs(received)))[0]

    def decode_with_trace(self, received: str) -> tuple[int, "DecodeTrace"]:
        bits, lengths, _, first, last = self._windows(*(a[None] for a in bit_runs(received)))
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
        owner = np.repeat(np.arange(len(lengths), dtype=RUN_DTYPE), lengths.shape[1])
        bits, lengths, owner = merge_runs(bits.reshape(-1), lengths.reshape(-1), owner)
        first, last = segments((bits == 1) | (lengths <= self.params.buffer_threshold), owner)
        return bits, lengths, owner, first, last

    def inner_symbols(self, bits: np.ndarray, lengths: np.ndarray, first: np.ndarray,
                      last: np.ndarray) -> np.ndarray:
        """The inner symbol of each window [first[i], last[i]) of runs of
        alternating bits, or -1 for an empty window. A window of at most
        _KEY_BITS runs is keyed by its run pattern (run_keys), a longer one by
        its thresholded string, and each distinct key is looked up in the memo
        once. Only the windows whose keys it lacks are thresholded, and
        decoded by inner_cb.decode in window order; each decoded window joins
        the memo while it holds fewer than _MEMO_CAP decoded windows."""
        symbols = np.full(first.size, -1, np.int64)
        nonempty = np.flatnonzero(last > first)
        at, size = first[nonempty], last[nonempty] - first[nonempty]
        keys = run_keys(lengths > self.params.T, at, size.clip(max=_KEY_BITS), bits[at])
        long = size > _KEY_BITS  # each is its own stand-in key: no run key has bit 62
        keys[long] = nonempty[long] | 1 << 62
        keys, inverse = np.unique(keys, return_inverse=True)
        keys = keys.tolist()
        found = list(map(self._memo.get, keys))
        window = np.flatnonzero(np.array([symbol is None for symbol in found], bool)[inverse])
        if window.size:  # else the memo knew every key
            sizes = size[window]
            ends = np.cumsum(sizes)
            runs = np.repeat(last[nonempty[window]] - ends, sizes)  # each run of those windows
            runs += np.arange(runs.size)
            text, offsets = threshold_text(bits[runs], lengths[runs], self.params.T)
            cuts = offsets[np.append(0, ends)].tolist()
            cap = _MEMO_CAP + len(set(self.inner_cb.codewords))  # decoded windows + codewords
            for i, a, b in zip(inverse[window].tolist(), cuts, cuts[1:]):
                key = text[a:b] if keys[i] >> 62 == 1 else keys[i]
                found[i] = self._memo.get(key)  # an earlier window's, or a longer window's string
                if found[i] is None:
                    found[i] = self.inner_cb.decode(text[a:b])
                    if len(self._memo) < cap:
                        self._memo[key] = found[i]
        symbols[nonempty] = np.array(found, np.int64)[inverse]
        return symbols


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
    o = orig[:, coded].reshape(-1, p.inner.profile.r1 + p.inner.profile.r2)  # a codeword a row
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
    run lengths of that buffer and block, table[1, s] their original lengths,
    as RUN_DTYPE."""
    return np.insert(np.asarray(blocks, RUN_DTYPE), 0, [B, 0], axis=-1).swapaxes(0, 1).copy()


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


def run_keys(flags: np.ndarray, first: np.ndarray, size: np.ndarray, lead) -> np.ndarray:
    """The run-pattern key of each window of size[i] runs (1 to _KEY_BITS)
    from run first[i], whose first bit is lead[i]: bit j set where
    flags[first[i] + j] (run j is a 2-run), bit size[i] set, and bit 63 set
    where lead[i] is 1."""
    packed = np.append(np.packbits(flags, bitorder="little"), np.zeros(8, np.uint8))
    words = np.ndarray(packed.size - 7, "<u8", packed, strides=(1,))  # one at each byte
    top = np.uint64(1) << np.asarray(size, np.uint64)
    keys = (words[first >> 3] >> (first & 7).astype(np.uint64)) & (top - np.uint64(1))
    return keys | top | np.asarray(lead, np.uint64) << np.uint64(63)


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
    kinds = {**PARAM_KEYS, "seed": nonnegative, "codebook": str, "outercode": str}
    fields = read_fields(path, kinds)
    values = {key: fields[key] for key in PARAM_KEYS}  # a missing key already names the file
    inner_cb = InnerCodebook.load(base / fields["codebook"])
    outer = OuterCode.load(base / fields["outercode"])
    try:  # the descriptor's parameters, and their agreement with the code files' headers
        return Scheme(params_from_fields(values), inner_cb.truncate(values["q"]), outer)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
