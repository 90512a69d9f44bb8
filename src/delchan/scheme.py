"""Concatenated encoding pipeline and threshold decoder, on run arrays.

Encoding: outer encode a message to n symbols, map each symbol to an inner
codeword, blow each 1-run up to N1 bits and each 2-run up to N2 bits, and
join the n blocks with zero buffers of length B. A Scheme derives these
lengths from its parameters, so that after the channel a 1-run's expected
survivor count is M1, a 2-run's is M2, and a buffer's is M_B * m. A Layout
holds the transmission as run classes (0 for a buffer, else the run's length
before the blow-up) and the three run lengths: codewords start and end with
1 and buffers are 0, so runs alternate. The channel draws one survivor count
per run of the Layout, from one word per run, in run order.

Decoding (decode_block: the (trials, runs) arrays of a block of receptions,
in one pass, returning the decoded messages only): put a separator run after
each row (separated; bits are 0 and 1, and 2 and 3 mark separators only),
drop vanished runs and add the few runs that then follow a run of their own
bit into it, split on separators and on zero runs longer than the buffer
threshold, and give each window its inner symbol (inner_symbols) from one
memo: a sorted table of run keys, each a window's run pattern (`length > T`
of each run, its run count and first bit), and their symbols. A block's run
keys are searched for in it at once; only a window whose key the table lacks,
or of more than _KEY_BITS runs (which has no run key and is never held), is
thresholded to a string and decoded by InnerCodebook.decode. Each row's
symbols (however many) go to OuterCode.decode_rows, which decodes only the
rows that are no codeword. decode() and decode_with_trace() read a string
into runs (bit_runs, the one run reader, which like a Layout gives bits 0 and
1 only) and decode it as a block of one; only decode_with_trace builds a
DecodeTrace. window_spans and threshold_decode, which reads its window with
bit_runs too, are the string reference of its first steps.

Classification is separate from decoding: classify() scores a block Layout
(one gather from the scheme's run_table) straight from its run arrays and
per-run survivors, the ground truth a decoder never sees, and returns each
codeword's distortion X and the summed error-event counts; its codewords'
runs are separated as a block's rows are.

A descriptor (save_scheme, load_scheme) holds the PARAM_KEYS, the seed and
the two code-file names, one key=value per line, read by strings.read_fields.
A Scheme refuses codes whose parameters differ from the descriptor's, and
load_scheme an outer code built with a seed other than the descriptor's.
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
from .strings import SProfile, bit_runs, naming, nonnegative, read_fields

# Windows one scheme's inner-decode memo holds at most, to bound its memory.
_MEMO_CAP = 1 << 12
# Runs a run-pattern key covers: a key is read as one 64-bit word from the
# byte holding its first bit, which may be that byte's bit 7.
_KEY_BITS = 57
# The memo's last key, above every run key, so a search always lands in it.
_SENTINEL = 2**64 - 1

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
        B = self.channel.run_length(self.M_B * self.inner.m)
        if B < 1:  # ceil_snapped rounds a tiny M_B * m / mu down to 0
            raise ValueError("buffer length must be at least 1")
        # The run arrays hold RUN_DTYPE lengths; on the BDC a merged run holds at most a row's bits.
        prof = self.inner.profile
        row = self.outer.n * (prof.r1 * N1 + prof.r2 * N2 + B) + B
        if max(N2, row) > np.iinfo(RUN_DTYPE).max:
            raise ValueError("N2 and a row's bits must stay below 2**31")

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

    @cached_property
    def probs(self) -> ProbReport:
        """Exact run-transition probabilities at N1, N2 and T."""
        prof = self.params.inner.profile
        return transition_probs(self.params.channel, self.N1, self.N2, self.params.T,
                                prof.r1 / prof.m)

    @cached_property
    def run_table(self) -> tuple[np.ndarray, tuple[int, int, int]]:
        """The table lay_out gathers this scheme's layouts from (see run_table)."""
        return run_table(self.inner_cb.codewords, self.B, self.N1, self.N2)

    @cached_property
    def _memo(self) -> list[np.ndarray]:
        """The run keys whose inner symbols are held (see inner_symbols), in
        ascending order and ending in _SENTINEL, and those symbols."""
        return [np.array([_SENTINEL], np.uint64), np.array([-1], np.int64)]

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
        bits, lengths, first, last = self._windows(*(a[None] for a in bit_runs(received)))
        symbols = self.inner_symbols(bits, lengths, first, last).tolist()
        text, offsets = threshold_text(bits, lengths, self.params.T)
        pos = np.concatenate(([0], np.cumsum(lengths)))
        spans = list(zip(pos[first].tolist(), pos[last].tolist()))
        outputs = [text[a:b] for a, b in zip(offsets[first].tolist(), offsets[last].tolist())]
        return self.outer.decode(symbols), DecodeTrace(spans, outputs, symbols)

    def decode_block(self, bits: np.ndarray, lengths: np.ndarray) -> list[int]:
        """The decoded message of each row of a block of receptions: row i of
        the (trials, runs) arrays holds lengths[i, j] copies of bits[i, j] (0
        or 1) for each run j (runs of length 0 and same-bit neighbours may
        occur). One pass over all their runs, with a separator run after each
        row (separated), so runs of two rows never merge and no window spans
        two; each row's windows end at its separator."""
        bits, lengths, first, last = self._windows(bits, lengths)
        symbols = tuple(self.inner_symbols(bits, lengths, first, last).tolist())
        ends = first.searchsorted((bits > 1).nonzero()[0]).tolist()  # windows before each separator
        return self.outer.decode_rows([symbols[a:b] for a, b in zip([0, *ends], ends)])

    def _windows(self, bits: np.ndarray, lengths: np.ndarray):
        """The merged runs of a block of receptions (see decode_block), each
        row's followed by its separator, and [first, last) of each window: a
        stretch of runs between zero runs longer than the buffer threshold
        and separators."""
        threshold = self.params.buffer_threshold
        bits, lengths = merge_runs(*separated(bits, lengths, threshold))
        first, last = segments((bits != 1) & (lengths > threshold))
        return bits, lengths, first, last

    def inner_symbols(self, bits: np.ndarray, lengths: np.ndarray, first: np.ndarray,
                      last: np.ndarray) -> np.ndarray:
        """The inner symbol of each window [first[i], last[i]) of runs of
        alternating bits, or -1 for an empty window. A window of at most
        _KEY_BITS runs is keyed by its run pattern (run_keys) and looked up in
        the memo's sorted keys with one searchsorted. Only the windows whose
        keys the memo lacks, and the longer windows, are thresholded; each
        distinct key among them, and each longer window, is decoded by
        inner_cb.decode once, in window order. The first new run keys join
        the memo while it holds fewer than _MEMO_CAP keys; a longer window
        never does."""
        symbols = np.full(first.size, -1, np.int64)
        nonempty = (last > first).nonzero()[0]
        at, size = first[nonempty], last[nonempty] - first[nonempty]
        keys = run_keys(lengths > self.params.T, at, np.minimum(size, _KEY_BITS), bits[at])
        keys[size > _KEY_BITS] = 1 << 62  # in no memo: no run key has bit 62
        held, held_symbols = self._memo
        place = held.searchsorted(keys)
        found = held_symbols[place]
        missed = (held[place] != keys).nonzero()[0]
        if missed.size:  # the windows of keys the memo lacks, and every longer window
            sizes = size[missed]
            ends = np.cumsum(sizes)
            runs = np.repeat(last[nonempty[missed]] - ends, sizes)  # each run of those windows
            runs += np.arange(runs.size)
            text, offsets = threshold_text(bits[runs], lengths[runs], self.params.T)
            cuts = offsets[ends].tolist()
            new = {}  # each distinct key's symbol, in window order
            for i, key, a, b in zip(missed.tolist(), keys[missed].tolist(), [0, *cuts], cuts):
                if key not in new or key == 1 << 62:  # a longer window is decoded every time
                    new[key] = self.inner_cb.decode(text[a:b])
                found[i] = new[key]
            new.pop(1 << 62, None)  # and never held
            join = sorted(list(new)[:_MEMO_CAP + 1 - held.size])
            if join:  # the first new run keys, while the memo has room
                spots = held.searchsorted(np.array(join, np.uint64))  # int64 would compare as float
                self._memo[:] = (np.insert(held, spots, join),
                                 np.insert(held_symbols, spots, [new[key] for key in join]))
        symbols[nonempty] = found
        return symbols


@dataclass(frozen=True, eq=False)
class Layout:
    """A transmission as run classes: run i was a run of orig[i] (1 or 2) bits
    before the blow-up, or is a buffer if orig[i] is 0; its lengths[i] =
    run_lengths[orig[i]] bits of the scheme's (B, N1, N2), built when read,
    follow those of run i - 1. Runs alternate in bit,
    from 1 if the first run is a codeword's, or 0 for a buffer. A block holds
    a transmission per row of orig, so orig == 0 marks its buffers, at the same
    runs in every row; one channel word per run, in run order; symbols as given."""

    symbols: np.ndarray | tuple
    orig: np.ndarray
    run_lengths: tuple[int, int, int]

    def __len__(self) -> int:
        """Transmitted bits."""
        return int(self.lengths.sum())

    @cached_property
    def lengths(self) -> np.ndarray:
        return np.asarray(self.run_lengths, RUN_DTYPE)[self.orig]

    @cached_property
    def run_bits(self) -> np.ndarray:
        """Each run's bit: one row, a read-only view over a block's rows."""
        lead = self.orig.size and self.orig.item(0) > 0
        row = np.empty(self.orig.shape[-1], np.uint8)
        row[::2], row[1::2] = lead, 1 - lead
        strides = (0,) * (self.orig.ndim - 1) + (1,)
        view = np.ndarray(self.orig.shape, np.uint8, row, strides=strides)
        view.setflags(write=False)
        return view

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
             counts: np.ndarray) -> tuple[np.ndarray, dict[str, int]]:
    """Every codeword's distortion X, in row order (an int64 array), and the
    summed error-event counts of a block of transmissions: its layout (one
    transmission is a block of one row) and the survivors of each run
    (counts[i, j] bits of run j of row i reached the receiver), the ground
    truth a decoder never sees. The rows share their buffer runs, so row 0
    shows which runs are codewords'.

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
    if np.shape(counts) != layout.orig.shape:
        raise ValueError("counts length does not match input length")
    orig, z = np.atleast_2d(layout.orig, counts)
    coded = orig[:1].any(axis=0)  # the runs of codewords, not buffers (none if no rows)
    o = orig[:, coded].reshape(-1, p.inner.profile.r1 + p.inner.profile.r2)  # a codeword a row
    zc = z[:, coded].reshape(o.shape)
    after = np.empty_like(o)  # the next run, then a buffer or nothing
    after[:, :-1], after[:, -1] = o[:, 1:], 2
    cost = np.where(zc == 0, o + after, (zc > p.T) != (o == 2))
    events["deleted_buffer"] = int(np.count_nonzero(z[:, ~coded] <= p.buffer_threshold))
    bits = np.atleast_2d(layout.run_bits)[:, coded].reshape(o.shape)
    w_bits, w_lengths = merge_runs(*separated(bits, zc, p.buffer_threshold))
    edge = w_bits > 1  # the separator after each codeword's runs
    keep = w_bits != 0  # each codeword's edge zeros stripped: a 0 stays only inside
    keep[1:-1] |= ~(edge[:-2] | edge[2:])
    w_bits, w_lengths = w_bits[keep], w_lengths[keep]
    spurious = (w_bits == 0) & (w_lengths > p.buffer_threshold)
    events["spurious_buffer"] = int(np.count_nonzero(spurious))
    last = (w_bits > 1).nonzero()[0]  # a codeword's runs end at its separator
    first = np.concatenate(([0], last + 1))[:-1]
    found = scheme.inner_symbols(w_bits, w_lengths, first, last)
    events["wrong_inner_decode"] = int(np.count_nonzero(found != np.ravel(layout.symbols)))
    return cost.sum(axis=1, dtype=np.int64), events


def run_table(codewords, B: int, N1: int, N2: int) -> tuple[np.ndarray, tuple[int, int, int]]:
    """What lay_out gathers from an InnerCodebook's codewords (in S, so their runs
    alternate from 1 to 1 across buffers, all of one run count): row s holds a buffer's 0
    and the original lengths (1 or 2) of the runs of codeword s, as int8; and the run
    lengths after the blow-up, (B, N1, N2), of a buffer, a 1-run and a 2-run."""
    return np.array([[0, *bit_runs(c)[1].tolist()] for c in codewords], np.int8), (B, N1, N2)


def lay_out(symbols, table, *, edge_buffers: bool = False) -> Layout:
    """Join the blown-up blocks of the symbols with zero buffers, from a
    run_table; edge_buffers adds one more buffer before the first block and
    after the last. A (trials, n) array of symbols gives a block of trials
    layouts, zero rows included."""
    orig, run_lengths = table
    index = np.asarray(symbols, np.intp)
    runs = orig[index].reshape(*index.shape[:-1], index.shape[-1] * orig.shape[-1])
    runs = np.concatenate((runs, runs[..., :1]), axis=-1) if edge_buffers else runs[..., 1:]
    return Layout(symbols, runs, run_lengths)


def separated(bits: np.ndarray, lengths: np.ndarray, threshold: int):
    """The runs of a block's rows, given as (rows, runs) arrays of bits 0 and
    1 and their lengths, back to back, each row followed by a separator run:
    of bit 2 or 3, in turn, so that no two separators merge, and threshold + 1
    long, so that no separator joins a window split at the buffer threshold."""
    rows, runs = lengths.shape
    out_bits = np.empty((rows, runs + 1), bits.dtype)
    out_bits[:, :-1] = bits
    out_bits[::2, -1], out_bits[1::2, -1] = 2, 3
    out_lengths = np.empty(out_bits.shape,
                           np.promote_types(lengths.dtype, np.min_scalar_type(threshold + 1)))
    out_lengths[:, :-1] = lengths
    out_lengths[:, -1] = threshold + 1
    return out_bits.reshape(-1), out_lengths.reshape(-1)


def merge_runs(bits: np.ndarray, lengths: np.ndarray):
    """Drop the runs of length 0 and merge the same-bit neighbours they leave;
    return the merged bits and lengths. Bits are 0 and 1, or 2 and 3 for the
    separators between rows (separated), which never merge. Only the few
    runs that follow a run of their own bit are added into the run that
    heads their chain."""
    keep = lengths > 0
    bits, lengths = bits[keep], lengths[keep]
    later = (bits[1:] == bits[:-1]).nonzero()[0] + 1
    # a chain of later runs is headed by the run just before its first one
    head = later - 1
    head[1:][head[1:] == later[:-1]] = 0
    np.maximum.accumulate(head, out=head)
    np.add.at(lengths, head, lengths[later])
    lengths[later] = 0  # added into their heads
    alone = lengths > 0
    return bits[alone], lengths[alone]


def segments(breaks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[first, last) of each nonempty stretch between the True items of
    breaks, whose last item is True (a separator's, say)."""
    last = breaks.nonzero()[0]
    first = np.concatenate(([0], last + 1))[:-1]
    nonempty = last > first
    return first[nonempty], last[nonempty]


def run_keys(flags: np.ndarray, first: np.ndarray, size: np.ndarray, lead) -> np.ndarray:
    """The run-pattern key of each window of size[i] runs (1 to _KEY_BITS)
    from run first[i], whose first bit is lead[i]: bit j set where
    flags[first[i] + j] (run j is a 2-run), bit size[i] set, and bit 63 set
    where lead[i] is 1."""
    packed = np.concatenate((np.packbits(flags, bitorder="little"), np.zeros(8, np.uint8)))
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
    """Map each run to a 2-run if longer than T, else a 1-run; a non-binary
    window is refused, as Scheme.decode refuses it."""
    if T < 1:
        raise ValueError("threshold T must be at least 1")
    runs = zip(*(a.tolist() for a in bit_runs(window)))
    return "".join(str(b) * (2 if ln > T else 1) for b, ln in runs)


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
    if seed != scheme.outer.seed:  # load_scheme would refuse the descriptor
        raise ValueError(f"seed={seed} but the outer code was built with seed={scheme.outer.seed}")
    fields = params_to_fields(scheme.params)
    fields.update(seed=seed, codebook=codebook_path, outercode=outer_path)
    Path(path).write_text("".join(f"{key}={value}\n" for key, value in fields.items()))


def load_scheme(path: str | Path) -> Scheme:
    base = Path(path).parent
    kinds = {**PARAM_KEYS, "seed": nonnegative, "codebook": str, "outercode": str}
    fields = read_fields(path, kinds)
    values = {key: fields[key] for key in (*PARAM_KEYS, "seed")}  # a missing key names the file
    inner_cb = InnerCodebook.load(base / fields["codebook"])
    outer = OuterCode.load(base / fields["outercode"])
    with naming(path):  # the descriptor's parameters, and their agreement with the code files
        if values["seed"] != outer.seed:
            raise ValueError(f"seed={values['seed']} but the outer code was built"
                             f" with seed={outer.seed}")
        return Scheme(params_from_fields(values), inner_cb.truncate(values["q"]), outer)
