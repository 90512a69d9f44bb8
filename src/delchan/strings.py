"""The one run reader of binary strings (bit_runs); the constrained 1-/2-run family's
profile, enumerated as rows of bits in lexicographic order (inner.InnerCodebook holds the
one check of a string against it); LCS kernels on integer symbol arrays
(a code is a (count, n) array of symbols in [0, q)), their match masks (a uint32 word a
lane of up to 32 symbols, uint64 words above); the one greedy pass over a code's masks
alone, a block of rows per rows x lanes LCS pass, which builds both codes and, stopped at
its first drop, validates them, and its one work bound; the one key=value reader, behind
descriptors, configs and the code files, whose tagged headers it writes and checks; and
naming, the one rule by which a refusal names its file."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from math import comb
from pathlib import Path

import numpy as np

_PAIRS = 1 << 14  # rows x lanes of one lcs_rows pass in the greedy pass
_PACK_SYMBOLS = 1 << 16  # row symbols compared at a time in lane_masks
MAX_STEPS = 1 << 32  # word steps of a code load's pass or an outer chunk's (~5 s, 2-core x86)

def sequence_lcs_len(a, b) -> int:
    """LCS length of two sequences of hashable symbols, via bit-parallel DP."""
    n = len(b)
    mask = (1 << n) - 1
    masks: dict = {}
    for i, sym in enumerate(b):
        masks[sym] = masks.get(sym, 0) | (1 << i)
    v = mask
    for sym in a:
        p = masks.get(sym, 0) & v
        v = ((v + p) | (v - p)) & mask
    return n - bin(v).count("1")


lcs_len = sequence_lcs_len  # binary strings are sequences of "0" and "1"


def bit_rows(strings, n: int) -> np.ndarray:
    """The bits of length-n binary strings as one (count, n) array; a character
    other than 0 and 1 reads as a value above 1."""
    return (np.frombuffer("".join(strings).encode("ascii", "replace"), np.uint8)
            - 48).reshape(-1, n)


def bit_runs(s: str) -> tuple[np.ndarray, np.ndarray]:
    """The bit and the length of each maximal run of the binary string s."""
    chars = np.frombuffer(s.encode("ascii", "replace"), np.uint8) - 48
    if (chars > 1).any():
        raise ValueError("received string must be binary")
    starts = np.flatnonzero(np.diff(chars, prepend=2))  # where each run starts
    return chars[starts], np.diff(np.append(starts, chars.size))


def lane_masks(rows: np.ndarray, q: int) -> np.ndarray:
    """Match masks for lcs_rows of a (count, n) array of symbols in [0, q):
    bit i of masks[s, j] is set iff rows[j, i] == s. Lanes of n <= 32
    symbols take one uint32 word, longer lanes uint64 words, bit i % 64 of
    word i // 64. Rows are compared _PACK_SYMBOLS symbols at a time, so no
    (count, n) boolean is built beside the result; lane_symbols reads the
    rows back."""
    count, n = rows.shape
    size = 4 if n <= 32 else 8 * -(-n // 64)  # bytes of one lane
    packed = np.zeros((q, count, size), np.uint8)
    step = max(1, _PACK_SYMBOLS // n)
    for lo in range(0, count, step):
        chunk = rows[lo : lo + step]
        for s in range(q):
            packed[s, lo : lo + len(chunk), : -(-n // 8)] = np.packbits(
                chunk == s, axis=1, bitorder="little")
    return packed.view("<u4" if n <= 32 else "<u8")


def lane_symbols(masks: np.ndarray, n: int) -> np.ndarray:
    """The (count, n) symbols whose lane_masks are masks: at each position,
    the one plane whose bit is set. It unpacks q * count * n bytes, at most
    8 times the masks."""
    return np.unpackbits(masks.view(np.uint8), axis=2, count=n, bitorder="little").argmax(axis=0)


def lcs_rows(rows: np.ndarray, masks: np.ndarray, n: int) -> np.ndarray:
    """The (R, lanes) LCS lengths of each row of the (R, m) symbol array rows
    with each length-n lane of masks (built by lane_masks), in one pass over
    the columns, in the masks' word type; symbols outside [0, len(masks))
    match nothing, so they may pad ragged rows. As p is a subset of v, v - p
    is v ^ p, so only v + p carries between words, and carries past bit n
    never reach a lower bit: n = 32 needs no guard bit in a uint32."""
    q, lanes, words = masks.shape
    full = np.fromiter((((1 << n) - 1 >> 64 * w) % 2**64 for w in range(words)), masks.dtype)
    v = np.tile(full, (len(rows) * lanes, 1))  # row i's lane j at i * lanes + j
    p, s = np.empty_like(v), np.empty_like(v)
    if len(rows) == 1:  # AND the plane of each symbol, no gather
        planes = (masks[sym] for sym in rows[0].tolist() if 0 <= sym < q)
    else:
        outside = (rows < 0) | (rows >= q)
        if outside.any():  # plane q, which matches nothing, for those symbols
            masks, rows = np.concatenate([masks, 0 * masks[:1]]), np.where(outside, q, rows)
        planes = (masks[column].reshape(p.shape) for column in rows.T)
    for plane in planes:
        np.bitwise_and(plane, v, out=p)
        np.add(v, p, out=s)
        if words > 1:  # ripple the carries of v + p up the words
            carry = s < v
            for w in range(1, words):
                s[:, w] += carry[:, w - 1]
                carry[:, w] |= carry[:, w - 1] & (s[:, w] == 0)
        v ^= p
        v |= s
    del p, s  # the count below holds v and a lane's total alone
    v &= full
    left = np.bitwise_count(v).sum(axis=1, dtype=np.int64)
    return np.subtract(n, left, out=left).reshape(len(rows), lanes)


def greedy(masks: np.ndarray, n: int, threshold: int) -> np.ndarray:
    """The greedy pass over a code of length-n rows, given as its lane_masks
    (not changed): a row is kept unless its LCS with a kept row reaches
    threshold. For each row, the kept row that first dropped it, or itself."""
    by = np.arange(masks.shape[1], dtype=np.int32)
    for i, dropped in _drops(masks, n, threshold):
        by[dropped] = i
    return by


def first_close_pair(masks: np.ndarray, n: int, threshold: int) -> tuple[int, int] | None:
    """(i, j): the first row of the code of length-n rows with lane_masks masks
    whose LCS with a later row reaches threshold, and the first such row; or
    None. No row before i is close to a later row, so greedy keeps i and j is
    the first row it drops: the pass stops there."""
    return next(((int(i), int(rows[0])) for i, rows in _drops(masks, n, threshold)), None)


def _drops(masks: np.ndarray, n: int, threshold: int):
    """greedy's pass: each kept row close to a later row and the rows it drops
    (one or more at the first), in row order. Each lcs_rows pass runs the first
    max(1, _PAIRS / alive) alive rows, read from their masks, on the alive lanes."""
    index = np.arange(masks.shape[1], dtype=np.int32)  # the row of each alive lane
    while index.size:
        g = min(index.size, max(1, _PAIRS // index.size))
        close = lcs_rows(lane_symbols(masks[:, :g], n), masks, n) >= threshold
        close[:, :g] = np.triu(close[:, :g], 1)  # no row with itself or an earlier row
        if not close.any():  # no row dropped: a view of the later lanes
            index, masks = index[g:], masks[:, g:]
            continue
        alive = np.ones(index.size, bool)
        for i in np.flatnonzero(close.any(axis=1)):  # the rows close to a later row
            if alive[i]:  # kept: it drops the alive rows close to it, if any are left
                dropped = np.flatnonzero(close[i] & alive)
                alive[dropped] = False
                yield index[i], index[dropped]
        index, masks = index[g:][alive[g:]], _alive_lanes(masks[:, g:], alive[g:])


def _alive_lanes(masks: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """masks[:, alive], each lane one void element picked by a boolean of
    one byte a lane and plane, to save memory: np.compress builds an intp
    index a lane, as large as the masks (S(31, 15, 8)'s build peaked at 25.0
    MiB with it, 18.6 without)."""
    lanes = masks.view(f"V{masks.shape[2] * masks.itemsize}")[..., 0]
    kept = lanes[np.tile(alive, (len(lanes), 1))].view(masks.dtype)
    return kept.reshape(len(masks), -1, masks.shape[2])


@dataclass(frozen=True)
class SProfile:
    """Shape of a string in the constrained family: length m with exactly
    r1 runs of length 1 and r2 runs of length 2."""

    m: int
    r1: int
    r2: int

    def __post_init__(self) -> None:
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError("run counts must be nonnegative")
        if self.m != self.r1 + 2 * self.r2:
            raise ValueError(f"m={self.m} != r1 + 2*r2 = {self.r1 + 2 * self.r2}")
        if (self.r1 + self.r2) % 2 == 0:
            raise ValueError(
                "r1 + r2 must be odd (strings start and end with the same bit)"
            )

    @property
    def num_runs(self) -> int:
        return self.r1 + self.r2

    @property
    def count(self) -> int:
        """Size of the family: choose which runs have length 2."""
        return comb(self.num_runs, self.r1)


def enumerate_S(profile: SProfile) -> np.ndarray:
    """The bits of the strings with the given profile, in lexicographic
    order, as the rows of one (count, m) uint8 array.

    A string alternates runs from a 1-run; where two first differ in a run,
    length 1 sorts first for a 1-run and length 2 for a 0-run. So the rows
    sharing their first j runs split by run j's first choice, then its
    second, and all with t 2-runs in those runs end in one table of the
    later runs, built last run first in the first such block and copied
    into the others. Rows mark each 2-run's second character; character p
    is the bit of run p - c, c the marks up to p: 1 where p - c is even.
    """
    m, k, r2 = profile.m, profile.num_runs, profile.r2
    first: list[dict[int, int]] = [{0: 0}]  # first[j][t]: the first such block's first row
    blocks = []  # (first row of its table, run's length - 1, rows, the table's first column)
    for j in range(k):
        first.append({})
        for t, row in first[j].items():  # in the order of their rows
            for two in (j & 1, 1 - (j & 1)):  # run j's first choice, then its second
                a = r2 - t - two  # the 2-runs after run j
                end = row + (comb(k - j - 1, a) if a >= 0 else 0)
                if row < end:
                    src = first[j + 1].setdefault(t + two, row)
                    blocks.append((src, two, row, end, m - (k - j - 1) - a))
                row = end
    rows = np.zeros((profile.count, m), np.uint8)
    for src, two, lo, hi, left in reversed(blocks):  # the later runs' tables first
        if src != lo:
            rows[lo:hi, left:] = rows[src : src + hi - lo, left:]
        if two:
            rows[lo:hi, left - 1] = 1
    np.bitwise_xor.accumulate(rows, axis=1, out=rows)  # c's parity
    rows ^= (1 ^ np.arange(m) & 1).astype(np.uint8)
    return rows


class Fields(dict):
    """The typed fields of one key=value file; looking up an absent key is
    an error that names the file and the key."""

    def __init__(self, path: str | Path) -> None:
        super().__init__()
        self.path = path

    def __missing__(self, key: str):
        raise ValueError(f"{self.path}: missing key {key!r}")


def nonnegative(text: str) -> int:
    """An integer value that must not be negative, such as a seed."""
    value = int(text)
    if value < 0:
        raise ValueError(f"{value} is negative")
    return value


def read_fields(path: str | Path, kinds: dict, pairs=None) -> Fields:
    """The key=value pairs of a file, each value converted by kinds[key].

    Without pairs, every line of the file is a pair, except blank lines and
    lines starting with #; whitespace around keys and values is dropped. A
    later pair overrides an earlier key. An unknown key, a pair without "=",
    a malformed value and a missing key that is looked up are errors naming
    the file (and the key).
    """
    if pairs is None:
        lines = (line.strip() for line in Path(path).read_text().splitlines())
        pairs = [line for line in lines if line and not line.startswith("#")]
    fields = Fields(path)
    for pair in pairs:
        key, eq, value = (part.strip() for part in pair.partition("="))
        if not eq:
            raise ValueError(f"{path}: expected key=value, got {pair!r}")
        if key not in kinds:
            raise ValueError(f"{path}: unknown key {key!r}")
        with naming(f"{path}: key {key!r}"):
            fields[key] = kinds[key](value)
    return fields


@contextmanager
def naming(path: str | Path):
    """Re-raises a ValueError or OverflowError (a value past a float's range) of its
    block as a ValueError that names path, the file at fault."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def refuse_long_pass(count: int, n: int, q: int) -> None:
    """Raises if a greedy pass over count codewords of n symbols in [0, q) passes MAX_STEPS."""
    steps = count * n * (count * -(-n // 64) + q)  # full pass: n columns x count lanes, q planes
    if steps > MAX_STEPS:  # past a float's range, the estimate is the power of 2 at or below it
        about = f"{steps:.3g}" if steps.bit_length() < 1024 else f"2**{steps.bit_length() - 1}"
        raise ValueError(f"{count} codewords of {n} symbols take about {about} word steps"
                         f" in a greedy pass, over {MAX_STEPS:.3g}")


def write_code_file(path: str | Path, tag: str, fields: dict[str, int], lines) -> None:
    """A code file: a header line of tag (its kind and version, e.g.
    "innercode v1") and the key=value fields, then one line each of lines."""
    header = " ".join([tag, *(f"{key}={value}" for key, value in fields.items())])
    Path(path).write_text("".join(line + "\n" for line in [header, *lines]))


def read_code_file(path: str | Path, tag: str, keys: tuple) -> tuple[list[int], list[str]]:
    """Each of keys' integer value, in order, from the header of a code file written with
    tag, and the lines after it; a header that does not start with tag is refused."""
    lines = Path(path).read_text().splitlines()
    words = lines[0].split() if lines else []  # an empty file has no tag
    if words[:2] != tag.split():
        raise ValueError(f"{path}: header must start with {tag!r}, got {' '.join(words[:2])!r}")
    fields = read_fields(path, dict.fromkeys(keys, int), words[2:])
    return [fields[key] for key in keys], lines[1:]
