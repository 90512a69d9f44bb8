"""Run-length utilities for binary strings and the constrained 1-/2-run
family, enumerated as rows of bits in lexicographic order; LCS kernels on
integer symbol arrays (a code is a (count, n) array of symbols in [0, q)),
their match masks (a uint32 word a lane of up to 32 symbols, uint64 words
above) and the one greedy pass, a group of rows per rows x lanes LCS pass,
which builds and validates both codes; and the one key=value reader behind
descriptors, configs and code-file headers."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import comb
from pathlib import Path

import numpy as np

_PAIRS = 1 << 12  # rows x lanes of one lcs_rows pass in greedy

# A run is a (bit, length) pair; adjacent runs alternate bits, length >= 1.
Run = tuple[int, int]


def runs_of(s: str) -> list[Run]:
    """Decompose a binary string into its maximal runs of equal bits."""
    return [(int(c), len(list(group))) for c, group in groupby(s)]


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
    """The bits of length-n binary strings as one (count, n) array."""
    return (np.frombuffer("".join(strings).encode("ascii"), np.uint8) - 48).reshape(-1, n)


def bit_runs(s: str) -> tuple[np.ndarray, np.ndarray]:
    """The bit and the length of each maximal run of the binary string s."""
    chars = np.frombuffer(s.encode("ascii", "replace"), np.uint8) - 48
    if (chars > 1).any():
        raise ValueError("received string must be binary")
    starts = np.flatnonzero(np.diff(chars, prepend=2))  # where each run starts
    return chars[starts], np.diff(np.append(starts, chars.size))


def lane_masks(rows: np.ndarray, q: int) -> np.ndarray:
    """Match masks for lcs_lanes of a (count, n) array of symbols in [0, q):
    bit i of masks[s, j] is set iff rows[j, i] == s. Lanes of n <= 32
    symbols take one uint32 word, longer lanes uint64 words, bit i % 64 of
    word i // 64."""
    count, n = rows.shape
    size = 4 if n <= 32 else 8 * -(-n // 64)  # bytes of one lane
    packed = np.zeros((q, count, size), np.uint8)
    for s in range(q):
        packed[s, :, : -(-n // 8)] = np.packbits(rows == s, axis=1, bitorder="little")
    return packed.view("<u4" if n <= 32 else "<u8")


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
    return n - np.bitwise_count(v & full).sum(axis=1, dtype=np.int64).reshape(len(rows), lanes)


def lcs_lanes(a, masks: np.ndarray, n: int) -> np.ndarray:
    """lcs_rows of the one symbol sequence a."""
    return lcs_rows(np.asarray(a, np.int64).reshape(1, -1), masks, n)[0]


def greedy(rows: np.ndarray, q: int, threshold: int) -> np.ndarray:
    """The greedy pass over a (count, n) array of symbols in [0, q): a row is
    kept unless its LCS with a kept row reaches threshold. For each row, the
    kept row that first dropped it, or the row itself if it was kept. Each
    lcs_rows pass takes the first g alive rows, g <= max(1, _PAIRS / alive),
    doubled after a group kept whole, else 1: neighbours often drop each other."""
    masks, by, index = lane_masks(rows, q), np.arange(len(rows)), np.arange(len(rows))
    grow = 1
    while index.size:
        g = max(1, min(index.size, grow, _PAIRS // index.size))
        close = lcs_rows(rows[index[:g]], masks, rows.shape[1]) >= threshold
        for i in range(g):  # row j is alive while by[j] == j
            if by[index[i]] == index[i]:  # kept: it drops the later alive rows close to it
                later = index[i + 1 :][close[i, i + 1 :]]
                by[later[by[later] == later]] = index[i]
        grow = 2 * grow if (by[index[:g]] == index[:g]).all() else 1
        alive = ~close[by[index[:g]] == index[:g], g:].any(axis=0)  # no kept row is close
        index, masks = index[g:][alive], np.compress(alive, masks[:, g:], axis=1)
    return by


def first_close_pair(rows: np.ndarray, q: int, threshold: int) -> tuple[int, int] | None:
    """(i, j): the first kept row of greedy's pass to drop rows, and the first it drops; or None."""
    by = greedy(rows, q, threshold).tolist()
    i = min((k for j, k in enumerate(by) if k != j), default=None)
    return None if i is None else (i, by.index(i, i + 1))


def in_S(s: str) -> bool:
    """Membership in S: binary, starts and ends with 1, runs of length 1 or 2 only."""
    return s[:1] == s[-1:] == "1" and set(s) <= {"0", "1"} and "000" not in s and "111" not in s


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

    @classmethod
    def of(cls, s: str) -> "SProfile":
        """Profile of a string already in S."""
        if not in_S(s):
            raise ValueError(f"{s!r} is not in S")
        runs = runs_of(s)
        r1 = sum(1 for _, ln in runs if ln == 1)
        return cls(len(s), r1, len(runs) - r1)


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
        try:
            fields[key] = kinds[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}: key {key!r}: {exc}") from None
    return fields


def read_code_file(path: str | Path, keys: tuple[str, ...]) -> tuple[list[int], list[str]]:
    """The integer value of each of keys, in order, from a code file's header
    line (key=value pairs after its two-word tag, e.g. "innercode v1"), and
    the lines after it."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty code file")
    fields = read_fields(path, dict.fromkeys(keys, int), lines[0].split()[2:])
    return [fields[key] for key in keys], lines[1:]
