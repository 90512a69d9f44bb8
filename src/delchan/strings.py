"""Run-length utilities for binary strings and the constrained 1-/2-run family,
LCS kernels, and the one key=value reader behind scheme descriptors,
experiment configs and the inner and outer code-file headers."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby
from math import comb
from pathlib import Path

import numpy as np

_WORD = (1 << 64) - 1

# A run is a (bit, length) pair; adjacent runs alternate bits, length >= 1.
Run = tuple[int, int]


def runs_of(s: str) -> list[Run]:
    """Decompose a binary string into its maximal runs of equal bits."""
    return [(int(c), len(list(group))) for c, group in groupby(s)]


def bits_of(runs: list[Run]) -> str:
    """Inverse of runs_of."""
    return "".join(str(b) * ln for b, ln in runs)


def lcs_len(a: str, b: str) -> int:
    """LCS length of two binary strings, via bit-parallel DP."""
    if not a or not b:
        return 0
    n = len(b)
    mask = (1 << n) - 1
    m1 = int(b[::-1], 2)
    m0 = m1 ^ mask
    v = mask
    for c in a:
        p = (m1 if c == "1" else m0) & v
        v = ((v + p) | (v - p)) & mask
    return n - bin(v).count("1")


def sequence_lcs_len(a, b) -> int:
    """lcs_len generalized to sequences of hashable symbols."""
    if not a or not b:
        return 0
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


def lane_masks(rows, q: int, n: int) -> np.ndarray:
    """Match masks for lcs_lanes. Each row is a length-n string of the digits
    chr(48) .. chr(47 + q); bit i of masks[s, j] is set iff rows[j][i] is digit
    s. Masks are split into 64-bit words, lowest word first."""
    words = max(1, -(-n // 64))
    tables = [{48 + t: "01"[t == s] for t in range(q)} for s in range(q)]
    patterns = (int(row[::-1].translate(table), 2) for table in tables for row in rows)
    flat = ((x >> 64 * w) & _WORD for x in patterns for w in range(words))
    return np.fromiter(flat, np.uint64, q * len(rows) * words).reshape(q, len(rows), words)


def lcs_lanes(a, masks: np.ndarray, n: int) -> np.ndarray:
    """LCS length of the symbol sequence a with each length-n lane of masks
    (built by lane_masks), in one pass over a; symbols outside [0, len(masks))
    match nothing. As p is a subset of v, v - p is v ^ p, so only v + p carries
    between words, and carries past bit n never reach a lower bit."""
    words = masks.shape[2]
    full = np.fromiter((((1 << n) - 1 >> 64 * w) & _WORD for w in range(words)), np.uint64)
    v = np.tile(full, (masks.shape[1], 1))
    p, s = np.empty_like(v), np.empty_like(v)
    for sym in a:
        if not 0 <= sym < len(masks):
            continue
        np.bitwise_and(masks[sym], v, out=p)
        np.add(v, p, out=s)
        if words > 1:  # ripple the carries of v + p up the words
            carry = s < v
            for w in range(1, words):
                s[:, w] += carry[:, w - 1]
                carry[:, w] |= carry[:, w - 1] & (s[:, w] == 0)
        v ^= p
        v |= s
    return n - np.bitwise_count(v & full).sum(axis=1, dtype=np.int64)


def edit_distance(a: str, b: str) -> int:
    """Insertion/deletion edit distance: |a| + |b| - 2*LCS(a, b)."""
    return len(a) + len(b) - 2 * lcs_len(a, b)


def in_S(s: str) -> bool:
    """Membership in S: starts and ends with 1, runs of length 1 or 2 only."""
    return s[:1] == s[-1:] == "1" and all(ln <= 2 for _, ln in runs_of(s))


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


def enumerate_S(profile: SProfile) -> list[str]:
    """All strings with the given profile, in lexicographic order.

    Strings start and end with 1 and alternate bits; a string is determined
    by which of its runs have length 2.
    """
    k = profile.num_runs
    out = []
    for two_positions in combinations(range(k), profile.r2):
        twos = set(two_positions)
        runs = [(1 - (i % 2), 2 if i in twos else 1) for i in range(k)]
        out.append(bits_of(runs))
    out.sort()
    return out


class Fields(dict):
    """The typed fields of one key=value file; looking up an absent key is
    an error that names the file and the key."""

    def __init__(self, path: str | Path) -> None:
        super().__init__()
        self.path = path

    def __missing__(self, key: str):
        raise ValueError(f"{self.path}: missing key {key!r}")


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


def read_code_file(path: str | Path, keys: tuple[str, ...]) -> tuple[Fields, list[str]]:
    """The integer fields named by keys from a code file's header line
    (key=value pairs after its two-word tag, e.g. "innercode v1"), and the
    lines after it."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty code file")
    return read_fields(path, dict.fromkeys(keys, int), lines[0].split()[2:]), lines[1:]
