"""Slow reference implementations the package no longer runs, kept for the
tests to compare its fast paths against."""

from itertools import combinations

import numpy as np

from delchan.scheme import _KEY_BITS
from delchan.strings import (
    SProfile,
    bits_of,
    enumerate_S,
    in_S,
    lcs_len,
    runs_of,
    sequence_lcs_len,
)

_WORD = (1 << 64) - 1


def scalar_inner_decode(codewords, window: str) -> int:
    """InnerCodebook.decode one codeword at a time: the index of the longest
    LCS with the window, ties to the smallest index."""
    lcs = [lcs_len(c, window) for c in codewords]
    return lcs.index(max(lcs))


def edit_distance(a: str, b: str) -> int:
    """Insertion/deletion edit distance: |a| + |b| - 2*LCS(a, b)."""
    return len(a) + len(b) - 2 * lcs_len(a, b)


def window_key(window: str):
    """Oracle for scheme.run_keys, from a thresholded window: its string if
    it has more than _KEY_BITS runs; else bit j set where run j is a 2-run,
    bit (number of runs) set, and bit 63 set if it starts with a 1."""
    runs = [length for _, length in runs_of(window)]
    if len(runs) > _KEY_BITS:
        return window
    pattern = sum(1 << j for j, length in enumerate(runs) if length == 2)
    return pattern | 1 << len(runs) | int(window[0]) << 63


def is_subsequence(sub: str, s: str) -> bool:
    """Greedy left-to-right subsequence test."""
    it = iter(s)
    return all(c in it for c in sub)


def insertion_ball_bruteforce(s_sub: str, target: SProfile) -> set[str]:
    """Oracle for inner.embed_all: filter the full family by the subsequence test.

    Desk-scale only; refuses target lengths above 15.
    """
    if target.m > 15:
        raise ValueError("brute-force insertion ball limited to m <= 15")
    if not in_S(s_sub):
        raise ValueError(f"{s_sub!r} is not in S")
    return {s for s in enumerate_S(target) if is_subsequence(s_sub, s)}


def lane_masks_by_row(rows: np.ndarray, q: int) -> np.ndarray:
    """Oracle for strings.lane_masks: for each symbol, each row's matches read
    as one int, bit i set where the row holds the symbol at position i, split
    into 64-bit words."""
    count, n = rows.shape
    words = max(1, -(-n // 64))
    patterns = np.zeros((q, count), object)
    for j, row in enumerate(rows.tolist()):
        for i, s in enumerate(row):
            patterns[s, j] |= 1 << i
    flat = ((x >> 64 * w) & _WORD for x in patterns.flat for w in range(words))
    return np.fromiter(flat, np.uint64, q * count * words).reshape(q, count, words)


def greedy_by_pairs(rows, threshold: int) -> list[int]:
    """Oracle for strings.greedy: each row against the kept rows one at a
    time, in order; a row is dropped by the first kept row within threshold."""
    by: list[int] = []
    for i, row in enumerate(rows):
        kept = (j for j, k in enumerate(by) if j == k)
        by.append(next((j for j in kept if sequence_lcs_len(rows[j], row) >= threshold), i))
    return by


def enumerate_S_by_runs(profile: SProfile) -> list[str]:
    """Oracle for strings.enumerate_S: each string built from its run list."""
    k = profile.num_runs
    out = []
    for two_positions in combinations(range(k), profile.r2):
        twos = set(two_positions)
        runs = [(1 - (i % 2), 2 if i in twos else 1) for i in range(k)]
        out.append(bits_of(runs))
    out.sort()
    return out
