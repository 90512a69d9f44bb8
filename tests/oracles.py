"""Slow reference implementations the package no longer runs, kept for the
tests to compare its fast paths against, each written once here: a
string's runs as a list and their inverse, membership in S and a string's
profile (InnerCodebook checks both on its bit rows), edit distance on
strings and symbol sequences, a run's survivors from per-bit counts, one
survivors draw per run, the pairwise greedy loop and the first close pair
it drops, the scalar inner decode, a window's run key and the run-by-run
family. Also the insertion/deletion ball machinery (embed_all,
deletion_ball_bound) that only the tests use, a reader of a scheme's
inner-decode memo, and a stand-in generator that feeds chosen words to
the channel's draws."""

from itertools import combinations, groupby
from math import comb
from types import SimpleNamespace

import numpy as np

from delchan.inner import InnerParams
from delchan.scheme import _KEY_BITS
from delchan.strings import SProfile, lcs_len, sequence_lcs_len

_WORD = (1 << 64) - 1


def fed(words: np.ndarray) -> SimpleNamespace:
    """A stand-in generator whose bit_generator.random_raw returns words,
    whatever size it is asked for."""
    return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=lambda size: words))


# A run is a (bit, length) pair; adjacent runs alternate bits, length >= 1.
Run = tuple[int, int]


def runs_of(s: str) -> list[Run]:
    """Decompose a binary string into its maximal runs of equal bits: the
    list form of strings.bit_runs."""
    return [(int(c), len(list(group))) for c, group in groupby(s)]


def bits_of(runs: list[Run]) -> str:
    """Inverse of runs_of."""
    return "".join(str(b) * ln for b, ln in runs)


def in_S(s: str) -> bool:
    """Membership in S: binary, starts and ends with 1, runs of length 1 or 2 only."""
    return s[:1] == s[-1:] == "1" and set(s) <= {"0", "1"} and "000" not in s and "111" not in s


def profile_of(s: str) -> SProfile:
    """Profile of a string in S, where each "00" or "11" is a 2-run and each
    "01" or "10" starts a run."""
    if not in_S(s):
        raise ValueError(f"{s!r} is not in S")
    r2 = s.count("00") + s.count("11")
    return SProfile(len(s), 1 + s.count("01") + s.count("10") - r2, r2)


def scalar_inner_decode(codewords, window: str) -> int:
    """InnerCodebook.decode one codeword at a time: the index of the longest
    LCS with the window, ties to the smallest index."""
    lcs = [lcs_len(c, window) for c in codewords]
    return lcs.index(max(lcs))


def edit_distance(a, b) -> int:
    """Insertion/deletion edit distance of two strings or symbol sequences:
    |a| + |b| - 2*LCS(a, b)."""
    return len(a) + len(b) - 2 * sequence_lcs_len(a, b)


def starts(layout) -> np.ndarray:
    """The first bit of each run of a scheme.Layout, row by row over a block."""
    return np.cumsum(layout.lengths, axis=-1) - layout.lengths


def per_run(layout, counts) -> np.ndarray:
    """The survivors of each run of a one-row layout, given per-bit copy counts."""
    return np.add.reduceat(counts, starts(layout))


def draws_per_run(channel, lengths, rng) -> np.ndarray:
    """Oracle for the channel's draws: one survivors call per run of each of
    lengths, in order, as int32."""
    return np.array([channel.survivors(n, 1, rng)[0] for n in lengths], np.int32)


def window_key(window: str):
    """Oracle for scheme.run_keys, from a thresholded window: its string if
    it has more than _KEY_BITS runs; else bit j set where run j is a 2-run,
    bit (number of runs) set, and bit 63 set if it starts with a 1."""
    runs = [length for _, length in runs_of(window)]
    if len(runs) > _KEY_BITS:
        return window
    pattern = sum(1 << j for j, length in enumerate(runs) if length == 2)
    return pattern | 1 << len(runs) | int(window[0]) << 63


def held(scheme) -> dict:
    """The run keys a scheme's inner-decode memo holds, in ascending order,
    and their symbols; its _SENTINEL end left out."""
    keys, symbols = scheme._memo
    return dict(zip(keys[:-1].tolist(), symbols[:-1].tolist()))


def is_subsequence(sub: str, s: str) -> bool:
    """Greedy left-to-right subsequence test."""
    it = iter(s)
    return all(c in it for c in sub)


def insertion_ball_bruteforce(s_sub: str, target: SProfile) -> set[str]:
    """Oracle for embed_all: filter the full family by the subsequence test.

    Desk-scale only; refuses target lengths above 15.
    """
    if target.m > 15:
        raise ValueError("brute-force insertion ball limited to m <= 15")
    if not in_S(s_sub):
        raise ValueError(f"{s_sub!r} is not in S")
    return {s for s in enumerate_S_by_runs(target) if is_subsequence(s_sub, s)}


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


def first_close_pair_by_pairs(rows, threshold: int):
    """Oracle for strings.first_close_pair: (i, j), the first kept row of the
    pairwise greedy loop to drop rows, and the first it drops; or None."""
    by = greedy_by_pairs(rows, threshold)
    i = min((k for j, k in enumerate(by) if k != j), default=None)
    return None if i is None else (i, by.index(i, i + 1))


def enumerate_S_by_runs(profile: SProfile) -> list[str]:
    """Oracle for strings.enumerate_S, as strings: each built from its run list."""
    k = profile.num_runs
    out = []
    for two_positions in combinations(range(k), profile.r2):
        twos = set(two_positions)
        runs = [(1 - (i % 2), 2 if i in twos else 1) for i in range(k)]
        out.append(bits_of(runs))
    out.sort()
    return out


def deletion_ball_bound(params: InnerParams) -> int:
    """Upper bound on the number of in-family subsequences of length m - d:
    C(r1 + r2 + d, d)."""
    return comb(params.profile.num_runs + params.d, params.d)


# Embedding operations on run lists. A 2-run can be split into three 1-runs by
# flipping a middle copy; a 1-run can be doubled into a 2-run. The first 1-run
# produced by a split is frozen: widening it would not correspond to a
# lexicographically-first embedding, so it is excluded from the widening step.


def embed_all(s_sub: str, target: SProfile) -> set[str]:
    """All strings with the target profile that contain s_sub as a subsequence.

    Generated constructively: split x of the 2-runs, append 1-runs on the
    right to reach the target run count, then widen a selection of non-frozen
    1-runs; ranges over every feasible x.
    """
    if not in_S(s_sub):
        raise ValueError(f"{s_sub!r} is not in S")
    if len(s_sub) > target.m:
        raise ValueError("s_sub longer than target length")
    d = target.m - len(s_sub)
    base = runs_of(s_sub)
    r2_positions = [i for i, (_, ln) in enumerate(base) if ln == 2]
    out: set[str] = set()
    for x in range(min(d, len(r2_positions)) + 1):
        appended = target.num_runs - (len(base) + 2 * x)
        widen = d - x - appended
        if appended < 0 or widen < 0:
            continue
        for split_sel in combinations(r2_positions, x):
            split_set = set(split_sel)
            # (bit, length, frozen)
            runs: list[tuple[int, int, bool]] = []
            for i, (b, ln) in enumerate(base):
                if i in split_set:
                    runs.extend([(b, 1, True), (1 - b, 1, False), (b, 1, False)])
                else:
                    runs.append((b, ln, ln == 2))
            last_bit = runs[-1][0]
            for _ in range(appended):
                last_bit = 1 - last_bit
                runs.append((last_bit, 1, False))
            widenable = [i for i, (_, ln, frozen) in enumerate(runs) if ln == 1 and not frozen]
            if widen > len(widenable):
                continue
            for widen_sel in combinations(widenable, widen):
                widen_set = set(widen_sel)
                final: list[Run] = [
                    (b, 2 if i in widen_set else ln) for i, (b, ln, _) in enumerate(runs)
                ]
                out.add(bits_of(final))
    return out
