"""Greedy inner codebook over the 1-/2-run family, kept in a strings code file, and its
rate formula. A decode is one bit-parallel LCS pass over the window, each codeword a lane."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import log2
from pathlib import Path

import numpy as np

from .strings import (SProfile, bit_rows, enumerate_S, first_close_pair, greedy, lane_masks,
                      lane_symbols, naming, read_code_file, refuse_long_pass, write_code_file)
from .strings import lcs_len  # noqa: F401  (the benchmark's tracer wraps it here)

# Greedy construction refuses larger candidate sets, before enumerating them, and families
# whose first pass (m columns over count lanes of ceil(m / 64) words) takes more word steps
# than 64 a candidate at that cap, which also bounds their (count, m) uint8 rows' bytes. At
# d = 0, where no pass runs, it refuses families whose rows take more bytes than that.
MAX_CANDIDATES = 10**7
MAX_FIRST_PASS_STEPS = MAX_ROW_BYTES = 64 * MAX_CANDIDATES
_TAG = "innercode v1"  # the kind and version of a codebook file


@dataclass(frozen=True)
class InnerParams:
    """Codebook shape: string profile plus integer decoding radius d (= delta*m)."""

    profile: SProfile
    d: int

    def __post_init__(self) -> None:
        if not 0 <= self.d <= self.profile.m:
            raise ValueError(f"d={self.d} out of range [0, {self.profile.m}]")

    @property
    def m(self) -> int:
        return self.profile.m


@dataclass(frozen=True)
class InnerCodebook:
    """Greedily constructed code with pairwise edit distance > 2*d.

    Codewords are in lexicographic order; symbol i maps to codewords[i]. However it
    is made, a codebook refuses the first codeword, in index order, of another length
    than m, out of S (0s and 1s, 1 at both ends, runs of 1 or 2) or of another profile.
    """

    params: InnerParams
    codewords: tuple[str, ...]

    def __post_init__(self) -> None:
        p, cw = self.params, self.codewords
        misfits = (np.fromiter(map(len, cw), np.int64, len(cw)) != p.m).nonzero()[0]
        sized = int(misfits[0]) if misfits.size else len(cw)
        rows = bit_rows(cw[:sized], p.m)  # the codewords before the first of another length
        pairs = rows[:, 1:] == rows[:, :-1]  # in S, each pair of equal neighbours is a 2-run
        out = ((rows.max(axis=1) > 1) | (rows[:, 0] != 1) | (rows[:, -1] != 1)
               | (pairs[:, 1:] & pairs[:, :-1]).any(axis=1))
        bad = out | (pairs.sum(axis=1) != p.profile.r2)
        first = int(bad.argmax()) if bad.any() else sized
        if first < len(cw):
            c = cw[first]
            if first == sized:
                raise ValueError(f"codeword {c!r} has {len(c)} characters, not m={p.m}")
            if out[first]:
                raise ValueError(f"{c!r} is not in S")
            raise ValueError(f"codeword {c} has wrong profile")

    def __len__(self) -> int:
        return len(self.codewords)

    @property
    def rate(self) -> float:
        """Measured rate log2|C| / m."""
        return log2(len(self.codewords)) / self.params.m

    def decode(self, window: str) -> int:
        """Index of a nearest codeword in edit distance (all codewords have length
        m, so the longest LCS); ties take the smallest index. One pass of the
        LCS recurrence runs every lane of _lanes: LCS = m - the lane's bits in v."""
        m1, m0, mask, shifts, lane = self._lanes
        v = mask
        for c in window:
            p = (m1 if c == "1" else m0) & v
            v = ((v + p) | (v - p)) & mask
        left = [(v >> shift & lane).bit_count() for shift in shifts]
        return left.index(min(left))

    @cached_property
    def _lanes(self) -> tuple[int, int, int, range, int]:
        """Codeword j as bits [j(m+1), j(m+1) + m) of one int, bit i set where
        its character i is 1, under a zero guard bit where carries stop: the
        words of 1s and of 0s, their mask, each lane's shift and a lane's mask."""
        lane, step = (1 << self.params.m) - 1, self.params.m + 1
        shifts = range(0, len(self.codewords) * step, step)
        mask = sum(lane << shift for shift in shifts)
        m1 = sum(int(c[::-1], 2) << shift for c, shift in zip(self.codewords, shifts))
        return m1, m1 ^ mask, mask, shifts, lane

    def truncate(self, q: int) -> "InnerCodebook":
        """Keep the first q codewords (used to embed a q-ary outer alphabet)."""
        if q > len(self.codewords):
            raise ValueError(f"cannot truncate to {q} > |C| = {len(self.codewords)}")
        return InnerCodebook(self.params, self.codewords[:q])

    def save(self, path: str | Path) -> None:
        p = self.params
        write_code_file(path, _TAG, {"m": p.m, "r1": p.profile.r1, "r2": p.profile.r2, "d": p.d,
                                     "count": len(self.codewords)}, self.codewords)

    @classmethod
    def load(cls, path: str | Path) -> "InnerCodebook":
        (m, r1, r2, d, count), lines = read_code_file(path, _TAG, ("m", "r1", "r2", "d", "count"))
        with naming(path):
            params = InnerParams(SProfile(m, r1, r2), d)
            if d:  # validate runs the greedy pass; at d = 0 none runs
                refuse_long_pass(count, m, 2)
            if len(lines) != count:
                raise ValueError(f"header says count={count}, found {len(lines)} lines")
            cb = cls(params, tuple(lines))
            cb.validate()
        return cb

    def validate(self) -> None:
        """Refuses codewords out of lexicographic order, and the first close pair
        (within 2d edits) that the greedy pass would drop."""
        p, cw = self.params, self.codewords
        if list(cw) != sorted(cw):
            raise ValueError("codewords not in lexicographic order")
        if p.d == 0:  # only equal rows are close, and a sorted repeat follows its first copy
            pair = next(((k - 1, k) for k in range(1, len(cw)) if cw[k - 1] == cw[k]), None)
        else:
            pair = first_close_pair(lane_masks(bit_rows(cw, p.m), 2), p.m, p.m - p.d)
        if pair:
            raise ValueError("codewords too close: " + " ".join(cw[k] for k in pair))


def construct_inner(params: InnerParams) -> InnerCodebook:
    """Greedy construction: accept a candidate iff its LCS with every accepted
    codeword is < m - d (equivalently, pairwise edit distance > 2*d); at d = 0
    that keeps the whole family, so no pass runs."""
    profile = params.profile
    name = f"S({profile.m}, {profile.r1}, {profile.r2})"
    # comb(runs, j) as comb(runs - j + i, i) for i = 1..j: each factor is at least 1,
    # so the cap is refused at the first partial product past it, not at a huge binomial
    runs, j = profile.num_runs, min(profile.r1, profile.r2)
    size = 1
    for i in range(1, j + 1):
        size = size * (runs - j + i) // i
        if size > MAX_CANDIDATES:
            raise ValueError(f"{name} has more than {MAX_CANDIDATES} candidates")
    # size is now the family's count
    if params.d == 0:  # only equal rows are close, and the family's rows are distinct
        if size * profile.m > MAX_ROW_BYTES:
            raise ValueError(f"{name} takes {size * profile.m} bytes of rows, over {MAX_ROW_BYTES}")
        kept = enumerate_S(profile)
    else:
        steps = size * -(-profile.m // 64) * profile.m
        if steps > MAX_FIRST_PASS_STEPS:
            raise ValueError(f"{name} takes {steps} word steps in its first greedy pass,"
                             f" over {MAX_FIRST_PASS_STEPS}")
        masks = lane_masks(enumerate_S(profile), 2)  # the rows go once packed
        by = greedy(masks, params.m, params.m - params.d)
        kept = lane_symbols(np.compress(by == np.arange(by.size), masks, axis=1), params.m)
    kept = kept.astype(np.uint8) + 48  # the kept rows' characters
    return InnerCodebook(params, tuple(bytes(row).decode() for row in kept))


def binary_entropy(x: float) -> float:
    if not 0.0 < x < 1.0:
        raise ValueError(f"entropy argument {x} outside (0, 1)")
    return -x * log2(x) - (1.0 - x) * log2(1.0 - x)


def inner_rate_formula(beta1: float, delta: float) -> float:
    """Asymptotic inner-code rate for 1-run density beta1 and radius fraction delta.

    With beta = (1 + beta1)/2:
        R = beta*h(beta1/beta) - (delta+beta)*h(delta/(delta+beta)) - beta*h(delta/beta)
    """
    if not 0.0 < beta1 < 1.0 or not 0.0 < delta < 1.0:
        raise ValueError("beta1 and delta must lie in (0, 1)")
    beta = (1.0 + beta1) / 2.0
    return (
        beta * binary_entropy(beta1 / beta)
        - (delta + beta) * binary_entropy(delta / (delta + beta))
        - beta * binary_entropy(delta / beta)
    )
