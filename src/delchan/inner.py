"""Greedy inner codebook over the 1-/2-run family and its rate formula. A
decode is one bit-parallel LCS pass over the window, each codeword a lane."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import log2
from pathlib import Path

import numpy as np

from .strings import SProfile, bit_rows, enumerate_S, first_close_pair, greedy, read_code_file
from .strings import lcs_len  # noqa: F401  (the benchmark's tracer wraps it here)

# Greedy construction refuses larger candidate sets, before enumerating them.
MAX_CANDIDATES = 10**7


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

    Codewords are in lexicographic order; symbol i maps to codewords[i].
    """

    params: InnerParams
    codewords: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.codewords)

    @property
    def rate(self) -> float:
        """Measured rate log2|C| / m."""
        return log2(len(self.codewords)) / self.params.m

    def encode(self, symbol: int) -> str:
        if not 0 <= symbol < len(self.codewords):
            raise ValueError(f"symbol {symbol} out of range [0, {len(self.codewords)})")
        return self.codewords[symbol]

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
        if any(len(c) != self.params.m for c in self.codewords):
            raise ValueError(f"codewords must have length m={self.params.m} to decode")
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
        header = (
            f"innercode v1 m={p.m} r1={p.profile.r1} r2={p.profile.r2}"
            f" d={p.d} count={len(self.codewords)}\n"
        )
        Path(path).write_text(header + "".join(c + "\n" for c in self.codewords))

    @classmethod
    def load(cls, path: str | Path) -> "InnerCodebook":
        (m, r1, r2, d, count), lines = read_code_file(path, ("m", "r1", "r2", "d", "count"))
        try:
            if len(lines) != count:
                raise ValueError(f"header says count={count}, found {len(lines)} lines")
            cb = cls(InnerParams(SProfile(m, r1, r2), d), tuple(lines))
            cb.validate()
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return cb

    def validate(self) -> None:
        p = self.params
        for c in self.codewords:
            if SProfile.of(c) != p.profile:
                raise ValueError(f"codeword {c} has wrong profile")
        if list(self.codewords) != sorted(self.codewords):
            raise ValueError("codewords not in lexicographic order")
        pair = first_close_pair(bit_rows(self.codewords, p.m), 2, p.m - p.d)
        if pair:
            raise ValueError("codewords too close: " + " ".join(self.codewords[k] for k in pair))


def construct_inner(params: InnerParams) -> InnerCodebook:
    """Greedy construction: accept a candidate iff its LCS with every accepted
    codeword is < m - d (equivalently, pairwise edit distance > 2*d)."""
    profile = params.profile
    if profile.count > MAX_CANDIDATES:
        raise ValueError(f"candidate set size {profile.count} exceeds {MAX_CANDIDATES}")
    rows = enumerate_S(profile)
    by = greedy(rows, 2, params.m - params.d)
    kept = rows[by == np.arange(by.size)] + 48  # the kept rows' characters
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
