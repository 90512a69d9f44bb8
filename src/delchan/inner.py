"""Greedy inner codebook over the 1-/2-run family, with ball machinery."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, log2
from pathlib import Path

import numpy as np

from .strings import (
    Run,
    SProfile,
    bits_of,
    enumerate_S,
    in_S,
    is_subsequence,
    lane_masks,
    lcs_lanes,
    lcs_len,
    read_code_file,
    runs_of,
)

# Greedy construction refuses larger candidate sets unless forced.
MAX_CANDIDATES = 10**7


def _string_of(ones: np.ndarray, m: int) -> str:
    """The length-m binary string whose "1" mask is the word row ones."""
    return format(sum(int(w) << 64 * i for i, w in enumerate(ones)), f"0{m}b")[::-1]


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
        m, so the longest LCS); ties take the smallest index."""
        lcs = [lcs_len(c, window) for c in self.codewords]
        return lcs.index(max(lcs))

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
        f, lines = read_code_file(path, ("m", "r1", "r2", "d", "count"))
        if len(lines) != f["count"]:
            raise ValueError(f"{path}: header says count={f['count']}, found {len(lines)} lines")
        cb = cls(InnerParams(SProfile(f["m"], f["r1"], f["r2"]), f["d"]), tuple(lines))
        cb.validate()
        return cb

    def validate(self) -> None:
        p = self.params
        threshold = p.m - p.d
        for c in self.codewords:
            if SProfile.of(c) != p.profile:
                raise ValueError(f"codeword {c} has wrong profile")
        if list(self.codewords) != sorted(self.codewords):
            raise ValueError("codewords not in lexicographic order")
        masks = lane_masks(self.codewords, 2, p.m)
        for i, c in enumerate(self.codewords):
            close = lcs_lanes(map(int, c), masks[:, i + 1 :], p.m) >= threshold
            if close.any():
                c2 = self.codewords[i + 1 + close.argmax()]
                raise ValueError(f"codewords too close: {c} {c2}")


def construct_inner(params: InnerParams, *, force: bool = False) -> InnerCodebook:
    """Greedy construction: accept a candidate iff its LCS with every accepted
    codeword is < m - d (equivalently, pairwise edit distance > 2*d)."""
    profile = params.profile
    if profile.count > MAX_CANDIDATES and not force:
        raise ValueError(
            f"candidate set size {profile.count} exceeds {MAX_CANDIDATES};"
            " pass force=True to override"
        )
    threshold = params.m - params.d
    # Candidates live only as masks; accepting the first survivor drops every
    # later one within the radius, which is what the one-by-one greedy pass does.
    masks = lane_masks(enumerate_S(profile), 2, params.m)
    accepted: list[str] = []
    while masks.shape[1]:
        accepted.append(_string_of(masks[1, 0], params.m))
        lcs = lcs_lanes(map(int, accepted[-1]), masks[:, 1:], params.m)
        masks = masks[:, 1:][:, lcs < threshold]
    return InnerCodebook(params, tuple(accepted))


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


def insertion_ball_bruteforce(s_sub: str, target: SProfile) -> set[str]:
    """Oracle for embed_all: filter the full family by the subsequence test.

    Desk-scale only; refuses target lengths above 15.
    """
    if target.m > 15:
        raise ValueError("brute-force insertion ball limited to m <= 15")
    if not in_S(s_sub):
        raise ValueError(f"{s_sub!r} is not in S")
    return {s for s in enumerate_S(target) if is_subsequence(s_sub, s)}
