"""Outer code over a q-ary alphabet, robust to symbol insertions/deletions.

Codewords are length-n symbol sequences whose pairwise symbol-level edit
distance exceeds 2 * radius, radius = floor(delta_out * n), so a
nearest-codeword decoder corrects any combination of up to radius symbol
insertions and deletions. The inner code's greedy pass (strings.greedy, bounded by
strings.refuse_long_pass) builds it from seeded candidates and, stopped at its first
drop, validates it, also on load from a strings code file; a stand-in with any stronger
construction's interface and bound."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .channels import floor_snapped
from .strings import (first_close_pair, greedy, lane_masks, lcs_rows, naming, read_code_file,
                      refuse_long_pass, write_code_file)

# Chunks of q**k candidates (candidates per message) drawn before giving up.
_CANDIDATE_FACTOR = 200
_TAG = "outercode v1"  # the kind and version of an outer code file


@dataclass(frozen=True)
class OuterSpec:
    """Shape of the outer code: alphabet size q, block length n, message
    length k (so q**k messages), and decoding-radius fraction delta_out
    (radius = floor(delta_out * n) symbol edits)."""

    q: int
    n: int
    k: int
    delta_out: float

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError("alphabet size q must be at least 2")
        if self.n < 1:
            raise ValueError("block length n must be at least 1")
        if self.k < 0:
            raise ValueError("message length k must be nonnegative")
        # message ids are int64; q >= 2**(bit_length - 1) rules out a large k before q**k
        if self.k * (self.q.bit_length() - 1) >= 63 or self.q**self.k >= 1 << 63:
            raise ValueError(f"q**k messages must stay below 2**63, got q={self.q}, k={self.k}")
        if not 0.0 < self.delta_out < 1.0:
            raise ValueError("delta_out must lie in (0, 1)")

    @property
    def num_messages(self) -> int:
        return self.q**self.k

    @property
    def rate(self) -> float:
        return self.k / self.n

    @property
    def radius(self) -> int:
        """Guaranteed correctable number of symbol edits."""
        return floor_snapped(self.delta_out * self.n)


@dataclass(frozen=True)
class OuterCode:
    """Messages are integers in [0, q**k); codeword i is codewords[i]."""

    spec: OuterSpec
    codewords: tuple[tuple[int, ...], ...]
    seed: int

    def __len__(self) -> int:
        return len(self.codewords)

    def encode(self, message: int) -> tuple[int, ...]:
        if not 0 <= message < len(self.codewords):
            raise ValueError(
                f"message {message} out of range [0, {len(self.codewords)})"
            )
        return self.codewords[message]

    @cached_property
    def table(self) -> np.ndarray:
        """The codeword of each message, one row per message."""
        return np.array(self.codewords)

    @cached_property
    def _masks(self) -> np.ndarray:
        return lane_masks(self.table, self.spec.q)

    @cached_property
    def _message_of(self) -> dict[tuple[int, ...], int]:
        """Each codeword's smallest message."""
        return {c: i for i, c in reversed(list(enumerate(self.codewords)))}

    def decode(self, received: tuple[int, ...] | list[int]) -> int:
        """Nearest codeword in symbol edit distance; ties take the smallest
        message. Accepts sequences of any length."""
        received = tuple(received)
        if received in self._message_of:  # at distance 0 from that codeword alone
            return self._message_of[received]
        lcs = lcs_rows(np.array([received], np.int64), self._masks, self.spec.n)[0]
        return int(np.argmin(self.spec.n + len(received) - 2 * lcs))

    def validate(self) -> None:
        spec = self.spec
        if len(self.codewords) != spec.num_messages:
            raise ValueError(
                f"expected {spec.num_messages} codewords, found {len(self.codewords)}"
            )
        for i, c in enumerate(self.codewords):
            if len(c) != spec.n or min(c) < 0 or max(c) >= spec.q:
                raise ValueError(f"codeword {i} malformed")
        pair = first_close_pair(self._masks, spec.n, spec.n - spec.radius)
        if pair:
            raise ValueError("codewords {} and {} too close".format(*pair))

    def save(self, path: str | Path) -> None:
        spec = self.spec
        num, den = spec.delta_out.as_integer_ratio()
        write_code_file(path, _TAG, {"q": spec.q, "n": spec.n, "k": spec.k, "dout_num": num,
                                     "dout_den": den, "seed": self.seed},
                        (" ".join(map(str, c)) for c in self.codewords))

    @classmethod
    def load(cls, path: str | Path) -> "OuterCode":
        (q, n, k, num, den, seed), lines = read_code_file(
            path, _TAG, ("q", "n", "k", "dout_num", "dout_den", "seed"))
        with naming(path):
            if den == 0:
                raise ValueError("dout_den must be nonzero")
            spec = OuterSpec(q, n, k, num / den)
            refuse_long_pass(spec.num_messages, n, q)  # validate runs the greedy pass
            if len(lines) != spec.num_messages:
                raise ValueError(f"header says q**k={spec.num_messages}, found {len(lines)} lines")
            code = cls(spec, tuple(tuple(map(int, line.split())) for line in lines), seed)
            code.validate()
        return code


def construct_outer(spec: OuterSpec, seed: int) -> OuterCode:
    """Greedy construction from a seeded pseudorandom candidate stream.

    Accepts a candidate iff its LCS with every accepted codeword is below
    n - radius, that is, iff its symbol edit distance to each exceeds
    2 * radius. Candidates come q**k at a time, each chunk run through
    strings.greedy behind the accepted codewords; as greedy keeps a row on
    the rows before it alone, this accepts what a one-by-one pass would.
    Raises if a pass over q**k codewords takes over strings.MAX_STEPS word
    steps (strings.refuse_long_pass), and if _CANDIDATE_FACTOR chunks
    run out before q**k codewords are found, reporting how many were achieved.
    """
    needed = spec.num_messages
    refuse_long_pass(needed, spec.n, spec.q)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    accepted = np.empty((0, spec.n), np.int64)
    for _ in range(_CANDIDATE_FACTOR):
        rows = np.concatenate([accepted, rng.integers(0, spec.q, size=(needed, spec.n))])
        by = greedy(lane_masks(rows, spec.q), spec.n, spec.n - spec.radius)
        accepted = rows[by == np.arange(len(rows))]
        if len(accepted) >= needed:
            return OuterCode(spec, tuple(map(tuple, accepted[:needed].tolist())), seed)
    raise ValueError(
        f"greedy outer construction found only {len(accepted)} of {needed}"
        f" codewords within {_CANDIDATE_FACTOR * needed} candidates; lower delta_out or k"
    )
