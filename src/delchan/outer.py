"""Outer code over a q-ary alphabet, robust to symbol insertions/deletions.

Codewords are length-n symbol sequences whose pairwise symbol-level edit
distance exceeds 2 * radius, radius = floor(delta_out * n), so a
nearest-codeword decoder corrects any combination of up to radius symbol
insertions and deletions. The construction is the inner code's greedy pass
(strings.greedy, a group of rows per LCS pass) over seeded pseudorandom
candidates; a stand-in with any stronger construction's interface and bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .channels import floor_snapped
from .strings import first_close_pair, greedy, lane_masks, lcs_lanes, read_code_file

# Chunks of q**k candidates (candidates per message) drawn before giving up.
_CANDIDATE_FACTOR = 200
_MAX_STEPS = 1 << 32  # word steps of one chunk's pass (about 5 s on a 2-core x86 host)


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
        lcs = lcs_lanes(received, self._masks, self.spec.n)
        return int(np.argmin(self.spec.n + len(received) - 2 * lcs))

    def validate(self) -> None:
        spec = self.spec
        if len(self.codewords) != spec.num_messages:
            raise ValueError(
                f"expected {spec.num_messages} codewords, found {len(self.codewords)}"
            )
        for i, c in enumerate(self.codewords):
            if len(c) != spec.n or any(not 0 <= s < spec.q for s in c):
                raise ValueError(f"codeword {i} malformed")
        pair = first_close_pair(self.table, spec.q, spec.n - spec.radius)
        if pair:
            raise ValueError("codewords {} and {} too close".format(*pair))

    def save(self, path: str | Path) -> None:
        spec = self.spec
        num, den = spec.delta_out.as_integer_ratio()
        lines = [
            f"outercode v1 q={spec.q} n={spec.n} k={spec.k}"
            f" dout_num={num} dout_den={den} seed={self.seed}"
        ]
        lines.extend(" ".join(str(s) for s in c) for c in self.codewords)
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "OuterCode":
        f, lines = read_code_file(path, ("q", "n", "k", "dout_num", "dout_den", "seed"))
        if f["dout_den"] == 0:
            raise ValueError(f"{path}: dout_den must be nonzero")
        spec = OuterSpec(f["q"], f["n"], f["k"], f["dout_num"] / f["dout_den"])
        if len(lines) != spec.num_messages:
            raise ValueError(f"{path}: header says q**k={spec.num_messages},"
                             f" found {len(lines)} lines")
        seed = f["seed"]  # a missing key already names the file
        try:
            code = cls(spec, tuple(tuple(map(int, line.split())) for line in lines), seed)
            code.validate()
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return code


def construct_outer(spec: OuterSpec, seed: int) -> OuterCode:
    """Greedy construction from a seeded pseudorandom candidate stream.

    Accepts a candidate iff its LCS with every accepted codeword is below
    n - radius, that is, iff its symbol edit distance to each exceeds
    2 * radius. Candidates come q**k at a time, each chunk run through
    strings.greedy behind the accepted codewords; as greedy keeps a row on
    the rows before it alone, this accepts what a one-by-one pass would.
    Raises if a chunk takes over _MAX_STEPS, and if _CANDIDATE_FACTOR chunks
    run out before q**k codewords are found, reporting how many were achieved.
    """
    needed = spec.num_messages
    steps = needed * spec.n * (needed * -(-spec.n // 64) + spec.q)  # greedy and mask planes
    if steps > _MAX_STEPS:
        raise ValueError(f"{needed} codewords of {spec.n} symbols take about {steps:.3g} word"
                         f" steps a chunk ({needed * spec.n / 2**27:.3g} GiB of candidates), over"
                         f" {_MAX_STEPS:.3g}; lower k or n")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    accepted = np.empty((0, spec.n), np.int64)
    for _ in range(_CANDIDATE_FACTOR):
        rows = np.concatenate([accepted, rng.integers(0, spec.q, size=(needed, spec.n))])
        accepted = rows[greedy(rows, spec.q, spec.n - spec.radius) == np.arange(len(rows))]
        if len(accepted) >= needed:
            return OuterCode(spec, tuple(map(tuple, accepted[:needed].tolist())), seed)
    raise ValueError(
        f"greedy outer construction found only {len(accepted)} of {needed}"
        f" codewords within {_CANDIDATE_FACTOR * needed} candidates; lower delta_out or k"
    )
