"""Seeded channel models: independent bit deletion and Poisson repeats.

Both channels act bitwise: each transmitted bit independently yields some
number of copies of itself at the receiver (0 or 1 for the deletion channel,
Poisson-distributed for the repeat channel). Randomness comes from named
streams split off a single master seed, so every experiment is reproducible
and streams are independent of call order.
"""

from __future__ import annotations

from collections.abc import Sized
from dataclasses import dataclass
from math import exp

import numpy as np

# Above this mean the Knuth product-of-uniforms sampler underflows.
_POISSON_MEAN_LIMIT = 700.0
# Transmissions per block of bulk deletion draws: 256 x 2,280 float64 is 4.7 MB.
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class RngStream:
    """One independent randomness stream derived from (master_seed, index).

    Streams with distinct indices are statistically independent regardless of
    how many draws each makes, so per-trial or per-component streams can be
    handed out without coordinating consumption.
    """

    master_seed: int
    stream_index: int

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.PCG64(seq))


def bdc_copy_counts(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Survivor counts of n bits on the deletion channel: 0 w.p. p, else 1."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"deletion probability {p} outside [0, 1)")
    return (rng.random(n) >= p).astype(np.int64)


def bdc_run_survivors(trials: int, run_len: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Survivors of one run of run_len bits in each of trials transmissions on
    the deletion channel. Draws one uniform per bit, _BLOCK_ROWS transmissions
    at a time so that memory stays bounded; the stream and its order are
    those of a single (trials, run_len) draw."""
    return np.concatenate([
        (rng.random((min(_BLOCK_ROWS, trials - t), run_len)) >= p).sum(axis=1)
        for t in range(0, trials, _BLOCK_ROWS)
    ])


def poisson_copy_counts(n: int, lam: float, rng: np.random.Generator) -> np.ndarray:
    """Survivor counts of n bits on the repeat channel: independent Poisson(lam).

    Knuth's product-of-uniforms method, vectorized: each round multiplies one
    uniform into the product of each unfinished position, kept in index order.
    """
    if lam < 0.0:
        raise ValueError(f"Poisson mean {lam} is negative")
    if lam > _POISSON_MEAN_LIMIT:
        raise ValueError(f"Poisson mean {lam} exceeds {_POISSON_MEAN_LIMIT}")
    counts = np.zeros(n, dtype=np.int64)
    prod = rng.random(n)
    threshold = exp(-lam)
    active = np.flatnonzero(prod > threshold)
    prod = prod[active]
    while active.size:
        counts[active] += 1
        prod *= rng.random(active.size)
        keep = prod > threshold
        active, prod = active[keep], prod[keep]
    return counts


def apply_copy_counts(bits: str, counts: np.ndarray) -> str:
    """Expand each bit into counts[i] copies of itself."""
    if len(bits) != len(counts):
        raise ValueError("counts length does not match input length")
    return np.repeat(np.frombuffer(bits.encode(), np.uint8), counts).tobytes().decode()


@dataclass(frozen=True)
class ChannelModel:
    """A configured channel: kind is "bdc" (parameter = deletion probability)
    or "prc" (parameter = repeat mean)."""

    kind: str
    parameter: float

    def __post_init__(self) -> None:
        if self.kind not in ("bdc", "prc"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.kind == "bdc" and not 0.0 <= self.parameter < 1.0:
            raise ValueError(f"deletion probability {self.parameter} outside [0, 1)")
        if self.kind == "prc" and self.parameter <= 0.0:
            raise ValueError(f"repeat mean {self.parameter} must be positive")

    def copy_counts(self, bits: Sized, rng: np.random.Generator) -> np.ndarray:
        """Copies of each transmitted bit; bits is the string or its Layout."""
        if self.kind == "bdc":
            return bdc_copy_counts(len(bits), self.parameter, rng)
        return poisson_copy_counts(len(bits), self.parameter, rng)

    def transmit(self, bits: str, rng: np.random.Generator) -> str:
        return apply_copy_counts(bits, self.copy_counts(bits, rng))

    @property
    def mean_copies(self) -> float:
        """Expected survivors per transmitted bit."""
        return 1.0 - self.parameter if self.kind == "bdc" else self.parameter
