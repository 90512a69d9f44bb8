"""Seeded channel models: independent bit deletion and Poisson repeats.

Both channels act bitwise: each transmitted bit independently yields some
number of copies of itself at the receiver (0 or 1 for the deletion channel,
Poisson-distributed for the repeat channel). Randomness comes from named
streams split off a single master seed, so every experiment is reproducible
and streams are independent of call order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp

import numpy as np

# Above this mean the Knuth product-of-uniforms sampler underflows.
_POISSON_MEAN_LIMIT = 700.0


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


def poisson_sample(lam: float, rng: np.random.Generator) -> int:
    """One Poisson draw via Knuth's product-of-uniforms method."""
    if lam < 0.0:
        raise ValueError(f"Poisson mean {lam} is negative")
    if lam > _POISSON_MEAN_LIMIT:
        raise ValueError(f"Poisson mean {lam} exceeds {_POISSON_MEAN_LIMIT}")
    threshold = exp(-lam)
    k = 0
    prod = rng.random()
    while prod > threshold:
        k += 1
        prod *= rng.random()
    return k


def poisson_copy_counts(n: int, lam: float, rng: np.random.Generator) -> np.ndarray:
    """Survivor counts of n bits on the repeat channel: independent Poisson(lam).

    Vectorized equivalent of calling poisson_sample per bit: draw uniforms in
    blocks and keep multiplying into the not-yet-finished positions.
    """
    if lam < 0.0:
        raise ValueError(f"Poisson mean {lam} is negative")
    if lam > _POISSON_MEAN_LIMIT:
        raise ValueError(f"Poisson mean {lam} exceeds {_POISSON_MEAN_LIMIT}")
    counts = np.zeros(n, dtype=np.int64)
    prod = rng.random(n)
    threshold = exp(-lam)
    active = prod > threshold
    while active.any():
        counts[active] += 1
        prod[active] *= rng.random(int(active.sum()))
        active = prod > threshold
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

    def copy_counts(self, bits: str, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "bdc":
            return bdc_copy_counts(len(bits), self.parameter, rng)
        return poisson_copy_counts(len(bits), self.parameter, rng)

    def transmit(self, bits: str, rng: np.random.Generator) -> str:
        return apply_copy_counts(bits, self.copy_counts(bits, rng))

    @property
    def mean_copies(self) -> float:
        """Expected survivors per transmitted bit."""
        return 1.0 - self.parameter if self.kind == "bdc" else self.parameter
