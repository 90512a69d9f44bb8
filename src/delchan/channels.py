"""Seeded channel models: independent bit deletion and Poisson repeats.

Every transmitted bit independently yields some number of copies of itself
at the receiver: 0 or 1 for the deletion channel, Poisson-distributed for the
repeat channel. Only the copies of each run matter to the scheme, so a run of
n bits arrives as Z survivors, Bin(n, 1 - p) on the deletion channel and
Poisson(lambda * n) on the repeat channel. ChannelModel owns this survivor
law: it draws Z, exact in distribution, and gives its exact tails and the
run length that meets a target mean, so no other module knows which of the
two channels it has. Randomness comes from named streams split off a single
master seed, so every experiment is reproducible and streams are independent
of call order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, exp, floor, fsum, lgamma, log

import numpy as np

# Tolerance for snapping near-integer ratios before applying ceil/floor, so
# that e.g. 20.21/0.43 = 46.999999... rounds to 47, not 48.
_SNAP = 1e-9


def ceil_snapped(x: float) -> int:
    """Ceiling that forgives float error just above an integer."""
    return int(round(x)) if abs(x - round(x)) < _SNAP else int(ceil(x))


def floor_snapped(x: float) -> int:
    """Floor that forgives float error just below an integer."""
    return int(round(x)) if abs(x - round(x)) < _SNAP else int(floor(x))


def _log_binom_pmf(n: int, p: float, k: int) -> float:
    return (
        lgamma(n + 1)
        - lgamma(k + 1)
        - lgamma(n - k + 1)
        + k * log(p)
        + (n - k) * log(1.0 - p)
    )


def binom_cdf(n: int, p: float, t: int) -> float:
    """Pr[Bin(n, p) <= t], summed directly with compensated summation."""
    if t < 0:
        return 0.0
    if t >= n:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    return min(1.0, fsum(exp(_log_binom_pmf(n, p, k)) for k in range(t + 1)))


def binom_sf(n: int, p: float, t: int) -> float:
    """Pr[Bin(n, p) > t], summed over the upper tail directly."""
    if t < 0:
        return 1.0
    if t >= n:
        return 0.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    return min(1.0, fsum(exp(_log_binom_pmf(n, p, k)) for k in range(t + 1, n + 1)))


def poisson_cdf(mu: float, t: int) -> float:
    """Pr[Poisson(mu) <= t], summed directly."""
    if t < 0:
        return 0.0
    if mu == 0.0:
        return 1.0
    return min(1.0, fsum(exp(-mu + k * log(mu) - lgamma(k + 1)) for k in range(t + 1)))


def poisson_sf(mu: float, t: int) -> float:
    """Pr[Poisson(mu) > t], via the complement (the upper tail is infinite)."""
    return max(0.0, 1.0 - poisson_cdf(mu, t))


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

    @property
    def mean_copies(self) -> float:
        """Expected survivors per transmitted bit."""
        return 1.0 - self.parameter if self.kind == "bdc" else self.parameter

    def run_length(self, M: float) -> int:
        """The fewest bits whose run arrives with at least M survivors on
        average: ceil(M / mean_copies), snapped."""
        return ceil_snapped(M / self.mean_copies)

    def at_most(self, n: int, t: int) -> float:
        """Pr[Z <= t] for the survivors Z of a run of n bits."""
        if self.kind == "bdc":
            return binom_cdf(n, 1.0 - self.parameter, t)
        return poisson_cdf(self.parameter * n, t)

    def more_than(self, n: int, t: int) -> float:
        """Pr[Z > t] for the survivors Z of a run of n bits, summed over the
        upper tail on the deletion channel."""
        if self.kind == "bdc":
            return binom_sf(n, 1.0 - self.parameter, t)
        return poisson_sf(self.parameter * n, t)

    def none_left(self, n: int) -> float:
        """Pr[Z = 0] for the survivors Z of a run of n bits."""
        return self.parameter**n if self.kind == "bdc" else exp(-self.parameter * n)

    def survivors(self, n: int, size: int, rng: np.random.Generator) -> np.ndarray:
        """Survivors of each of size runs of n bits, in one scalar-parameter
        draw (numpy redoes its sampler set-up per element of an array parameter)."""
        if self.kind == "bdc":
            return rng.binomial(n, 1.0 - self.parameter, size)
        return rng.poisson(self.parameter * n, size)

    def copy_counts(self, layout, rng: np.random.Generator) -> np.ndarray:
        """Survivors of each run of a scheme.Layout, drawn one class of runs
        at a time: buffers, 1-runs, 2-runs. A block of layouts takes three
        draws in all, each over its rows in order."""
        return self._draw(layout.lengths, layout.runs_by_orig, rng)

    def transmit(self, bits: str, rng: np.random.Generator) -> str:
        """The received string: survivors drawn per distinct run length of
        bits, shortest first."""
        b = np.frombuffer(bits.encode(), np.uint8)
        starts = np.flatnonzero(np.diff(b.astype(np.int16), prepend=-1))
        lengths = np.diff(np.append(starts, b.size))
        groups = [np.flatnonzero(lengths == n) for n in np.unique(lengths)]
        return apply_copy_counts(b[starts].tobytes().decode(), self._draw(lengths, groups, rng))

    def _draw(self, lengths: np.ndarray, groups, rng: np.random.Generator) -> np.ndarray:
        """Survivors of runs of lengths.flat[i] bits, one draw per group of
        flat run indices in turn; the runs of a group share one length."""
        counts = np.empty(lengths.shape, np.int64)
        for runs in groups:
            if runs.size:
                counts.flat[runs] = self.survivors(int(lengths.flat[runs[0]]), runs.size, rng)
        return counts
