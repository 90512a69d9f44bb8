"""Seeded channel models: independent bit deletion and Poisson repeats.

Every transmitted bit independently yields some number of copies of itself
at the receiver: 0 or 1 for the deletion channel, Poisson-distributed for the
repeat channel. Only the copies of each run matter to the scheme, so a run of
n bits arrives as Z survivors, Bin(n, 1 - p) on the deletion channel and
Poisson(lambda * n) on the repeat channel. ChannelModel owns this survivor
law and writes it once, in ChannelModel._law, which its exact tails and its
draws of Z both read. It also gives the run length that meets a target mean,
so no module outside this one branches on the channel's kind.
Randomness comes from named streams split off a single master seed, so every
experiment is reproducible and streams are independent of call order.

A draw takes one 64-bit word of the stream per run, in run order, and
inverts the law's CDF through a table of each run length: the word's top 12
bits pick a cell of a guide table, which gives the value at once unless a
step of the CDF falls inside the cell; those few words are resolved by a
binary search of the 64-bit thresholds. A block of runs of a few lengths
takes its words in one call, with those laws' tables and guides stacked once
per (channel, run lengths); one cache keeps the 16 stacks used last. Each
threshold is Pr[Z <= k] summed exactly from the log-pmf and rounded to a
multiple of 2**-64, from below up to the median and as 1 - Pr[Z > k] above
it, so both tails keep their relative accuracy; every value's probability is
within 2**-63 of the pmf's, but for the one where the two sums meet, which
also takes up the pmf's own rounding. The table spans only the values beyond
which less than 2**-64 of the mass lies, so its width follows the standard
deviation, not n. The inverse is monotone, so count_at_most counts the runs
of at most t survivors as the words below the threshold Pr[Z <= t], with no
survivor drawn.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count
from math import ceil, exp, floor, fsum, inf, lgamma, ldexp, log, log1p, sqrt

import numpy as np

from .strings import bit_runs

# Tolerance for snapping near-integer ratios before applying ceil/floor, so
# that e.g. 20.21/0.43 = 46.999999... rounds to 47, not 48.
_SNAP = 1e-9
# A survivor table covers the values beyond whose ends less than 2**-64 of
# the law's mass lies on either side, and refuses a law whose standard
# deviation suggests more than _MAX_TABLE values (about 19 deviations fit).
_LOG_TAIL = -64 * log(2.0)
_MAX_TABLE = 1 << 16
# The top _GUIDE_BITS bits of a word pick its cell of the guide table.
_GUIDE_BITS = 12
_CELL_SHIFT = 64 - _GUIDE_BITS
# Stacks of survivor tables kept at once, one per (channel, run lengths) of a draw.
_STACKS_KEPT = 16
# Run lengths and survivor counts, in the channel's draws and a block's arrays.
RUN_DTYPE = np.int32


def ceil_snapped(x: float) -> int:
    """Ceiling that forgives float error just above an integer."""
    return int(round(x)) if abs(x - round(x)) < _SNAP else int(ceil(x))


def floor_snapped(x: float) -> int:
    """Floor that forgives float error just below an integer."""
    return int(round(x)) if abs(x - round(x)) < _SNAP else int(floor(x))


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
        if self.kind == "prc" and not 0.0 < self.parameter < inf:
            raise ValueError(f"repeat mean {self.parameter} must be positive and finite")

    @property
    def mean_copies(self) -> float:
        """Expected survivors per transmitted bit."""
        return 1.0 - self.parameter if self.kind == "bdc" else self.parameter

    def run_length(self, M: float) -> int:
        """The fewest bits whose run arrives with at least M survivors on
        average: ceil(M / mean_copies), snapped."""
        if not M / self.mean_copies < inf:
            raise ValueError(f"run length M / mean_copies = {M} / {self.mean_copies} is not finite")
        return ceil_snapped(M / self.mean_copies)

    def at_most(self, n: int, t: int) -> float:
        """Pr[Z <= t] for the survivors Z of a run of n bits."""
        log_pmf, mode, variance, top = self._law(n)
        if t < 0:
            return 0.0
        if not variance:  # every survivor count but the mode has no mass
            return float(t >= mode)
        if top is not None and t >= top:
            return 1.0
        return min(1.0, fsum(exp(log_pmf(k)) for k in range(t + 1)))

    def more_than(self, n: int, t: int) -> float:
        """Pr[Z > t] for the survivors Z of a run of n bits, summed over the
        upper tail: up to n on the deletion channel, and on the repeat channel
        term by term until, past the mean, a term adds less than 2**-64 of
        the sum."""
        log_pmf, mode, variance, top = self._law(n)
        if t < 0:
            return 1.0
        if not variance:
            return float(t < mode)
        if top is not None:  # an empty sum from t >= top
            return min(1.0, fsum(exp(log_pmf(k)) for k in range(t + 1, top + 1)))
        terms: list[float] = []
        total = 0.0
        for k in count(t + 1):
            terms.append(exp(log_pmf(k)))
            total += terms[-1]
            if k > mode and terms[-1] <= total * 2.0**-64:  # k > floor(mu) is k > mu
                return min(1.0, fsum(terms))

    def none_left(self, n: int) -> float:
        """Pr[Z = 0] for the survivors Z of a run of n bits."""
        return self.parameter**n if self.kind == "bdc" else exp(-self.parameter * n)

    def survivors(self, n: int, size: int, rng: np.random.Generator) -> np.ndarray:
        """Survivors of each of size runs of n bits, one word per run."""
        return self._draw((n,), np.zeros(size, np.int8), rng)

    def count_at_most(self, n: int, ts: Iterable[int], size: int,
                      rng: np.random.Generator) -> list[int]:
        """For each t of ts, how many of size runs of n bits keep at most t
        survivors: the words of survivors(n, size, rng) below the threshold Pr[Z <= t]."""
        table = _stacked_tables(self, (n,))[0][0]
        words, edges = rng.bit_generator.random_raw(size), table.thresholds
        return [0 if t < table.lo else size if t - table.lo >= edges.size
                else int(np.count_nonzero(words < edges[t - table.lo])) for t in ts]

    def copy_counts(self, layout, rng: np.random.Generator) -> np.ndarray:
        """Survivors of each run of a scheme.Layout, one word per run, in run
        order (row by row over a block), each of its class's run length."""
        return self._draw(layout.run_lengths, layout.orig, rng)

    def transmit(self, bits: str, rng: np.random.Generator) -> str:
        """The received string: survivors of the runs of the binary string
        bits, one word per run, in run order, the distinct lengths as classes."""
        bits, lengths = bit_runs(bits)
        distinct, classes = np.unique(lengths, return_inverse=True)
        counts = self._draw(tuple(distinct.tolist()), classes, rng)
        return apply_copy_counts((bits + 48).tobytes().decode(), counts)

    def _draw(self, lengths: tuple[int, ...], classes: np.ndarray,
              rng: np.random.Generator) -> np.ndarray:
        """Survivors of runs of lengths[classes.flat[i]] bits, run i from word
        i of one call: its cell class << _GUIDE_BITS | word >> _CELL_SHIFT of
        the laws' guides stacked, or a search of its own law's thresholds."""
        tables, guides = _stacked_tables(self, lengths)  # a refused law draws nothing
        flat = classes.reshape(-1)
        words = rng.bit_generator.random_raw(flat.size)
        cells = (words >> _CELL_SHIFT).view(np.int64)  # signed indices gather faster
        np.bitwise_or(cells, np.left_shift(flat, _GUIDE_BITS, dtype=np.int32), out=cells)
        z = guides.take(cells)
        hard = (z < 0).nonzero()[0]
        hard_class = flat[hard]
        for c, table in enumerate(tables):
            at = hard[hard_class == c]
            if at.size:  # a search of this law's thresholds
                z[at] = table.lo + table.thresholds.searchsorted(words[at], "right")
        return z.reshape(classes.shape)

    def _law(self, n: int) -> tuple[Callable[[int], float], int, float, int | None]:
        """The survivor law of a run of n bits, Bin(n, 1 - p) or
        Poisson(lambda * n): its log-pmf, mode, variance and last value (None
        on the repeat channel). The log-pmf is read only where the variance
        is positive."""
        if self.kind == "bdc":
            keep = 1.0 - self.parameter
            mode, variance = min(n, floor((n + 1) * keep)), n * keep * (1.0 - keep)
            return (lambda k: lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)
                    + k * log(keep) + (n - k) * log(1.0 - keep)), mode, variance, n
        mu = self.parameter * n
        return (lambda k: -mu + k * log(mu) - lgamma(k + 1)), floor(mu), mu, None


@dataclass(frozen=True, eq=False)
class _SurvivorTable:
    """The inverse CDF of one survivor law (see the module docstring): a
    word w gives lo + #{k : thresholds[k] <= w}, where thresholds[k] is
    Pr[Z <= lo + k] in units of 2**-64. guide holds, for each cell of words
    that share their top _GUIDE_BITS bits, the value of every word in it, or
    -1 where a threshold falls inside the cell."""

    lo: int
    thresholds: np.ndarray
    guide: np.ndarray

    def __post_init__(self) -> None:
        for shared in (self.thresholds, self.guide):  # every caller gets the cached table
            shared.setflags(write=False)

def _survivor_table(channel: ChannelModel, n: int) -> _SurvivorTable:
    log_pmf, mode, variance, top = channel._law(n)
    if 19 * sqrt(variance) > _MAX_TABLE:
        raise ValueError(f"survivor law of {channel} at n={n} is too wide to tabulate")
    lo = hi = mode  # the one value of a law of variance 0: no bits, or every bit kept
    if variance:
        lo, hi = _edge(log_pmf, mode, -1, 0), _edge(log_pmf, mode, 1, top)
    if hi > np.iinfo(RUN_DTYPE).max:  # the largest count drawn must fit the counts' array
        raise ValueError(f"survivor law of {channel} at n={n} reaches {hi}, past int32")
    # each pmf in fixed point with 128 fraction bits: exact sums of the doubles; the
    # one value of a law of variance 0 has no threshold, so its pmf is not read
    scaled = [int(ldexp(exp(log_pmf(k)), 128)) for k in range(lo, hi + 1) if variance]
    below = list(accumulate(scaled))  # below[i]: Pr[Z <= lo + i]
    above = list(accumulate(reversed(scaled)))[::-1][1:]  # above[i]: Pr[Z > lo + i]
    half, one = 1 << 63, 1 << 64
    cuts = [(b + half) >> 64 if b <= a else one - ((a + half) >> 64)
            for b, a in zip(below, above)]
    first, last = bisect_right(cuts, 0), bisect_left(cuts, one)  # values of no mass
    thresholds = np.array(cuts[first:last], np.uint64)
    starts = np.arange(1 << _GUIDE_BITS, dtype=np.uint64) << _CELL_SHIFT
    at_start = np.searchsorted(thresholds, starts, "right")
    at_end = np.searchsorted(thresholds, starts | ((1 << _CELL_SHIFT) - 1), "right")
    guide = np.where(at_start == at_end, lo + first + at_start, -1).astype(RUN_DTYPE)
    return _SurvivorTable(lo + first, thresholds, guide)


@lru_cache(maxsize=_STACKS_KEPT)
def _stacked_tables(channel: ChannelModel,
                    lengths: tuple[int, ...]) -> tuple[list[_SurvivorTable], np.ndarray]:
    """The survivor table of each of lengths, and their guides stacked (read-only)."""
    tables = [_survivor_table(channel, n) for n in lengths]
    guides = np.array([table.guide for table in tables], RUN_DTYPE)
    guides.setflags(write=False)
    return tables, guides


def _edge(log_pmf, mode: int, step: int, end: int | None) -> int:
    """The value k reached from mode in direction step (+1 or -1) once the
    mass beyond k is below 2**-64; end is the law's last value that way, if
    any. The law is log-concave, so past the mode each ratio r = pmf(k +
    step) / pmf(k) bounds those after it, and the mass beyond k is at most
    pmf(k + step) / (1 - r)."""
    k, here = mode, log_pmf(mode)
    while k != end:
        beyond = log_pmf(k + step)
        r = exp(beyond - here)
        if r < 1.0 and beyond - log1p(-r) < _LOG_TAIL:
            break
        k, here = k + step, beyond
    return k
