"""Channel simulators: distributional sanity, reproducibility, edge cases."""

import re
from math import exp, sqrt

import numpy as np
import pytest

from delchan.channels import ChannelModel, RngStream, _survivor_table, apply_copy_counts
from delchan.scheme import blow_up, lay_out, run_table


def test_stream_reproducibility_and_independence():
    a = RngStream(42, 0).generator().random(5)
    b = RngStream(42, 0).generator().random(5)
    c = RngStream(42, 1).generator().random(5)
    d = RngStream(43, 0).generator().random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_bdc_output_is_subsequence():
    rng = RngStream(1, 0).generator()
    bits = "1100101110"
    channel = ChannelModel("bdc", 0.4)
    for _ in range(50):
        out = channel.transmit(bits, rng)
        it = iter(bits)
        assert all(ch in it for ch in out)


def test_bdc_edge_probabilities():
    rng = RngStream(2, 0).generator()
    assert ChannelModel("bdc", 0.0).transmit("10101", rng) == "10101"
    with pytest.raises(ValueError):
        ChannelModel("bdc", 1.0).transmit("1", rng)
    with pytest.raises(ValueError):
        ChannelModel("bdc", -0.1).transmit("1", rng)


def _assert_moments(counts, mean, var, fourth):
    # 3-sigma bands around the mean and the variance; fourth is the central fourth moment
    size = counts.size
    assert abs(counts.mean() - mean) < 3 * (var / size) ** 0.5
    assert abs(counts.var() - var) < 3 * ((fourth - var**2) / size) ** 0.5


def test_bdc_keep_rate():
    # Bin(n, 0.7): a 2-run and a buffer of the desk BDC scheme
    pq = 0.7 * 0.3
    for n in (20, 90):
        counts = ChannelModel("bdc", 0.3).survivors(n, 200000, RngStream(3, n).generator())
        _assert_moments(counts, 0.7 * n, n * pq, n * pq * (1 + 3 * (n - 2) * pq))
        assert 0 <= counts.min() and counts.max() <= n


def test_vectorized_poisson_moments():
    # Poisson(0.5 n): a 1-run and a 2-run of the desk PRC scheme
    for n in (8, 27):
        counts = ChannelModel("prc", 0.5).survivors(n, 200000, RngStream(6, n).generator())
        mean = 0.5 * n
        _assert_moments(counts, mean, mean, mean + 3 * mean**2)


def test_transmit_draws_once_per_run_length():
    # runs of 3, 2, 2, 5 and 1 bits: one draw per length, shortest first
    prc = ChannelModel("prc", 3.0)
    received = prc.transmit("1110011000001", RngStream(10, 0).generator())
    rng = RngStream(10, 0).generator()
    z1, z2, z3, z5 = (prc.survivors(n, size, rng) for n, size in ((1, 1), (2, 2), (3, 1), (5, 1)))
    counts = np.concatenate((z3, z2[:1], z2[1:], z5, z1))
    assert received == apply_copy_counts("10101", counts)


def test_poisson_copy_counts_guards():
    rng = RngStream(5, 0).generator()
    assert not ChannelModel("prc", 0.5).survivors(0, 10, rng).any()  # runs of no bits
    with pytest.raises(ValueError):
        ChannelModel("prc", -1.0)
    with pytest.raises(ValueError, match="too wide to tabulate"):
        ChannelModel("prc", 1e19).survivors(1, 1, rng)  # beyond the largest table
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="too wide to tabulate"):
        ChannelModel("bdc", 0.5).survivors(10**11, 1, rng)
    assert rng.bit_generator.state == state  # a refused law draws nothing


def masked_loop(bits, lam, rng):
    """The PRC output of bits, one survivors call per run, taking the runs
    of each length in turn, shortest first, as transmit does."""
    runs = [(m.group()[0], len(m.group())) for m in re.finditer("0+|1+", bits)]
    counts = [0] * len(runs)
    for n in sorted({length for _, length in runs}):
        for i, (_, length) in enumerate(runs):
            if length == n:
                counts[i] = int(ChannelModel("prc", lam).survivors(n, 1, rng)[0])
    return "".join(bit * count for (bit, _), count in zip(runs, counts))


@pytest.mark.parametrize("n, lam", [(0, 0.5), (1, 0.5), (766, 0.5), (5000, 3.0), (40, 60.0)])
def test_poisson_copy_counts_match_masked_loop(n, lam):
    # same output for n random bits, and the generator is left at the same point
    bits = "".join(map(str, RngStream(11, n).generator().integers(0, 2, n)))
    compact, looped = RngStream(4, n).generator(), RngStream(4, n).generator()
    assert ChannelModel("prc", lam).transmit(bits, compact) == masked_loop(bits, lam, looped)
    assert compact.random() == looped.random()


@pytest.mark.parametrize("trials", [1, 255, 256, 257, 2000])
def test_bdc_run_survivors_blocks_match_one_draw(trials):
    # the survivors of a block of trials' runs, as run_transition draws them,
    # are those of one run at a time in order and leave the generator where they do
    drawn, one = RngStream(9, 0).generator(), RngStream(9, 0).generator()
    channel = ChannelModel("bdc", 0.99)
    survivors = channel.survivors(541, trials, drawn)
    assert np.array_equal(survivors,
                          np.concatenate([channel.survivors(541, 1, one) for _ in range(trials)]))
    assert drawn.random() == one.random()
    assert 0 <= survivors.min() and survivors.max() <= 541


def _table_law(channel, n):
    """The survivor table's values lo..hi and its Pr[Z <= k] for each, exactly."""
    table = _survivor_table(channel, n)
    below = [int(t) for t in table.thresholds] + [1 << 64]
    return table, range(table.lo, table.lo + len(below)), below


@pytest.mark.parametrize("kind, parameter, ns", [("bdc", 0.3, (6, 20, 90)),
                                                 ("prc", 0.5, (8, 27, 125)),
                                                 ("bdc", 0.99, (541, 2280))])
def test_survivor_table_matches_the_exact_law(kind, parameter, ns):
    # each tail of the table is at_most (below the median) or more_than
    # (above it) rounded to 64 bits; the mass beyond its ends is negligible
    channel = ChannelModel(kind, parameter)
    for n in ns:
        _, values, below = _table_law(channel, n)
        assert all(a <= b for a, b in zip(below, below[1:]))
        for k, cut in zip(values, below):
            at_most, more_than = channel.at_most(n, k), channel.more_than(n, k)
            if at_most <= more_than:
                assert abs(cut / 2**64 - at_most) < 1e-14, (n, k)
            else:
                assert abs(((1 << 64) - cut) / 2**64 - more_than) < 1e-14, (n, k)
        outside = channel.at_most(n, values[0] - 1) + channel.more_than(n, values[-1])
        assert outside < 2.0**-60, n


@pytest.mark.parametrize("kind, parameter, n", [("bdc", 0.3, 90), ("prc", 0.5, 27),
                                                ("bdc", 0.99, 2280), ("prc", 1000.0, 1)])
def test_survivor_table_guide_agrees_with_search(kind, parameter, n):
    # every cell's first and last word, and the words around each threshold,
    # give the value a search of the thresholds gives; the extreme words stay in range
    table, values, _ = _table_law(ChannelModel(kind, parameter), n)
    cells = np.arange(1 << 12, dtype=np.uint64) << 52
    words = np.concatenate((cells, cells | ((1 << 52) - 1), table.thresholds,
                            table.thresholds - 1, table.thresholds + 1))
    expected = table.lo + np.searchsorted(table.thresholds, words, "right")
    assert np.array_equal(table.draw(words), expected)
    ends = table.draw(np.array([0, 2**64 - 1], np.uint64))
    assert ends.tolist() == [values[0], values[-1]]


def test_survivor_edge_laws():
    rng = RngStream(12, 0).generator()
    assert (ChannelModel("bdc", 0.0).survivors(7, 50, rng) == 7).all()  # nothing deleted
    assert (ChannelModel("bdc", 1e-20).survivors(7, 50, rng) == 7).all()  # 1 - p rounds to 1
    for channel in (ChannelModel("bdc", 0.3), ChannelModel("prc", 0.5)):
        assert not channel.survivors(0, 50, rng).any()  # runs of no bits
    for channel, n in [(ChannelModel("bdc", 0.0), 7), (ChannelModel("prc", 0.5), 0),
                       (ChannelModel("bdc", 0.3), 90)]:  # one word per run, whatever the law
        drawn, stepped = RngStream(12, n).generator(), RngStream(12, n).generator()
        channel.survivors(n, 3, drawn)
        stepped.bit_generator.random_raw(3)
        assert drawn.random() == stepped.random()
    table = _survivor_table(ChannelModel("bdc", 0.0), 7)
    assert table.draw(np.array([0, 2**64 - 1], np.uint64)).tolist() == [7, 7]


def _chi_square_bound(df: int, z: float = 5.0) -> float:
    """The chi-square quantile z standard deviations up (Wilson-Hilferty)."""
    return df * (1 - 2 / (9 * df) + z * sqrt(2 / (9 * df))) ** 3


@pytest.mark.parametrize("kind, parameter, n", [("bdc", 0.3, 90), ("bdc", 0.99, 2280),
                                                ("prc", 0.5, 27), ("prc", 0.5, 125)])
def test_survivors_match_numpy_samplers(kind, parameter, n):
    # two-sample chi-square against numpy's own sampler, the oracle, at 10**6
    # draws each; values outside the oracle's central 99.8% are lumped per tail
    channel = ChannelModel(kind, parameter)
    rng = RngStream(13, n).generator()
    drawn = channel.survivors(n, 10**6, rng)
    oracle = (rng.binomial(n, 1.0 - parameter, 10**6) if kind == "bdc"
              else rng.poisson(parameter * n, 10**6))
    lo, hi = np.quantile(oracle, [0.001, 0.999]).astype(int)
    a, b = (np.bincount(np.clip(x, lo - 1, hi + 1) - (lo - 1), minlength=hi - lo + 3)
            for x in (drawn, oracle))
    statistic = float((((a - b) ** 2) / (a + b)).sum())
    assert statistic < _chi_square_bound(a.size - 1), (statistic, a.size)


def test_prc_transmit_expands_copies():
    rng = RngStream(7, 0).generator()
    out = ChannelModel("prc", 3.0).transmit("10", rng)
    # output is a block of 1s followed by a block of 0s
    assert out == "1" * out.count("1") + "0" * out.count("0")


def test_apply_copy_counts():
    assert apply_copy_counts("101", np.array([2, 0, 3])) == "11111"
    with pytest.raises(ValueError):
        apply_copy_counts("10", np.array([1]))


def test_channel_model():
    bdc = ChannelModel("bdc", 0.3)
    prc = ChannelModel("prc", 0.5)
    assert bdc.mean_copies == 0.7
    assert prc.mean_copies == 0.5
    rng = RngStream(8, 0).generator()
    layout = lay_out((0,), run_table((blow_up("1", 2, 5),), 3), edge_buffers=True)
    assert len(bdc.copy_counts(layout, rng)) == 3  # one survivor count per run
    with pytest.raises(ValueError):
        ChannelModel("erasure", 0.1)
    with pytest.raises(ValueError):
        ChannelModel("prc", 0.0)
    with pytest.raises(ValueError):
        ChannelModel("bdc", 1.0)


@pytest.mark.parametrize("kind,parameter", [("bdc", 0.3), ("bdc", 0.99), ("prc", 0.5)])
def test_survivor_law_tails_complement(kind, parameter):
    channel = ChannelModel(kind, parameter)
    for n in (6, 20, 541, 2280):
        for t in (-1, 0, 8, 12, 13):
            assert abs(channel.at_most(n, t) + channel.more_than(n, t) - 1.0) < 1e-12, (n, t)


def test_survivor_law_none_left_and_run_length():
    bdc, prc = ChannelModel("bdc", 0.3), ChannelModel("prc", 0.5)
    for n in (6, 20, 541, 2280):
        assert bdc.none_left(n) == 0.3**n
        assert prc.none_left(n) == exp(-0.5 * n)
        assert bdc.at_most(n, 0) == pytest.approx(bdc.none_left(n), rel=1e-9, abs=1e-300)
        assert prc.at_most(n, 0) == pytest.approx(prc.none_left(n), rel=1e-9, abs=1e-300)
    assert ChannelModel("bdc", 0.57).run_length(20.21) == 47  # 46.99999... snaps to 47
