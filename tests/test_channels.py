"""Channel simulators: distributional sanity, reproducibility, edge cases."""

import re
from math import exp

import numpy as np
import pytest

from delchan.channels import ChannelModel, RngStream, apply_copy_counts
from delchan.scheme import blow_up, lay_out


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
    with pytest.raises(ValueError):
        ChannelModel("prc", 1e19).survivors(1, 1, rng)  # beyond numpy's Poisson range


def masked_loop(bits, lam, rng):
    """The PRC output of bits, one scalar Poisson draw per run, taking the runs
    of each length in turn, shortest first, as transmit does."""
    runs = [(m.group()[0], len(m.group())) for m in re.finditer("0+|1+", bits)]
    counts = [0] * len(runs)
    for n in sorted({length for _, length in runs}):
        for i, (_, length) in enumerate(runs):
            if length == n:
                counts[i] = int(rng.poisson(lam * n))
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
    # are one scalar-parameter draw and leave the generator where it does
    drawn, one = RngStream(9, 0).generator(), RngStream(9, 0).generator()
    survivors = ChannelModel("bdc", 0.99).survivors(541, trials, drawn)
    assert np.array_equal(survivors, one.binomial(541, 0.01, trials))
    assert drawn.random() == one.random()
    assert 0 <= survivors.min() and survivors.max() <= 541


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
    layout = lay_out((0,), (blow_up("1", 2, 5),), 3, edge_buffers=True)
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
