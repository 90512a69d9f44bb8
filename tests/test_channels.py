"""Channel simulators: distributional sanity, reproducibility, edge cases."""

from math import exp

import numpy as np
import pytest

from delchan.channels import (
    ChannelModel,
    RngStream,
    apply_copy_counts,
    bdc_copy_counts,
    bdc_run_survivors,
    poisson_copy_counts,
)


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


def test_bdc_keep_rate():
    rng = RngStream(3, 0).generator()
    counts = bdc_copy_counts(200000, 0.3, rng)
    # 3-sigma band around the Binomial mean
    se = (0.3 * 0.7 / 200000) ** 0.5
    assert abs(counts.mean() - 0.7) < 3 * se
    assert set(np.unique(counts)) <= {0, 1}


def test_vectorized_poisson_moments():
    rng = RngStream(6, 0).generator()
    counts = poisson_copy_counts(100000, 0.5, rng)
    assert abs(counts.mean() - 0.5) < 3 * (0.5 / 100000) ** 0.5
    assert abs(counts.var() - 0.5) < 0.02


def test_poisson_copy_counts_guards():
    rng = RngStream(5, 0).generator()
    assert not poisson_copy_counts(10, 0.0, rng).any()
    with pytest.raises(ValueError):
        poisson_copy_counts(1, -1.0, rng)
    with pytest.raises(ValueError):
        poisson_copy_counts(1, 1000.0, rng)


def masked_knuth(n, lam, rng):
    """poisson_copy_counts as it was, masking all n positions every round."""
    counts = np.zeros(n, dtype=np.int64)
    prod = rng.random(n)
    threshold = exp(-lam)
    active = prod > threshold
    while active.any():
        counts[active] += 1
        prod[active] *= rng.random(int(active.sum()))
        active = prod > threshold
    return counts


@pytest.mark.parametrize("n, lam", [(0, 0.5), (1, 0.5), (766, 0.5), (300, 0.0), (5000, 3.0),
                                    (40, 60.0)])
def test_poisson_copy_counts_match_masked_loop(n, lam):
    # same counts, and the generator is left at the same point
    compact, masked = RngStream(4, n).generator(), RngStream(4, n).generator()
    assert np.array_equal(poisson_copy_counts(n, lam, compact), masked_knuth(n, lam, masked))
    assert compact.random() == masked.random()


@pytest.mark.parametrize("trials", [1, 255, 256, 257, 2000])
def test_bdc_run_survivors_blocks_match_one_draw(trials):
    # blocks of rows read the same uniforms, in the same order, as one draw
    blocked = bdc_run_survivors(trials, 541, 0.99, RngStream(9, 0).generator())
    one = RngStream(9, 0).generator().random((trials, 541)) >= 0.99
    assert np.array_equal(blocked, one.sum(axis=1))


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
    assert len(bdc.copy_counts("1010", rng)) == 4
    with pytest.raises(ValueError):
        ChannelModel("erasure", 0.1)
    with pytest.raises(ValueError):
        ChannelModel("prc", 0.0)
    with pytest.raises(ValueError):
        ChannelModel("bdc", 1.0)
