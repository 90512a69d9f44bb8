"""Channel simulators: distributional sanity, reproducibility, edge cases."""

import re
from dataclasses import replace
from math import exp, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delchan.channels import (ChannelModel, RngStream, _stacked_tables, _survivor_table,
                              apply_copy_counts)
from delchan.outer import OuterSpec, construct_outer
from delchan.scheme import Layout, Scheme, lay_out, run_table
from oracles import draws_per_run, fed


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


def test_transmit_refuses_a_non_binary_string():
    rng = RngStream(2, 0).generator()
    for bits in ("1a1", "12", "1 0", "1\u00e9"):
        with pytest.raises(ValueError, match="^received string must be binary$"):
            ChannelModel("bdc", 0.3).transmit(bits, rng)


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
    # runs of 3, 2, 2, 5 and 1 bits: one survivors call per run, in string
    # order, and the generator is left where those calls leave it
    prc = ChannelModel("prc", 3.0)
    drawn, rng = RngStream(10, 0).generator(), RngStream(10, 0).generator()
    received = prc.transmit("1110011000001", drawn)
    counts = np.concatenate([prc.survivors(n, 1, rng) for n in (3, 2, 2, 5, 1)])
    assert received == apply_copy_counts("10101", counts)
    assert drawn.bit_generator.state == rng.bit_generator.state


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
    with pytest.raises(ValueError, match="reaches 2147483648, past int32"):
        ChannelModel("bdc", 1e-9).survivors(2**31, 1, rng)  # may keep every bit
    assert rng.bit_generator.state == state
    # the counts drawn, not the run length, must fit int32
    assert ChannelModel("bdc", 1 - 1e-7).survivors(2**31 - 1, 3, rng).dtype == np.int32
    assert ChannelModel("bdc", 1e-3).survivors(2**31, 3, rng).max() < 2**31
    assert 0 < ChannelModel("prc", 1e-6).survivors(2**32, 3, rng).max() < 10**4


def masked_loop(bits, lam, rng):
    """The PRC output of bits, one survivors call per run, in string order,
    as transmit draws them."""
    runs = [(m.group()[0], len(m.group())) for m in re.finditer("0+|1+", bits)]
    counts = draws_per_run(ChannelModel("prc", lam), [n for _, n in runs], rng).tolist()
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
    channel = ChannelModel(kind, parameter)
    table, values, _ = _table_law(channel, n)
    cells = np.arange(1 << 12, dtype=np.uint64) << 52
    words = np.concatenate((cells, cells | ((1 << 52) - 1), table.thresholds,
                            table.thresholds - 1, table.thresholds + 1))
    expected = table.lo + np.searchsorted(table.thresholds, words, "right")
    assert np.array_equal(channel.survivors(n, words.size, fed(words)), expected)
    ends = channel.survivors(n, 2, fed(np.array([0, 2**64 - 1], np.uint64)))
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
    ends = fed(np.array([0, 2**64 - 1], np.uint64))
    assert ChannelModel("bdc", 0.0).survivors(7, 2, ends).tolist() == [7, 7]
    # the exact tails of a law of variance 0 are 0 and 1
    assert ChannelModel("bdc", 0.0).at_most(7, 6) == 0.0
    assert ChannelModel("bdc", 0.0).at_most(7, 7) == 1.0
    for t in (0, 1, 5):
        assert ChannelModel("prc", 0.5).at_most(0, t) == 1.0
        assert ChannelModel("prc", 0.5).more_than(0, t) == 0.0


# Laws of variance 0 (p = 0, 1 - p rounding to 1, n = 0), narrow and wide ones.
COUNT_LAWS = [("bdc", 0.0), ("bdc", 1e-20), ("bdc", 0.3), ("bdc", 0.99),
              ("prc", 1e-6), ("prc", 0.5), ("prc", 13.5)]
COUNT_NS = [0, 1, 6, 541, 2280]


@settings(max_examples=150, deadline=None)
@given(law=st.sampled_from(COUNT_LAWS), n=st.sampled_from(COUNT_NS),
       size=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_count_at_most_matches_survivors(law, n, size, seed, data):
    # the counts of the survivors drawn from a twin stream, for t from two
    # below the table's first value to two past its last, negatives included;
    # both calls leave their streams in the same state
    channel = ChannelModel(*law)
    table = _survivor_table(channel, n)
    top = table.lo + table.thresholds.size
    ts = data.draw(st.lists(st.integers(table.lo - 2, top + 2), max_size=5))
    counted, drawn = RngStream(seed, n).generator(), RngStream(seed, n).generator()
    z = channel.survivors(n, size, drawn)
    assert channel.count_at_most(n, ts, size, counted) == [int((z <= t).sum()) for t in ts]
    assert counted.bit_generator.state == drawn.bit_generator.state


@pytest.mark.parametrize("law", COUNT_LAWS)
def test_count_at_most_at_the_thresholds(law):
    # words on, just below and just above every threshold, and the extreme
    # words, are counted as the table draws them
    channel = ChannelModel(*law)
    for n in COUNT_NS:
        table = _survivor_table(channel, n)
        words = np.concatenate((table.thresholds, table.thresholds - 1, table.thresholds + 1,
                                np.array([0, 2**64 - 1], np.uint64)))
        ts = range(table.lo - 2, table.lo + table.thresholds.size + 3)
        z = channel.survivors(n, words.size, fed(words))
        assert channel.count_at_most(n, ts, words.size, fed(words)) == [
            int((z <= t).sum()) for t in ts]


def _twin_stream_layouts(bdc_desk, prc_desk):
    """Block layouts: encode_block blocks of 0, 1 and 32 rows on the desk
    BDC and of 256 rows on the desk PRC (with a 4-symbol outer code, to keep
    the loop short), edge-buffered single-codeword blocks of 7 and 256 rows,
    and layouts of a profile with no 2-runs on both."""
    rows = RngStream(14, 0).generator().integers(0, 256, 256)
    for trials in (0, 1, 32):
        yield bdc_desk.params.channel, bdc_desk.encode_block(rows[:trials])
    spec = OuterSpec(4, 4, 1, 0.25)
    short = Scheme(replace(prc_desk.params, outer=spec), prc_desk.inner_cb,
                   construct_outer(spec, 1))
    yield prc_desk.params.channel, short.encode_block(rows % 4)
    for s, trials in ((bdc_desk, 7), (prc_desk, 256)):
        symbols = rows[:trials, None] % len(s.inner_cb)
        yield s.params.channel, lay_out(symbols, s.run_table, edge_buffers=True)
        ones = run_table(["10101", "10101"], s.B, s.N1, s.N2)
        yield s.params.channel, lay_out(rows[:40].reshape(8, 5) % 2, ones)
        yield s.params.channel, lay_out(rows[:3, None] % 2, ones, edge_buffers=True)


def test_copy_counts_match_one_draw_per_run(bdc_desk, prc_desk):
    # copy_counts equals one survivors call per run in row-major order, and
    # leaves the generator where that loop leaves it
    for index, (channel, layout) in enumerate(_twin_stream_layouts(bdc_desk, prc_desk)):
        drawn, looped = RngStream(15, index).generator(), RngStream(15, index).generator()
        counts = channel.copy_counts(layout, drawn)
        assert counts.dtype == np.int32 and counts.shape == layout.orig.shape
        looped_counts = draws_per_run(channel, layout.lengths.reshape(-1).tolist(), looped)
        assert np.array_equal(counts, looped_counts.reshape(layout.orig.shape)), index
        assert drawn.bit_generator.state == looped.bit_generator.state



def test_a_refused_law_in_a_block_draws_nothing(prc_desk):
    # a Layout whose 2-runs have a law too wide to tabulate is refused before
    # any word is drawn, after its other classes' tables were cached, and a
    # refused stack is not cached: the same draw is refused again
    rng = RngStream(6, 0).generator()
    good = lay_out(np.zeros((3, 1), np.int64), prc_desk.run_table, edge_buffers=True)
    wide = Layout(good.symbols, good.orig, (prc_desk.B, prc_desk.N1, 10**15))
    state = rng.bit_generator.state
    for _ in range(2):
        with pytest.raises(ValueError, match="too wide to tabulate"):
            prc_desk.params.channel.copy_counts(wide, rng)
        assert rng.bit_generator.state == state
    assert prc_desk.params.channel.copy_counts(good, rng).shape == good.orig.shape


def test_cached_draw_tables_are_read_only(bdc_desk):
    # every draw of one (channel, run lengths) reads the same cached guides
    # and thresholds, so no caller may write to them
    channel, run_lengths = bdc_desk.params.channel, (bdc_desk.B, bdc_desk.N1, bdc_desk.N2)
    channel.copy_counts(bdc_desk.encode_block(np.arange(2)), RngStream(3, 0).generator())
    tables, guides = _stacked_tables(channel, run_lengths)
    assert _stacked_tables(channel, run_lengths)[1] is guides
    assert guides.shape == (3, 4096)
    for table, row in zip(tables, guides):
        assert np.array_equal(row, table.guide)
        for shared in (guides, table.guide, table.thresholds):
            assert not shared.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 0


def test_count_at_most_reads_the_cached_draw_table():
    # one cache holds the survivor tables: count_at_most builds and reads the
    # stack kept for draws of (n,), so its thresholds are that table's array,
    # which survivors(n) reads too
    channel, n = ChannelModel("bdc", 0.3), 541
    _stacked_tables.cache_clear()
    channel.count_at_most(n, [378], 4, RngStream(5, 0).generator())
    assert _stacked_tables.cache_info()[:2] == (0, 1)  # (hits, misses)
    (table,), _ = _stacked_tables(channel, (n,))
    channel.survivors(n, 4, RngStream(5, 0).generator())
    assert _stacked_tables.cache_info()[:2] == (2, 1)
    assert _stacked_tables(channel, (n,))[0][0].thresholds is table.thresholds


@pytest.mark.parametrize("law, run_lengths", [
    (("bdc", 0.3), (90, 6, 20)), (("prc", 0.5), (125, 8, 27)),
    (("bdc", 0.99), (225, 541, 2280)), (("bdc", 0.0), (7, 1, 2)), (("prc", 1e-6), (0, 1, 6))])
def test_copy_counts_at_the_thresholds(law, run_lengths):
    # words on, just below and just above every threshold of each class's
    # law, the extreme words and the edges of every guide cell, fed to runs
    # of the three classes in a shuffled order: each run's count is its own
    # law's inverse at its own word
    channel = ChannelModel(*law)
    cells = np.arange(1 << 12, dtype=np.uint64) << 52
    words, orig = [], []
    for c, n in enumerate(run_lengths):
        edges = _survivor_table(channel, n).thresholds
        words.append(np.concatenate((edges, edges - 1, edges + 1, cells, cells | (1 << 52) - 1,
                                     np.array([0, 2**64 - 1], np.uint64))))
        orig.append(np.full(words[-1].size, c, np.int8))
    order = RngStream(16, 0).generator().permutation(sum(w.size for w in words))
    words, orig = np.concatenate(words)[order], np.concatenate(orig)[order]
    expected = np.empty(words.size, np.int64)
    for c, n in enumerate(run_lengths):
        table, at = _survivor_table(channel, n), orig == c
        expected[at] = table.lo + np.searchsorted(table.thresholds, words[at], "right")
    layout = Layout((), orig, run_lengths)
    assert channel.copy_counts(layout, fed(words)).tolist() == expected.tolist()


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
    layout = lay_out((0,), run_table(("1",), 3, 2, 5), edge_buffers=True)
    assert len(bdc.copy_counts(layout, rng)) == 3  # one survivor count per run
    with pytest.raises(ValueError):
        ChannelModel("erasure", 0.1)
    with pytest.raises(ValueError):
        ChannelModel("prc", 0.0)
    with pytest.raises(ValueError):
        ChannelModel("bdc", 1.0)


@pytest.mark.parametrize("kind,parameter", [("bdc", 0.3), ("bdc", 0.99), ("prc", 0.5),
                                            ("bdc", 0.0), ("bdc", 1e-20)])
def test_survivor_law_tails_complement(kind, parameter):
    channel = ChannelModel(kind, parameter)
    for n in (0, 6, 20, 541, 2280):
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
