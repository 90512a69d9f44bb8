"""Run-length utilities and the constrained string family, checked against
independent dynamic-programming oracles."""

import random
import re
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import delchan.strings
from delchan.strings import (
    _PAIRS,
    MAX_STEPS,
    SProfile,
    bit_rows,
    bit_runs,
    enumerate_S,
    first_close_pair,
    greedy,
    lcs_len,
    lcs_rows,
    lane_masks,
    lane_symbols,
    refuse_long_pass,
    sequence_lcs_len,
)
from oracles import (
    bits_of,
    edit_distance,
    enumerate_S_by_runs,
    first_close_pair_by_pairs,
    greedy_by_pairs,
    in_S,
    is_subsequence,
    lane_masks_by_row,
    profile_of,
    runs_of,
)


def lcs_dp(a, b):
    """Classic quadratic LCS table; the oracle for the bit-parallel version."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(max(prev[j + 1], cur[j], prev[j] + (x == y)))
        prev = cur
    return prev[-1]


def test_runs_roundtrip():
    assert runs_of("0111001") == [(0, 1), (1, 3), (0, 2), (1, 1)]
    assert bits_of(runs_of("0111001")) == "0111001"
    assert runs_of("") == []
    for s in ("", "0", "1", "0111001", "1100100011", "01" * 40, "1" * 70):
        assert list(zip(*(a.tolist() for a in bit_runs(s)))) == runs_of(s)


def test_lcs_known_values():
    # "11001" is "1110101" with two bits deleted, hence a subsequence
    assert lcs_len("1110101", "11001") == 5
    assert lcs_len("", "101") == 0
    assert lcs_len("1010", "1010") == 4


def test_lcs_matches_dp_oracle():
    rnd = random.Random(1234)
    for _ in range(500):
        a = "".join(rnd.choice("01") for _ in range(rnd.randrange(0, 40)))
        b = "".join(rnd.choice("01") for _ in range(rnd.randrange(0, 40)))
        expected = lcs_dp(a, b)
        assert lcs_len(a, b) == expected
        assert lcs_len(b, a) == expected
        assert edit_distance(a, b) == len(a) + len(b) - 2 * expected


def test_sequence_lcs_matches_dp_oracle():
    rnd = random.Random(99)
    for _ in range(300):
        a = [rnd.randrange(5) for _ in range(rnd.randrange(0, 25))]
        b = [rnd.randrange(5) for _ in range(rnd.randrange(0, 25))]
        assert sequence_lcs_len(a, b) == lcs_dp(a, b)


def int_lane_masks(lanes, q, n):
    """lane_masks of lanes given as lists of ints."""
    return lane_masks(np.array(lanes, np.int64).reshape(len(lanes), n), q)


def one_row_lcs(seq, masks, n):
    """lcs_rows of the one symbol sequence seq: its one-row case, which ANDs
    each symbol's plane and gathers none."""
    return lcs_rows(np.array([seq], np.int64), masks, n)[0]


@st.composite
def lane_cases(draw):
    """Equal-length lanes over [0, q) and a sequence that may hold symbols
    outside [0, q), around the 32- and 64-bit word boundaries."""
    n = draw(st.sampled_from([1, 8, 31, 32, 33, 63, 64, 65, 128, 130]))
    q = draw(st.integers(2, 4))
    symbols = st.integers(0, q - 1)
    lanes = draw(st.lists(st.lists(symbols, min_size=n, max_size=n), min_size=1, max_size=4))
    if draw(st.booleans()):  # one symbol per 64-bit word: carries run across words
        blocks = draw(st.lists(symbols, min_size=3, max_size=3))
        lanes.append([blocks[i // 64] for i in range(n)])
    a = draw(st.lists(st.integers(-2, q + 1), max_size=2 * n + 2))
    return n, q, lanes, a


@settings(max_examples=150, deadline=None)
@given(lane_cases())
def test_lcs_lanes_matches_scalar_oracles(case):
    n, q, lanes, a = case
    got = one_row_lcs(a, int_lane_masks(lanes, q, n), n)
    assert got.tolist() == [lcs_dp(a, lane) for lane in lanes]
    assert got.tolist() == [sequence_lcs_len(a, lane) for lane in lanes]


@st.composite
def row_cases(draw):
    """0-3 lanes of n symbols in [0, q), with a lane of one symbol per 64-bit
    word when there are lanes, and 0-3 ragged sequences that may hold
    symbols outside [0, q), padded into rows with one such symbol."""
    n = draw(st.sampled_from([8, 31, 32, 33, 63, 64, 65, 130]))
    q = draw(st.integers(2, 4))
    symbols = st.integers(0, q - 1)
    lanes = draw(st.lists(st.lists(symbols, min_size=n, max_size=n), max_size=3))
    if lanes and draw(st.booleans()):
        blocks = draw(st.lists(symbols, min_size=3, max_size=3))
        lanes.append([blocks[i // 64] for i in range(n)])
    seqs = draw(st.lists(st.lists(st.integers(-1, q), max_size=n + 2), max_size=3))
    pad = draw(st.sampled_from([-1, q, q + 5]))
    width = max(map(len, seqs), default=draw(st.integers(0, 2)))
    rows = np.array([seq + [pad] * (width - len(seq)) for seq in seqs], np.int64)
    return n, q, lanes, seqs, rows.reshape(len(seqs), width)


@settings(max_examples=150, deadline=None)
@given(row_cases())
# one row, its symbols inside and outside [0, q)
@example((3, 2, [[0, 1, 1], [1, 0, 0]], [[-2, 1, 3, 0, 2, 1]], np.array([[-2, 1, 3, 0, 2, 1]])))
def test_lcs_rows_matches_scalar_oracle(case):
    n, q, lanes, seqs, rows = case
    got = lcs_rows(rows, int_lane_masks(lanes, q, n), n)
    assert got.shape == (len(seqs), len(lanes))
    assert got.tolist() == [[sequence_lcs_len(seq, lane) for lane in lanes] for seq in seqs]
    assert got.tolist() == [[lcs_dp(seq, lane) for lane in lanes] for seq in seqs]


@st.composite
def mask_cases(draw):
    """0-4 rows of n symbols in [0, q), around the 32- and 64-bit word
    boundaries, with alphabets of up to 300 symbols."""
    n = draw(st.sampled_from([1, 8, 31, 32, 33, 63, 64, 65, 128, 130]))
    q = draw(st.one_of(st.integers(2, 5), st.sampled_from([81, 100, 300])))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), max_size=4))
    return np.array(rows, np.int64).reshape(len(rows), n), q


@settings(max_examples=150, deadline=None)
@given(mask_cases())
def test_lane_masks_match_row_by_row_oracle(case):
    rows, q = case
    got, expected = lane_masks(rows, q), lane_masks_by_row(rows, q)
    assert got.shape == expected.shape == (q, len(rows), -(-rows.shape[1] // 64))
    assert got.dtype == (np.uint32 if rows.shape[1] <= 32 else np.uint64)
    assert np.array_equal(got, expected)


@st.composite
def symbol_rows(draw):
    """0-4 rows of n in [1, 70] symbols in [0, q), q in [2, 300]: across the
    uint32/uint64 lane switch at n = 32 and the word boundary at 64."""
    q, n = draw(st.integers(2, 300)), draw(st.integers(1, 70))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), max_size=4))
    return np.array(rows, np.int64).reshape(len(rows), n), q


@settings(max_examples=150, deadline=None)
@given(symbol_rows())
def test_lane_symbols_read_back_lane_masks(case):
    rows, q = case
    got = lane_symbols(lane_masks(rows, q), rows.shape[1])
    assert got.shape == rows.shape and np.array_equal(got, rows)


def test_lane_masks_of_the_desk_family():
    rows = enumerate_S(SProfile(25, 13, 6))
    assert np.array_equal(lane_masks(rows, 2), lane_masks_by_row(rows, 2))


@pytest.mark.parametrize("n", [8, 31, 32, 33, 64, 65])
def test_lcs_at_the_word_width_boundaries(n):
    """Lanes of one uint32 word up to n = 32, uint64 words above; lanes of
    one symbol carry into the top bit of the word, or across words."""
    rnd = random.Random(n)
    for q in (2, 3):
        lanes = [[rnd.randrange(q) for _ in range(n)] for _ in range(6)] + [[0] * n, [q - 1] * n]
        masks = int_lane_masks(lanes, q, n)
        assert masks.dtype == (np.uint32 if n <= 32 else np.uint64)
        seqs = [[rnd.randrange(q) for _ in range(rnd.randrange(2 * n + 3))] for _ in range(8)]
        seqs += [[0] * (n + 1), lanes[0], []]
        width = max(map(len, seqs))
        rows = np.array([seq + [q] * (width - len(seq)) for seq in seqs], np.int64)
        expected = [[sequence_lcs_len(seq, lane) for lane in lanes] for seq in seqs]
        assert lcs_rows(rows, masks, n).tolist() == expected
        assert [one_row_lcs(seq, masks, n).tolist() for seq in seqs] == expected


@st.composite
def greedy_cases(draw):
    """1-4 rows of n symbols in [0, q), then copies and splices of two drawn
    rows (a splice can reach two kept rows), shuffled, and a threshold."""
    n = draw(st.sampled_from([1, 63, 64, 65, 130]))
    q = draw(st.sampled_from([2, 3, 4, 81]))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        cut = draw(st.integers(0, n))
        rows.append(a[:cut] + b[cut:])
    rows = draw(st.permutations(rows))
    return np.array(rows, np.int64), q, draw(st.integers(0, n + 1))


# pass budgets in pairs: 1, 2 and 5 read one or a few rows a pass, 2**14 is _PAIRS
BUDGETS = st.sampled_from([1, 2, 5, 1 << 14])


@settings(max_examples=100, deadline=None)
@given(greedy_cases(), BUDGETS)
# rows 0 and 1 are kept; row 2 is close to both, and row 3 repeats row 1
@example((np.array([[0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 1, 1], [1, 1, 1, 1]]), 2, 2), 1 << 14)
def test_greedy_matches_pairwise_loop(case, budget):
    rows, q, threshold = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(delchan.strings, "_PAIRS", budget)
        by = greedy(lane_masks(rows, q), rows.shape[1], threshold)
    assert by.tolist() == greedy_by_pairs(rows.tolist(), threshold)


def test_greedy_groups_match_pairwise_loop(monkeypatch):
    """300 far-apart rows: _PAIRS caps the rows of a pass, and copies put a
    row and the row that drops it in one pass."""
    rows = np.random.default_rng(7).integers(0, 4, size=(300, 32))
    for i in (15, 33, 150, 290):
        rows[i + 1] = rows[i]
    # rows 17 and 19 differ from row 15 in 6 and 3 symbols: both row 15 and
    # row 17 are kept and close to row 19, and the first of them drops it
    for i, changed in ((17, [2, 7, 12, 17, 22, 27]), (19, [2, 7, 12])):
        rows[i] = rows[15]
        rows[i, changed] = (rows[i, changed] + 2) % 4
    groups = []

    def spy(group, masks, n):
        groups.append((group.copy(), masks.shape[1]))
        return lcs_rows(group, masks, n)

    monkeypatch.setattr(delchan.strings, "lcs_rows", spy)
    by = greedy(lane_masks(rows, 4), 32, 28).tolist()
    assert by == greedy_by_pairs(rows.tolist(), 28)
    assert by[15:20] == [15, 15, 17, 18, 15]
    assert any({15, 17, 19} <= {j for j, row in enumerate(rows) if (row == group).all(1).any()}
               for group, _ in groups)  # one pass settles rows 15, 17 and 19
    sizes = [(len(group), lanes) for group, lanes in groups]
    assert all(g == 1 or g * lanes <= _PAIRS for g, lanes in sizes)
    assert any(1 < g == _PAIRS // lanes for g, lanes in sizes)  # the cap sets g
    # a group that holds a row and its copy: the copy is dropped inside the group
    assert any(len(np.unique(group, axis=0)) < len(group) for group, _ in groups)


@st.composite
def close_pair_cases(draw):
    """0-40 seeded rows of n symbols in [0, q), copies and near-copies (up to
    3 symbols changed) of drawn rows planted at drawn rows, and a threshold
    from 0 to n + 1 (often within 3 of n)."""
    q, n = draw(st.integers(2, 80)), draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, q, size=(draw(st.integers(0, 40)), n))
    for _ in range(draw(st.integers(0, 4)) if len(rows) else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))].copy()
        changed = rng.integers(0, n, draw(st.integers(0, 3)))
        row[changed] = (row[changed] + 1) % q
        rows[draw(st.integers(0, len(rows) - 1))] = row
    threshold = draw(st.one_of(st.integers(max(0, n - 3), n + 1), st.integers(0, n + 1)))
    return rows, q, threshold


@settings(max_examples=150, deadline=None)
@given(close_pair_cases(), BUDGETS)
def test_first_close_pair_matches_greedy_pass(case, budget):
    rows, q, threshold = case
    expected = first_close_pair_by_pairs(rows.tolist(), threshold)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(delchan.strings, "_PAIRS", budget)
        assert first_close_pair(lane_masks(rows, q), rows.shape[1], threshold) == expected


# 8 far-apart rows with copies planted ({row: the row it copies}). With _PAIRS = 20
# a pass reads max(1, 20 // alive) rows: rows 0-1 against 8 lanes, and so on. Each
# pass of greedy is (rows read, lanes, whether the lanes are a view of the pass
# before's): a pass that drops no row keeps a view, and one that drops compacts them.
# first_close_pair runs greedy's passes up to the one that finds its pair.
@pytest.mark.parametrize("copies, pair, blocks", [
    ({4: 2}, (2, 4), [(2, 8, True), (3, 6, True), (3, 3, False)]),  # both rows in one pass
    ({3: 1}, (1, 3), [(2, 8, True), (4, 5, False), (1, 1, True)]),  # one pass finds it
    ({6: 4}, (4, 6), [(2, 8, True), (3, 6, True), (2, 2, False)]),  # from a pass's last row
    ({7: 6}, (6, 7), [(2, 8, True), (3, 6, True), (3, 3, True)]),  # both rows in the last pass
    ({6: 1, 3: 2}, (1, 6), [(2, 8, True), (4, 5, False), (1, 1, False)]),  # the first row decides
    ({}, None, [(2, 8, True), (3, 6, True), (3, 3, True)]),
])
def test_first_close_pair_across_blocks(monkeypatch, copies, pair, blocks):
    rows = np.random.default_rng(3).integers(0, 4, size=(8, 32))
    assert first_close_pair(lane_masks(rows, 4), 32, 28) is None
    for row, source in copies.items():
        rows[row] = rows[source]
    assert first_close_pair_by_pairs(rows.tolist(), 28) == pair
    masks = lane_masks(rows, 4)
    passes, before = [], [masks]

    def spy(block, lanes, n):
        passes.append((len(block), lanes.shape[1], np.shares_memory(lanes, before[-1])))
        before.append(lanes)
        return lcs_rows(block, lanes, n)

    monkeypatch.setattr(delchan.strings, "lcs_rows", spy)
    monkeypatch.setattr(delchan.strings, "_PAIRS", 20)
    assert greedy(masks, 32, 28).tolist() == greedy_by_pairs(rows.tolist(), 28)
    assert passes == blocks
    passes[:], before[:] = [], [masks]
    assert first_close_pair(masks, 32, 28) == pair
    # no row is dropped before the pair's pass, so the passes read rows 0, 1, ... in turn
    read = np.cumsum([rows_read for rows_read, _, _ in blocks])
    assert passes == blocks[: len(blocks) if pair is None else 1 + (read <= pair[0]).sum()]


def test_bit_runs():
    bits, lengths = bit_runs("0111001")
    assert bits.tolist() == [0, 1, 0, 1] and lengths.tolist() == [1, 3, 2, 1]
    assert bit_runs("")[1].size == 0
    for bad in ("1a1", "12", "1\u00e91"):
        with pytest.raises(ValueError, match="^received string must be binary$"):
            bit_runs(bad)


@pytest.mark.parametrize("n", [1, 8, 31, 32, 33, 63, 64, 65, 128, 130])
def test_lcs_lanes_edge_cases(n):
    # one codeword a lane, through lcs_rows' one-row case
    rnd = random.Random(n)
    lane = [rnd.randrange(2) for _ in range(n)]
    masks = int_lane_masks([lane], 2, n)
    assert masks.shape == (2, 1, -(-n // 64))
    assert one_row_lcs([], masks, n).tolist() == [0]
    assert one_row_lcs([2, -1, 7] * n, masks, n).tolist() == [0]
    assert one_row_lcs(lane, masks, n).tolist() == [n]
    assert one_row_lcs([1] * (n + 3), masks, n).tolist() == [sum(lane)]
    # bit i of word w stands for position 64 * w + i
    ones = int("".join(map(str, lane))[::-1], 2)
    for sym, pattern in enumerate([ones ^ ((1 << n) - 1), ones]):
        words = [(pattern >> 64 * w) & (2**64 - 1) for w in range(masks.shape[2])]
        assert masks[sym, 0].tolist() == words
    # a carry out of word 0 passes through an all-ones word 1 into word 2
    block = [0] * 64 + [1] * 64 + [0] * (n - 128)
    if n > 128:
        assert one_row_lcs([0], int_lane_masks([block], 2, n), n).tolist() == [1]
    # no lanes: an empty answer
    assert one_row_lcs(lane, lane_masks(np.zeros((0, n), np.int64), 2), n).shape == (0,)


def test_edit_distance_is_a_metric_on_samples():
    rnd = random.Random(7)
    strs = ["".join(rnd.choice("01") for _ in range(rnd.randrange(0, 15))) for _ in range(20)]
    for a in strs:
        assert edit_distance(a, a) == 0
        for b in strs:
            assert edit_distance(a, b) == edit_distance(b, a)
            for c in strs:
                assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


def test_is_subsequence():
    assert is_subsequence("11001", "1110101")
    assert is_subsequence("", "101")
    assert not is_subsequence("111", "101")
    # oracle: brute force over all subsequences of a short string
    s = "110100"
    subs = {"".join(s[i] for i in idx)
            for r in range(len(s) + 1)
            for idx in combinations(range(len(s)), r)}
    rnd = random.Random(3)
    for _ in range(200):
        t = "".join(rnd.choice("01") for _ in range(rnd.randrange(0, 7)))
        assert is_subsequence(t, s) == (t in subs)


def test_in_S():
    assert in_S("1")
    assert in_S("1011011")
    assert not in_S("0110")  # starts with 0
    assert not in_S("10")  # ends with 0
    assert not in_S("1110101")  # 3-run
    assert not in_S("")
    # only 0 and 1 are bits, though the runs here are short and the ends are 1
    for s in ("121", "1a1", "1 01", "1\n1", "1001001001001001001210101"):
        assert not in_S(s)
        with pytest.raises(ValueError, match="is not in S"):
            profile_of(s)


def test_profile_validation():
    p = SProfile(25, 13, 6)
    assert p.num_runs == 19
    assert p.count == comb(19, 13)
    with pytest.raises(ValueError):
        SProfile(25, 12, 6)  # m mismatch
    with pytest.raises(ValueError):
        SProfile(7, 1, 3)  # r1 + r2 even: cannot start and end with 1
    with pytest.raises(ValueError):
        SProfile(4, -2, 3)


def test_profile_of():
    assert profile_of("1011011") == SProfile(7, 3, 2)
    assert profile_of("1") == SProfile(1, 1, 0) and profile_of("11") == SProfile(2, 0, 1)
    for profile in (SProfile(7, 3, 2), SProfile(12, 6, 3), SProfile(13, 1, 6)):
        assert {profile_of(s) for s in enumerate_S_by_runs(profile)} == {profile}
    with pytest.raises(ValueError):
        profile_of("111")


def test_enumerate_S():
    prof = SProfile(7, 3, 2)
    rows = enumerate_S(prof)
    assert rows.dtype == np.uint8 and rows.shape == (comb(5, 3), 7) == (10, 7)
    family = ["".join(map(str, row)) for row in rows.tolist()]
    assert family == sorted(family)
    assert len(set(family)) == len(family)
    for s in family:
        assert profile_of(s) == prof
    # smallest profile: the single alternating string
    assert enumerate_S(SProfile(3, 3, 0)).tolist() == [[1, 0, 1]]


def test_enumerate_S_matches_run_by_run_oracle():
    # every valid profile up to m = 15, and longer ones of 1-runs only and of 2-runs only
    profiles = [SProfile(m, m - 2 * r2, r2) for m in range(1, 16)
                for r2 in range(m // 2 + 1) if (m - r2) % 2]
    # the desk family, and more than 64 runs: S(132, 130, 1) has 131
    longer = [SProfile(41, 41, 0), SProfile(42, 0, 21), SProfile(25, 13, 6), SProfile(132, 130, 1)]
    for profile in profiles + longer:
        expected = bit_rows(enumerate_S_by_runs(profile), profile.m)
        got = enumerate_S(profile)
        assert got.dtype == np.uint8 and np.array_equal(got, expected), profile


def test_enumerate_S_memory_is_about_its_result():
    # the rows are built in place: no strings, no (count, runs) integer
    # array, so the peak stays within twice the (count, m) byte result
    tracemalloc.start()
    try:
        rows = enumerate_S(SProfile(25, 13, 6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.shape == (27_132, 25)
    assert peak <= 2 * rows.nbytes


def test_refuse_long_pass_names_an_estimate_past_a_float():
    # steps = count * n * (count * ceil(n / 64) + q) = 1 + q at count = n = 1: an estimate a
    # float holds keeps :.3g, and from 2**1023 on it is the power of 2 at or below it
    refuse_long_pass(1, 1, MAX_STEPS - 1)
    for q, about in ((MAX_STEPS, "4.29e+09"), (2**1023 - 2, "8.99e+307"),
                     (2**1023 - 1, "2**1023"), (10**5000, "2**16609")):
        message = f"1 codewords of 1 symbols take about {about} word steps in a greedy pass"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}, over 4.29e\\+09$"):
            refuse_long_pass(1, 1, q)
