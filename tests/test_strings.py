"""Run-length utilities and the constrained string family, checked against
independent dynamic-programming oracles."""

import random
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
    SProfile,
    bit_rows,
    bit_runs,
    enumerate_S,
    greedy,
    in_S,
    lcs_lanes,
    lcs_len,
    lcs_rows,
    lane_masks,
    runs_of,
    sequence_lcs_len,
)
from oracles import (
    bits_of,
    edit_distance,
    enumerate_S_by_runs,
    greedy_by_pairs,
    is_subsequence,
    lane_masks_by_row,
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
    got = lcs_lanes(a, int_lane_masks(lanes, q, n), n)
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
def test_lcs_rows_matches_scalar_oracle(case):
    n, q, lanes, seqs, rows = case
    got = lcs_rows(rows, int_lane_masks(lanes, q, n), n)
    assert got.shape == (len(seqs), len(lanes))
    assert got.tolist() == [[sequence_lcs_len(seq, lane) for lane in lanes] for seq in seqs]


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
        assert [lcs_lanes(seq, masks, n).tolist() for seq in seqs] == expected


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


@settings(max_examples=100, deadline=None)
@given(greedy_cases())
# rows 0 and 1 are kept; row 2 is close to both, and row 3 repeats row 1
@example((np.array([[0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 1, 1], [1, 1, 1, 1]]), 2, 2))
def test_greedy_matches_pairwise_loop(case):
    rows, q, threshold = case
    assert greedy(rows, q, threshold).tolist() == greedy_by_pairs(rows.tolist(), threshold)


def test_greedy_groups_match_pairwise_loop(monkeypatch):
    """300 far-apart rows: kept rows grow the groups, _PAIRS caps them, and
    copies put a row and the row that drops it in one group."""
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
    by = greedy(rows, 4, 28).tolist()
    assert by == greedy_by_pairs(rows.tolist(), 28)
    assert by[15:20] == [15, 15, 17, 18, 15]
    assert any({15, 17, 19} <= {j for j, row in enumerate(rows) if (row == group).all(1).any()}
               for group, _ in groups)  # one pass settles rows 15, 17 and 19
    sizes = [(len(group), lanes) for group, lanes in groups]
    assert all(g == 1 or g * lanes <= _PAIRS for g, lanes in sizes)
    assert any(1 < g == _PAIRS // lanes for g, lanes in sizes)  # the cap sets g
    # a group that holds a row and its copy: the copy is dropped inside the group
    assert any(len(np.unique(group, axis=0)) < len(group) for group, _ in groups)


def test_bit_runs():
    bits, lengths = bit_runs("0111001")
    assert bits.tolist() == [0, 1, 0, 1] and lengths.tolist() == [1, 3, 2, 1]
    assert bit_runs("")[1].size == 0
    for bad in ("1a1", "12", "1\u00e91"):
        with pytest.raises(ValueError, match="^received string must be binary$"):
            bit_runs(bad)


@pytest.mark.parametrize("n", [1, 8, 31, 32, 33, 63, 64, 65, 128, 130])
def test_lcs_lanes_edge_cases(n):
    rnd = random.Random(n)
    lane = [rnd.randrange(2) for _ in range(n)]
    masks = int_lane_masks([lane], 2, n)
    assert masks.shape == (2, 1, -(-n // 64))
    assert lcs_lanes([], masks, n).tolist() == [0]
    assert lcs_lanes([2, -1, 7] * n, masks, n).tolist() == [0]
    assert lcs_lanes(lane, masks, n).tolist() == [n]
    assert lcs_lanes([1] * (n + 3), masks, n).tolist() == [sum(lane)]
    # bit i of word w stands for position 64 * w + i
    ones = int("".join(map(str, lane))[::-1], 2)
    for sym, pattern in enumerate([ones ^ ((1 << n) - 1), ones]):
        words = [(pattern >> 64 * w) & (2**64 - 1) for w in range(masks.shape[2])]
        assert masks[sym, 0].tolist() == words
    # a carry out of word 0 passes through an all-ones word 1 into word 2
    block = [0] * 64 + [1] * 64 + [0] * (n - 128)
    if n > 128:
        assert lcs_lanes([0], int_lane_masks([block], 2, n), n).tolist() == [1]
    # no lanes: an empty answer
    assert lcs_lanes(lane, lane_masks(np.zeros((0, n), np.int64), 2), n).shape == (0,)


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
            SProfile.of(s)


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
    assert SProfile.of("1011011") == SProfile(7, 3, 2)
    with pytest.raises(ValueError):
        SProfile.of("111")


def test_enumerate_S():
    prof = SProfile(7, 3, 2)
    rows = enumerate_S(prof)
    assert rows.dtype == np.uint8 and rows.shape == (comb(5, 3), 7) == (10, 7)
    family = ["".join(map(str, row)) for row in rows.tolist()]
    assert family == sorted(family)
    assert len(set(family)) == len(family)
    for s in family:
        assert SProfile.of(s) == prof
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
