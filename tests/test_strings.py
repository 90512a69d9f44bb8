"""Run-length utilities and the constrained string family, checked against
independent dynamic-programming oracles."""

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delchan.strings import (
    SProfile,
    bits_of,
    edit_distance,
    enumerate_S,
    in_S,
    lcs_lanes,
    lcs_len,
    lane_masks,
    runs_of,
    sequence_lcs_len,
)
from oracles import is_subsequence


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
    return lane_masks(["".join(chr(48 + x) for x in lane) for lane in lanes], q, n)


@st.composite
def lane_cases(draw):
    """Equal-length lanes over [0, q) and a sequence that may hold symbols
    outside [0, q), around the 64-bit word boundaries."""
    n = draw(st.sampled_from([1, 63, 64, 65, 128, 130]))
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


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 130])
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
    assert lcs_lanes(lane, lane_masks([], 2, n), n).shape == (0,)


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
    family = enumerate_S(prof)
    assert len(family) == comb(5, 3) == 10
    assert family == sorted(family)
    assert len(set(family)) == len(family)
    for s in family:
        assert SProfile.of(s) == prof
    # smallest profile: the single alternating string
    assert enumerate_S(SProfile(3, 3, 0)) == ["101"]

