"""Inner codebook construction, rate formula, and embedding machinery."""

import re
import tracemalloc
from math import comb, isclose

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import delchan.inner
from delchan.inner import (
    MAX_CANDIDATES,
    InnerCodebook,
    InnerParams,
    binary_entropy,
    construct_inner,
    inner_rate_formula,
)
from delchan.strings import SProfile, lcs_len
from oracles import (
    deletion_ball_bound,
    edit_distance,
    embed_all,
    enumerate_S_by_runs,
    first_close_pair_by_pairs,
    greedy_by_pairs,
    insertion_ball_bruteforce,
    profile_of,
    scalar_inner_decode,
)


M7 = InnerParams(SProfile(7, 3, 2), 2)


def test_construct_m7():
    cb = construct_inner(M7)
    # the lexicographically-first family member excludes everything else at
    # this tiny size: every other member is within edit distance 4 of it
    assert cb.codewords == ("1001001",)
    cb.validate()


def test_construct_refuses_too_many_candidates_before_enumerating(monkeypatch):
    def no_enumeration(profile):
        raise AssertionError("enumerated a profile")

    monkeypatch.setattr(delchan.inner, "enumerate_S", no_enumeration)
    # comb(29, 9) = 10,015,005 and comb(27, 10) = 8,436,285 straddle the cap
    for profile in (SProfile(47, 15, 16), SProfile(38, 20, 9), SProfile(49, 9, 20)):
        assert profile.count > MAX_CANDIDATES
        with pytest.raises(ValueError, match="has more than 10000000 candidates"):
            construct_inner(InnerParams(profile, 2))
    assert SProfile(37, 17, 10).count <= MAX_CANDIDATES
    with pytest.raises(AssertionError, match="enumerated a profile"):
        construct_inner(InnerParams(SProfile(37, 17, 10), 2))
    # the first greedy pass: m columns over count lanes of ceil(m / 64) words, so
    # 3,443 * 54 * 3,444 and 3,441 * 54 * 3,442 word steps straddle 64 * 10^7
    with pytest.raises(ValueError, match=r"^S\(3444, 3442, 1\) takes 640315368 word steps"
                                         r" in its first greedy pass, over 640000000$"):
        construct_inner(InnerParams(SProfile(3444, 3442, 1), 2))
    with pytest.raises(AssertionError, match="enumerated a profile"):
        construct_inner(InnerParams(SProfile(3442, 3440, 1), 2))
    # 25,297 candidates of 25,298 bytes fit under 64 * 10^7 bytes, but not their pass
    with pytest.raises(ValueError, match=r"^S\(25298, 25296, 1\) takes 253425548376 word"):
        construct_inner(InnerParams(SProfile(25298, 25296, 1), 2))



def test_d0_caps_the_rows_bytes_not_a_pass(monkeypatch):
    # at d = 0 no greedy pass runs, so S(3444, 3442, 1), refused at d = 2 for
    # its first pass, builds its 3,443 rows of 3,444 bytes; the rows' bytes
    # are capped instead: 25,299 * 25,300 and 25,297 * 25,298 straddle 64 * 10^7
    cb = construct_inner(InnerParams(SProfile(3444, 3442, 1), 0))
    assert len(cb) == 3443 and {len(c) for c in cb.codewords} == {3444}

    def no_enumeration(profile):
        raise AssertionError("enumerated a profile")

    monkeypatch.setattr(delchan.inner, "enumerate_S", no_enumeration)
    with pytest.raises(ValueError, match=r"^S\(25300, 25298, 1\) takes 640064700 bytes of rows,"
                                         r" over 640000000$"):
        construct_inner(InnerParams(SProfile(25300, 25298, 1), 0))
    with pytest.raises(AssertionError, match="enumerated a profile"):
        construct_inner(InnerParams(SProfile(25298, 25296, 1), 0))


def scalar_profile_check(params, codewords):
    """InnerCodebook's shape check as a loop over the strings: each codeword's
    length, then its membership in S, then its profile."""
    for c in codewords:
        if len(c) != params.m:
            raise ValueError(f"codeword {c!r} has {len(c)} characters, not m={params.m}")
        if profile_of(c) != params.profile:
            raise ValueError(f"codeword {c} has wrong profile")


# a string of S(25, 9, 8): the desk's length, another profile
OTHER_PROFILE = "1100110011001100101010101"
EDIT = st.tuples(st.integers(0, 76), st.integers(-1, 25),
                 st.sampled_from(["0", "1", "00", "11", "", "2", "x", "/", "\u00e9", "\n",
                                  OTHER_PROFILE]))


@settings(max_examples=150, deadline=None)
@given(edits=st.lists(EDIT, max_size=3))
@example(edits=[])
@example(edits=[(3, 0, "0")])  # starts with a 0
@example(edits=[(3, 2, "11")])  # three 1s in a row, and one character more
@example(edits=[(9, 1, "")])  # a 2-run cut to a 1-run: in S, of length 24
@example(edits=[(40, 30, "1")])  # a 1 appended: in S, of length 26
@example(edits=[(70, 5, "\u00e9"), (2, 7, "2")])  # the later codeword is not ASCII
@example(edits=[(4, -1, OTHER_PROFILE)])  # in S, of length m, with r2 = 8
def test_validate_refuses_the_first_misfit_as_the_loop_did(m25_codebook, edits):
    # each edit puts a string in place of character j of codeword i (a 1- or
    # 2-run, a dropped character, a non-binary or non-ASCII one), or of the
    # whole codeword if j is -1: the codebook refuses, when it is made, the first
    # codeword of another length, out of S or of another profile with the loop's
    # message, and validate refuses none of those if the loop refuses none
    codewords = list(m25_codebook.codewords)
    for i, j, text in edits:
        codewords[i] = text if j < 0 else codewords[i][:j] + text + codewords[i][j + 1:]
    try:
        scalar_profile_check(m25_codebook.params, codewords)
        expected = None
    except ValueError as exc:
        expected = str(exc)
    try:
        InnerCodebook(m25_codebook.params, tuple(codewords)).validate()
        message = None
    except ValueError as exc:
        message = str(exc)
    if expected is None:  # a later check may refuse the code: the order, or a close pair
        assert message is None or message.startswith("codewords ")
    else:
        assert message == expected


# small profiles, whose families random strings hit often
PROFILES = [SProfile(1, 1, 0), SProfile(2, 0, 1), SProfile(5, 1, 2), SProfile(5, 5, 0),
            SProfile(7, 3, 2), SProfile(8, 2, 3)]


@st.composite
def shaped_books(draw):
    """A small profile's params and up to 5 codewords: strings of length 0 to m + 2
    over "01", or over "01" with "2", "x" and "\u00e9", or strings of the profile's family."""
    profile = draw(st.sampled_from(PROFILES))
    texts = [st.text(chars, max_size=profile.m + 2) for chars in ("01", "012x\u00e9")]
    word = st.one_of(*texts, st.sampled_from(enumerate_S_by_runs(profile)))
    return InnerParams(profile, 0), draw(st.lists(word, max_size=5))


@settings(max_examples=300, deadline=None)
@given(book=shaped_books())
@example(book=(InnerParams(SProfile(5, 1, 2), 0), ["", "1", "11011"]))
@example(book=(InnerParams(SProfile(5, 1, 2), 0), ["11011", "1", "2", "x", "\u00e9"]))
@example(book=(InnerParams(SProfile(1, 1, 0), 0), ["1", "", "0"]))
@example(book=(InnerParams(SProfile(5, 1, 2), 0), ["11001", "10101", "11101"]))
@example(book=(InnerParams(SProfile(7, 3, 2), 0), ["1011011", "101101\u00e9", "10110111"]))
@example(book=(InnerParams(SProfile(8, 2, 3), 0), enumerate_S_by_runs(SProfile(8, 2, 3))[::-1] * 2))
def test_codebook_refuses_what_the_oracles_refuse(book):
    # the first codeword the loop refuses (its length, then in_S, then its profile)
    # is the one the codebook refuses when it is made, with the same message; and a
    # codebook of strings of its profile alone, in any order and with repeats, is made
    params, codewords = book
    try:
        scalar_profile_check(params, codewords)
        expected = None
    except ValueError as exc:
        expected = str(exc)
    try:
        InnerCodebook(params, tuple(codewords))
        message = None
    except ValueError as exc:
        message = str(exc)
    assert message == expected


def test_pairwise_separation_m7_exhaustive():
    cb = construct_inner(M7)
    for i, a in enumerate(cb.codewords):
        for b in cb.codewords[i + 1:]:
            assert edit_distance(a, b) > 2 * cb.params.d


@pytest.mark.parametrize("profile, d", [
    (SProfile(7, 3, 2), 2),
    (SProfile(11, 3, 4), 1),
    (SProfile(15, 7, 4), 2),
    (SProfile(17, 9, 4), 1),
    (SProfile(66, 64, 1), 0),
    (SProfile(66, 64, 1), 1),
    (SProfile(67, 63, 2), 1),
    (SProfile(132, 130, 1), 0),
    (SProfile(11, 3, 4), 0),
    (SProfile(15, 7, 4), 0),
])
def test_construct_matches_scalar_greedy(profile, d):
    params = InnerParams(profile, d)
    cb = construct_inner(params)
    # the one-pair-at-a-time greedy loop over the run-by-run family keeps the same strings
    family = enumerate_S_by_runs(profile)
    by = greedy_by_pairs(family, params.m - params.d)
    assert cb.codewords == tuple(s for i, s in enumerate(family) if by[i] == i)
    cb.validate()


def test_construct_memory_is_about_its_candidates():
    # the rows go once packed into lane masks, and greedy reads its groups
    # back from the masks: about 40 traced bytes a candidate at m = 27 (85
    # while the rows and an intp index a lane stayed beside the masks)
    profile = SProfile(27, 15, 6)
    tracemalloc.start()
    try:
        cb = construct_inner(InnerParams(profile, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (profile.count, len(cb)) == (54_264, 117)
    assert peak <= 60 * profile.count


def test_d0_runs_no_lcs_pass(monkeypatch, tmp_path):
    """At d = 0 only equal rows are close: the build keeps the whole family,
    and a load refuses a repeated line with the scan's message, for the pair
    the pairwise greedy loop drops first, all without an lcs_rows call."""
    calls = []
    monkeypatch.setattr(delchan.strings, "lcs_rows", lambda *a: calls.append(a))
    params = InnerParams(SProfile(11, 3, 4), 0)
    family = tuple(enumerate_S_by_runs(params.profile))
    cb = construct_inner(params)
    assert cb.codewords == family
    cb.validate()
    path = tmp_path / "cb.txt"
    for repeats in ((0,), (34,), (20, 3), (7, 7, 9)):  # each an extra copy of that codeword
        lines = tuple(sorted(family + tuple(family[k] for k in repeats)))
        i, j = first_close_pair_by_pairs(lines, params.m)
        assert lines[i] == lines[j] == family[min(repeats)]
        InnerCodebook(params, lines).save(path)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: codewords too close:"
                                             f" {lines[i]} {lines[j]}$"):
            InnerCodebook.load(path)
    assert calls == []


def test_validate_reports_first_close_pair(m25_codebook):
    cb = m25_codebook
    kept = cb.codewords[:41]
    threshold = cb.params.m - cb.params.d
    # two strings that sort after codeword 40 and are too close to codeword 5 only
    near = [s for s in enumerate_S_by_runs(cb.params.profile)
            if s > kept[-1] and edit_distance(s, kept[5]) == 2
            and sum(lcs_len(s, c) >= threshold for c in kept) == 1][:2]
    assert len(near) == 2
    bad = InnerCodebook(cb.params, tuple(sorted(kept + tuple(near))))
    with pytest.raises(ValueError, match=f"^codewords too close: {kept[5]} {near[0]}$"):
        bad.validate()


def test_load_names_the_first_close_pair_of_two(tmp_path, m25_codebook):
    """Codewords 0-40 and two strings that sort after them, one close to
    codeword 5 alone and one to codeword 20 alone: the file names codeword
    5's pair, whether its string sorts first or last of the two."""
    cb = m25_codebook
    kept = cb.codewords[:41]
    threshold = cb.params.m - cb.params.d
    family = [s for s in enumerate_S_by_runs(cb.params.profile) if s > kept[-1]]

    def near(k):  # at edit distance 2 from codeword k, and close to no other
        return [s for s in family if lcs_len(s, kept[k]) == cb.params.m - 1
                and sum(lcs_len(s, c) >= threshold for c in kept) == 1]

    near5, near20 = near(5), near(20)
    path = tmp_path / "cb.txt"
    for s5, s20 in ((near5[0], near20[-1]), (near5[-1], near20[0])):
        assert (s5 < s20) == (s5 == near5[0])  # the two later rows in both orders
        InnerCodebook(cb.params, tuple(sorted(kept + (s5, s20)))).save(path)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: codewords too close:"
                                             f" {kept[5]} {s5}$"):
            InnerCodebook.load(path)


def test_construct_m25(m25_codebook):
    cb = m25_codebook
    assert len(cb) == 77
    assert cb.codewords == tuple(sorted(cb.codewords))
    cb.validate()


def test_greedy_maximality(m25_codebook):
    # every family member is within distance of some accepted codeword,
    # otherwise the greedy pass would have accepted it (spot-check a slice)
    cb = m25_codebook
    threshold = cb.params.m - cb.params.d
    for s in enumerate_S_by_runs(cb.params.profile)[::500]:
        assert any(lcs_len(s, c) >= threshold for c in cb.codewords) or s in cb.codewords


def test_measured_rate_dominates_formula(m25_codebook):
    # the formula is an asymptotic guarantee; finite codebooks beat it
    # (at m = 25 the gap exceeds any symmetric band, so the check is one-sided)
    measured = m25_codebook.rate
    formula = inner_rate_formula(13 / 25, 2 / 25)
    assert measured >= formula


def test_rate_formula_values():
    # delta -> 0 leaves only the family-counting term
    beta1 = 0.52
    beta = (1 + beta1) / 2
    tiny = inner_rate_formula(beta1, 1e-9)
    assert isclose(tiny, beta * binary_entropy(beta1 / beta), rel_tol=1e-4)
    with pytest.raises(ValueError):
        inner_rate_formula(0.0, 0.1)
    with pytest.raises(ValueError):
        inner_rate_formula(0.5, 0.0)


def test_encode_decode_roundtrip(m25_codebook):
    cb = m25_codebook
    for sym in range(0, len(cb), 9):
        assert cb.decode(cb.codewords[sym]) == sym


def test_decode_within_radius(m25_codebook):
    # deleting up to d bits never leaves the decoding region
    cb = m25_codebook
    for sym in range(0, len(cb), 13):
        cw = cb.codewords[sym]
        for i in range(len(cw)):
            for j in range(i + 1, len(cw)):
                corrupted = cw[:i] + cw[i + 1:j] + cw[j + 1:]
                assert cb.decode(corrupted) == sym


def test_decode_tie_breaks_to_smallest_index():
    cb = InnerCodebook(M7, ("1001001",))
    assert cb.decode("") == 0


def test_decode_refuses_codewords_not_of_length_m():
    # the packed lanes are m bits wide: a shorter codeword would read as padded with 0s,
    # so the codebook refuses it when it is made, before any decode
    with pytest.raises(ValueError, match="^codeword '101' has 3 characters, not m=7$"):
        InnerCodebook(M7, ("1001001", "101"))


def books(full):
    """The truncated desk books, the full book, and books with a duplicated
    codeword, whose copies the smallest index must win."""
    c = full.codewords
    return {"q4": full.truncate(4), "q2": full.truncate(2), "full": full,
            "dup_q4": InnerCodebook(full.params, (c[0], c[1], c[1], c[3])),
            "dup_full": InnerCodebook(full.params, c[:40] + c[39:])}


# a window, or (i, edits): codeword i of the book with each (position,
# text) edit's character replaced by text
WINDOWS = st.one_of(
    st.text("01", max_size=100),
    st.builds(str.__mul__, st.sampled_from("01"), st.integers(0, 90)),
    st.tuples(st.integers(0, 76), st.lists(
        st.tuples(st.integers(0, 24), st.sampled_from(["", "0", "1", "01", "10"])), max_size=4)),
)


@settings(max_examples=300, deadline=None)
@given(book=st.sampled_from(["q4", "q2", "full", "dup_q4", "dup_full"]), window=WINDOWS)
@example(book="full", window="")
@example(book="full", window="0" * 70)
@example(book="full", window="1" * 70)
@example(book="q4", window="10" * 40)
@example(book="dup_q4", window=(2, []))  # codeword 1's copy: 1 must win
@example(book="dup_full", window=(40, []))  # codeword 39's copy: 39 must win
def test_decode_matches_scalar_oracle(m25_codebook, book, window):
    # windows empty, longer than 64 bits, all 0s, all 1s, and near codewords
    cb = books(m25_codebook)[book]
    if isinstance(window, tuple):
        i, edits = window
        chars = list(cb.codewords[i % len(cb)])
        for at, text in edits:
            chars[at] = text
        window = "".join(chars)
    assert cb.decode(window) == scalar_inner_decode(cb.codewords, window)


def test_truncate(m25_codebook):
    cb4 = m25_codebook.truncate(4)
    assert len(cb4) == 4
    assert cb4.codewords == m25_codebook.codewords[:4]
    with pytest.raises(ValueError):
        m25_codebook.truncate(1000)


def test_save_load_roundtrip(tmp_path, m25_codebook):
    path = tmp_path / "cb.txt"
    m25_codebook.save(path)
    loaded = InnerCodebook.load(path)
    assert loaded == m25_codebook
    header = path.read_text().splitlines()[0]
    assert header == "innercode v1 m=25 r1=13 r2=6 d=2 count=77"


def test_load_rejects_corrupted(tmp_path, m25_codebook):
    path = tmp_path / "cb.txt"
    m25_codebook.save(path)
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]  # break lexicographic order
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        InnerCodebook.load(path)


def test_candidate_guard():
    big = InnerParams(SProfile(41, 21, 10), 2)  # C(31, 21) > 10^7
    assert big.profile.count > 10**7
    with pytest.raises(ValueError):
        construct_inner(big)


def test_embed_all_example():
    # inserting two bits into "101" within the (5, 1, 2) family
    assert embed_all("101", SProfile(5, 1, 2)) == {"10011", "11001", "11011"}
    # zero insertions: the string itself
    assert embed_all("11011", SProfile(5, 1, 2)) == {"11011"}


def test_embed_matches_bruteforce_small():
    target = SProfile(9, 5, 2)
    for s_sub in ("1010101", "1011011", "101"):
        if len(s_sub) <= target.m:
            assert embed_all(s_sub, target) == insertion_ball_bruteforce(s_sub, target)


def test_deletion_ball_bound_value():
    assert deletion_ball_bound(InnerParams(SProfile(25, 13, 6), 2)) == comb(21, 2)


def test_embed_rejects_bad_input():
    with pytest.raises(ValueError):
        embed_all("110", SProfile(5, 1, 2))  # not in S
    with pytest.raises(ValueError):
        embed_all("1010101", SProfile(5, 1, 2))  # longer than target
