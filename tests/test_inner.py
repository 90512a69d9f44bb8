"""Inner codebook construction, rate formula, and embedding machinery."""

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
    insertion_ball_bruteforce,
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
        raise AssertionError("enumerated a refused profile")

    monkeypatch.setattr(delchan.inner, "enumerate_S", no_enumeration)
    profile = SProfile(47, 15, 16)
    assert profile.count > MAX_CANDIDATES
    with pytest.raises(ValueError, match="exceeds 10000000"):
        construct_inner(InnerParams(profile, 2))


def test_pairwise_separation_m7_exhaustive():
    cb = construct_inner(M7)
    for i, a in enumerate(cb.codewords):
        for b in cb.codewords[i + 1:]:
            assert edit_distance(a, b) > 2 * cb.params.d


def scalar_greedy(params):
    """The one-pair-at-a-time greedy loop the bit-parallel pass replaced."""
    threshold = params.m - params.d
    accepted = []
    for s in enumerate_S_by_runs(params.profile):
        if all(lcs_len(s, c) < threshold for c in accepted):
            accepted.append(s)
    return tuple(accepted)


@pytest.mark.parametrize("profile, d", [
    (SProfile(7, 3, 2), 2),
    (SProfile(11, 3, 4), 1),
    (SProfile(15, 7, 4), 2),
    (SProfile(17, 9, 4), 1),
    (SProfile(66, 64, 1), 0),
    (SProfile(66, 64, 1), 1),
    (SProfile(67, 63, 2), 1),
    (SProfile(132, 130, 1), 0),
])
def test_construct_matches_scalar_greedy(profile, d):
    params = InnerParams(profile, d)
    cb = construct_inner(params)
    assert cb.codewords == scalar_greedy(params)
    cb.validate()


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
        assert cb.decode(cb.encode(sym)) == sym
    with pytest.raises(ValueError):
        cb.encode(len(cb))


def test_decode_within_radius(m25_codebook):
    # deleting up to d bits never leaves the decoding region
    cb = m25_codebook
    for sym in range(0, len(cb), 13):
        cw = cb.encode(sym)
        for i in range(len(cw)):
            for j in range(i + 1, len(cw)):
                corrupted = cw[:i] + cw[i + 1:j] + cw[j + 1:]
                assert cb.decode(corrupted) == sym


def test_decode_tie_breaks_to_smallest_index():
    cb = InnerCodebook(M7, ("1001001",))
    assert cb.decode("") == 0


def test_decode_refuses_codewords_not_of_length_m():
    # the packed lanes are m bits wide: a shorter codeword would read as padded with 0s
    with pytest.raises(ValueError, match="^codewords must have length m=7 to decode$"):
        InnerCodebook(M7, ("1001001", "101")).decode("101")


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
