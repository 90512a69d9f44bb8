"""Outer code: greedy construction, distance guarantee, decoding."""

import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delchan.cli
import delchan.outer
from delchan.cli import main
from delchan.outer import _CANDIDATE_FACTOR, OuterCode, OuterSpec, construct_outer
from oracles import edit_distance


SPEC = OuterSpec(q=4, n=32, k=4, delta_out=0.125)


@pytest.fixture(scope="module")
def code():
    return construct_outer(SPEC, 2024)


# The one-pair-at-a-time loops the bit-parallel code replaced, kept as oracles.


def scalar_decode(code, received):
    best, best_d = 0, None
    for i, c in enumerate(code.codewords):
        d = edit_distance(c, tuple(received))
        if best_d is None or d < best_d:
            best, best_d = i, d
    return best


def scalar_construct(spec, seed):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    threshold = 2.0 * spec.delta_out * spec.n
    accepted = []
    for _ in range(_CANDIDATE_FACTOR * spec.num_messages):
        cand = tuple(int(s) for s in rng.integers(0, spec.q, size=spec.n))
        if all(edit_distance(cand, c) > threshold for c in accepted):
            accepted.append(cand)
            if len(accepted) == spec.num_messages:
                break
    return tuple(accepted)  # fewer than q**k if the candidate budget ran out


def scalar_validate_error(code):
    threshold = 2.0 * code.spec.delta_out * code.spec.n
    for i, c in enumerate(code.codewords):
        for j in range(i + 1, len(code.codewords)):
            if edit_distance(c, code.codewords[j]) <= threshold:
                return f"codewords {i} and {j} too close"
    return None


# q = 2, n = 6: many codewords sit at the same distance from a reception
TIES = construct_outer(OuterSpec(q=2, n=6, k=2, delta_out=0.1), 5)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_decode_matches_scalar_loop(code, data):
    target = data.draw(st.sampled_from([code, TIES]))
    q, n = target.spec.q, target.spec.n
    received = data.draw(st.one_of(
        st.lists(st.integers(0, q - 1), max_size=2 * n),
        st.lists(st.integers(-1, q), max_size=3),
        st.builds(lambda i, sym: [s for s in target.codewords[i] if s != sym],
                  st.integers(0, len(target) - 1), st.integers(0, q - 1)),
    ))
    assert target.decode(received) == scalar_decode(target, received)


def test_decode_ties_and_degenerate_receptions(code):
    for target in (code, TIES):
        q = target.spec.q
        for received in ([], [0], [q - 1], [q], [-1], [q, q, 0]):
            assert target.decode(received) == scalar_decode(target, received)
    assert code.decode([]) == 0
    # the checks above meet ties: several codewords are nearest to [1]
    dists = [edit_distance(c, (1,)) for c in TIES.codewords]
    assert dists.count(min(dists)) > 1


@pytest.mark.parametrize("spec, seed", [
    (OuterSpec(q=4, n=16, k=2, delta_out=0.125), 1),
    (OuterSpec(q=2, n=8, k=3, delta_out=0.2), 2),  # two chunks of q**k candidates
    (OuterSpec(q=3, n=70, k=2, delta_out=0.1), 3),
    (OuterSpec(q=2, n=130, k=2, delta_out=0.15), 4),
    # wide alphabets, past 80 symbols
    (OuterSpec(q=100, n=12, k=1, delta_out=0.25), 5),
    (OuterSpec(q=300, n=8, k=1, delta_out=0.25), 6),
    (OuterSpec(q=2, n=16, k=5, delta_out=0.15), 2024),  # three chunks
])
def test_construct_matches_scalar_greedy(spec, seed):
    code = construct_outer(spec, seed)
    assert code.codewords == scalar_construct(spec, seed)
    code.validate()


def test_validate_reports_first_close_pair(code):
    words = list(code.codewords)
    words[100] = words[7][:-1] + ((words[7][-1] + 1) % 4,)
    words[200] = words[7]
    bad = replace(code, codewords=tuple(words))
    assert scalar_validate_error(bad) == "codewords 7 and 100 too close"
    with pytest.raises(ValueError, match=r"^codewords 7 and 100 too close$"):
        bad.validate()


@pytest.mark.parametrize("near, pair", [
    ({100: 7, 50: 20}, (7, 100)),  # the first row decides, not the first later row
    ({50: 7, 100: 20}, (7, 50)),
])
def test_load_names_the_first_close_pair_of_two(tmp_path, code, near, pair):
    words = list(code.codewords)
    for row, source in near.items():  # a near-copy: the last symbol changed
        words[row] = words[source][:-1] + ((words[source][-1] + 1) % 4,)
    bad = replace(code, codewords=tuple(words))
    message = "codewords {} and {} too close".format(*pair)
    assert scalar_validate_error(bad) == message
    path = tmp_path / "oc.txt"
    bad.save(path)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
        OuterCode.load(path)


def test_validate_rejects_malformed_row_before_building_masks(code, monkeypatch):
    def no_masks(*args):
        raise AssertionError("masks built for a malformed code")

    monkeypatch.setattr(delchan.outer, "lane_masks", no_masks)  # validate's masks are decode's
    for row in [(4,) * 32, (0,) * 31, (0,) * 33, (-1,) * 32]:
        bad = replace(code, codewords=code.codewords[:3] + (row,) + code.codewords[4:])
        with pytest.raises(ValueError, match=r"^codeword 3 malformed$"):
            bad.validate()


@pytest.mark.parametrize("config", ["k=20\n", "n=1000000\n", "q=4\nn=64\nk=9\n",
                                    "m=29\nr1=17\nr2=6\nk=20\n"],
                         ids=["k=20", "n=1000000", "q=4 n=64 k=9", "m=29 k=20"])
def test_construct_refuses_oversized_outer_code(tmp_path, monkeypatch, config):
    # the outer code's cap is checked before any inner code is built; the messages
    # are rows of test_harness.py's table of refusals
    def no_inner_code(*args, **kwargs):
        raise AssertionError("construct_inner called before the outer code's cap")

    monkeypatch.setattr(delchan.cli, "construct_inner", no_inner_code)
    path = tmp_path / "big.cfg"
    path.write_text(config)
    assert main(["construct", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


def test_spec_refuses_messages_past_int64():
    # message ids are int64, so q**k stops below 2**63
    assert OuterSpec(2, 64, 62, 0.1).num_messages == 2**62
    assert OuterSpec(3, 64, 39, 0.1).num_messages < 2**63 < 3**40
    assert OuterSpec(10**18, 8, 0, 0.1).num_messages == 1
    for q, k in [(2, 63), (3, 40), (2**62, 2), (4, 32), (4, 10**18), (10**18, 10**18)]:
        with pytest.raises(ValueError, match=rf"^q\*\*k messages must stay below 2\*\*63,"
                                             rf" got q={q}, k={k}$"):
            OuterSpec(q, 32, k, 0.125)


def test_spec_validation():
    assert SPEC.num_messages == 256
    assert SPEC.radius == 4
    assert SPEC.rate == 0.125
    assert OuterSpec(2, 100, 3, 0.29).radius == 29  # 0.29 * 100 is 28.999999999999996
    with pytest.raises(ValueError):
        OuterSpec(1, 32, 4, 0.125)
    with pytest.raises(ValueError):
        OuterSpec(4, 32, 4, 0.0)
    with pytest.raises(ValueError):
        OuterSpec(4, 0, 4, 0.125)


def test_construction_and_distance(code):
    assert len(code) == 256
    code.validate()
    threshold = 2 * SPEC.delta_out * SPEC.n
    for i in range(0, 256, 37):
        for j in range(i + 1, 256, 41):
            assert edit_distance(code.codewords[i], code.codewords[j]) > threshold


def test_encode_bounds(code):
    assert len(code.encode(0)) == 32
    with pytest.raises(ValueError):
        code.encode(256)
    with pytest.raises(ValueError):
        code.encode(-1)


def test_decodes_within_radius(code):
    rnd = random.Random(5)
    for _ in range(60):
        msg = rnd.randrange(256)
        word = list(code.encode(msg))
        # up to radius combined symbol deletions and insertions
        for _ in range(rnd.randrange(SPEC.radius + 1)):
            if rnd.random() < 0.5 and word:
                del word[rnd.randrange(len(word))]
            else:
                word.insert(rnd.randrange(len(word) + 1), rnd.randrange(4))
        assert code.decode(word) == msg


def test_decode_any_length(code):
    assert isinstance(code.decode([]), int)
    assert isinstance(code.decode([0] * 100), int)


def test_determinism():
    a = construct_outer(SPEC, 7)
    b = construct_outer(SPEC, 7)
    c = construct_outer(SPEC, 8)
    assert a.codewords == b.codewords
    assert a.codewords != c.codewords


def test_single_message_code():
    # k = 0: one (empty) message, still one codeword to transmit
    spec = OuterSpec(q=4, n=8, k=0, delta_out=0.25)
    code = construct_outer(spec, 1)
    assert len(code) == 1
    assert code.decode([1, 2, 3]) == 0


def test_pool_exhaustion_reports_achieved_count():
    # demanding far more distance than n allows must fail loudly
    spec = OuterSpec(q=2, n=4, k=6, delta_out=0.45)
    found = len(scalar_construct(spec, 3))
    assert found == 2
    with pytest.raises(ValueError, match=rf"found only {found} of 64 codewords within 12800 "):
        construct_outer(spec, 3)


def test_save_load_roundtrip(tmp_path, code):
    path = tmp_path / "oc.txt"
    code.save(path)
    loaded = OuterCode.load(path)
    assert loaded == code
    header = path.read_text().splitlines()[0]
    assert header.startswith("outercode v1 q=4 n=32 k=4 dout_num=1 dout_den=8 seed=2024")
