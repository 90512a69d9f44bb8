"""Encoding pipeline, buffer identification, threshold decoding, traces and
classification."""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delchan.channels import ChannelModel, ceil_snapped, floor_snapped
from delchan.harness import cached_inner_codebook, desk_params
from delchan.inner import InnerCodebook, InnerParams
from delchan.outer import OuterSpec, construct_outer
from delchan.scheme import (
    Scheme,
    SchemeParams,
    classify,
    lay_out,
    load_scheme,
    run_table,
    save_scheme,
    threshold_decode,
    window_spans,
)
from delchan.strings import SProfile
from oracles import held, per_run, runs_of, starts, window_key


def test_snapped_rounding():
    assert ceil_snapped(20.21 / 0.43) == 47  # 46.99999... must not ceil to 48
    assert ceil_snapped(5.41 / 0.1) == 55
    assert ceil_snapped(5.59 / 0.43) == 13
    assert ceil_snapped(4.0 / 0.5) == 8
    assert ceil_snapped(13.5 / 0.5) == 27
    assert ceil_snapped(22.8 / 0.1) == 228
    assert ceil_snapped(5.49 / 0.5) == 11
    assert floor_snapped(6.25) == 6
    assert floor_snapped(0.5 * 25 / 2) == 6


def _blow_up(codeword, N1, N2):
    """A one-codeword layout without buffers: just the blown-up runs."""
    layout = lay_out((0,), run_table([codeword], 7, N1, N2))
    assert np.flatnonzero(layout.orig == 0).size == 0
    return layout.bits()


def test_blow_up_examples():
    assert _blow_up("1101", 3, 5) == "11111000111"
    assert _blow_up("1", 2, 2) == "11"
    assert _blow_up("10011", 3, 5) == "111" + "00000" + "11111"
    # runs of 3 and non-bits never reach run_table: an inner codebook refuses them
    # when it is made, and run_table takes only an inner codebook's codewords
    for codeword in ("11101", "10121"):
        with pytest.raises(ValueError, match=f"^'{codeword}' is not in S$"):
            InnerCodebook(InnerParams(SProfile(5, 1, 2), 0), (codeword,))
    # two blocks: spans of every run and buffer, with and without edge buffers
    table = run_table(("1011", "1101"), 2, 1, 3)
    layout = lay_out((1, 0), table)
    assert layout.bits() == "11101" + "00" + "10111"
    assert len(layout) == 12
    assert layout.symbols == (1, 0)
    assert starts(layout).tolist() == [0, 3, 4, 5, 7, 8, 9]
    assert layout.lengths.tolist() == [3, 1, 1, 2, 1, 1, 3]
    assert layout.orig.tolist() == [2, 1, 1, 0, 1, 1, 2]
    assert layout.run_bits.tolist() == [1, 0, 1, 0, 1, 0, 1]
    assert np.flatnonzero(layout.orig == 0).tolist() == [3]
    edged = lay_out((1, 0), table, edge_buffers=True)
    assert edged.bits() == "00" + layout.bits() + "00"
    assert starts(edged)[np.flatnonzero(edged.orig == 0)].tolist() == [0, 7, 14]


def test_identify_buffers_examples():
    # threshold floor(0.5 * 25 / 2) = 6; the 10-zero run is a buffer
    def windows(bits):
        return [bits[a:b] for a, b in window_spans(bits, 6)]

    assert windows("101" + "0" * 10 + "11") == ["101", "11"]
    # trailing 0 of the first segment is absorbed into the buffer zero-run
    assert windows("10" + "0" * 10 + "11") == ["1", "11"]
    assert windows("1" * 9) == ["1" * 9]
    assert windows("") == []
    # zero-run of exactly threshold length is NOT a buffer (strict compare)
    assert windows("1" + "0" * 6 + "1") == ["1" + "0" * 6 + "1"]
    assert windows("1" + "0" * 7 + "1") == ["1", "1"]


def test_window_spans_cover_segments():
    bits = "0" * 8 + "101" + "0" * 8 + "11" + "0" * 8
    spans = window_spans(bits, 6)
    assert [bits[a:b] for a, b in spans] == ["101", "11"]


def scan_window_spans(bits, threshold):
    """The character-by-character scan that window_spans replaced, kept as an oracle."""
    spans, start, i, n = [], 0, 0, len(bits)
    while i < n:
        if bits[i] == "0":
            j = i
            while j < n and bits[j] == "0":
                j += 1
            if j - i > threshold:
                if i > start:
                    spans.append((start, i))
                start = j
            i = j
        else:
            i += 1
    if n > start:
        spans.append((start, n))
    return spans


@settings(max_examples=300, deadline=None)
@given(st.text("01", max_size=80), st.integers(0, 10))
def test_window_spans_matches_scan(bits, threshold):
    assert window_spans(bits, threshold) == scan_window_spans(bits, threshold)


def test_threshold_decode_examples():
    assert threshold_decode("1111000011", 3) == "11001"
    assert threshold_decode("101", 3) == "101"
    assert threshold_decode("0001111", 3) == "011"  # a run of exactly T stays a 1-run
    assert threshold_decode("", 3) == ""
    with pytest.raises(ValueError):
        threshold_decode("1", 0)


def test_params_invariants():
    inner = InnerParams(SProfile(25, 13, 6), 2)
    outer = OuterSpec(4, 32, 4, 0.125)
    with pytest.raises(ValueError):
        SchemeParams(ChannelModel("bdc", 0.3), 10.0, 13.5, 2.5, 8, inner, outer)
    with pytest.raises(ValueError):
        SchemeParams(ChannelModel("prc", 0.5), 0.1, 0.4, 2.5, 8, inner, outer)  # M2 <= lam
    with pytest.raises(ValueError):  # N1 = N2 = 2 bits
        SchemeParams(ChannelModel("prc", 3.0), 3.5, 5.5, 2.5, 4, inner, outer)


def _single_codeword(s, symbol):
    return lay_out((symbol,), s.run_table, edge_buffers=True)


def _delete_run(layout, i):
    """Per-bit copy counts that delete run i of a layout and keep every other bit."""
    counts = np.ones(len(layout), dtype=np.int64)
    counts[starts(layout)[i]:starts(layout)[i] + layout.lengths[i]] = 0
    return counts


def test_blowup_factors(bdc_desk):
    assert (bdc_desk.N1, bdc_desk.N2) == (6, 20)
    assert bdc_desk.B == ceil_snapped(2.5 * 25 / 0.7)


def test_alphabet_guard(bdc_desk):
    with pytest.raises(ValueError, match="outer alphabet 4 exceeds inner codebook size 3"):
        Scheme(bdc_desk.params, bdc_desk.inner_cb.truncate(3), bdc_desk.outer)
    with pytest.raises(ValueError, match="outer code does not match the declared parameters"):
        Scheme(
            replace(bdc_desk.params, outer=OuterSpec(200, 32, 4, 0.125)),
            bdc_desk.inner_cb,
            bdc_desk.outer,
        )


@pytest.mark.parametrize("changes", [
    {"channel": ChannelModel("bdc", 1 - 1e-9)},  # N2 = 13.5e9 bits
    {"M_B": 1e8},  # B = 3.6e9 bits
    {"M_B": 2e6},  # B = 71.4e6 bits: a row of 32 codewords holds 2.36e9 bits
])
def test_run_lengths_must_fit_int32(bdc_desk, changes):
    with pytest.raises(ValueError, match=r"must stay below 2\*\*31"):  # the parameters alone
        replace(bdc_desk.params, **changes)
    assert bdc_desk.encode_with_layout(0).lengths.dtype == np.int32


def test_encode_length_formula(bdc_desk):
    s = bdc_desk
    n = s.outer.spec.n
    expected = n * (13 * s.N1 + 6 * s.N2) + (n - 1) * s.B
    for msg in (0, 1, 255):
        assert len(s.encode(msg)) == expected


def test_layout_classes_have_one_length(bdc_desk):
    # the channel draws the survivors of each class of runs at one length
    s = bdc_desk
    layouts = [s.encode_with_layout(msg) for msg in (0, 90, 255)]
    layouts += [_single_codeword(s, symbol) for symbol in range(len(s.inner_cb))]
    for layout in layouts:
        for orig, length in ((0, s.B), (1, s.N1), (2, s.N2)):
            assert set(layout.lengths[layout.orig == orig].tolist()) == {length}


def test_encode_injective(bdc_desk):
    rnd = random.Random(11)
    msgs = rnd.sample(range(256), 40)
    encodings = {bdc_desk.encode(m) for m in msgs}
    assert len(encodings) == len(msgs)


def test_single_block_scheme_has_no_buffers():
    params = desk_params("bdc")
    params = replace(params, outer=OuterSpec(4, 1, 0, 0.5))
    inner_cb = cached_inner_codebook(params.inner).truncate(4)
    scheme = Scheme(params, inner_cb, construct_outer(params.outer, 3))
    bits = scheme.encode(0)
    assert len(bits) == 13 * scheme.N1 + 6 * scheme.N2
    assert "0" * scheme.B not in bits


def test_composition_identity(bdc_desk):
    # clean encoding splits into one window per inner codeword, and any
    # threshold in [N1, N2) maps each window back to its codeword exactly
    s = bdc_desk
    bits = s.encode(201)
    windows = [bits[a:b] for a, b in window_spans(bits, s.params.buffer_threshold)]
    symbols = s.outer.encode(201)
    assert len(windows) == len(symbols)
    for T in (s.N1, (s.N1 + s.N2) // 2, s.N2 - 1):
        for win, sym in zip(windows, symbols):
            assert threshold_decode(win, T) == s.inner_cb.codewords[sym]


def test_decode_clean(bdc_desk):
    for msg in (0, 77, 200):
        assert bdc_desk.decode(bdc_desk.encode(msg)) == msg


def test_decode_totality_fuzz(bdc_desk):
    rnd = random.Random(13)
    for _ in range(25):
        junk = "".join(rnd.choice("01") for _ in range(rnd.randrange(0, 400)))
        assert 0 <= bdc_desk.decode(junk) < 256


def test_decode_survives_one_deleted_buffer(bdc_desk):
    # removing a buffer merges two codeword windows: at most 2 symbol
    # deletions plus 1 insertion, inside the outer decoding radius of 4
    s = bdc_desk
    msg = 90
    bits = s.encode(msg)
    block, B = 13 * s.N1 + 6 * s.N2, s.B
    start = 3 * block + 2 * B  # third buffer
    corrupted = bits[:start] + bits[start + B:]
    assert s.decode(corrupted) == msg


def test_trace_clean_channel(bdc_desk):
    s = bdc_desk
    layout = s.encode_with_layout(42)
    enc = layout.bits()
    assert enc == s.encode(42)
    msg, trace = s.decode_with_trace(enc)
    assert msg == 42
    assert len(trace.window_boundaries) == 32
    symbols = list(s.outer.encode(42))
    assert trace.per_window_threshold_outputs == [s.inner_cb.codewords[c] for c in symbols]
    assert trace.per_window_inner_symbols == symbols
    xs, events = classify(s, layout, per_run(layout, np.ones(len(enc), dtype=np.int64)))
    assert events == {
        "deleted_buffer": 0, "spurious_buffer": 0, "wrong_inner_decode": 0,
    }
    assert xs.tolist() == [0] * 32


def test_trace_x_for_vanished_run(bdc_desk):
    # wipe out a blown-up 1-run that precedes a 2-run: X = 1 + 2 = 3
    s = bdc_desk
    layout = _single_codeword(s, 2)
    orig = layout.orig.tolist()
    j = next(i for i in range(len(orig) - 1) if orig[i] == 1 and orig[i + 1] == 2)
    xs, _ = classify(s, layout, per_run(layout, _delete_run(layout, j)))
    assert xs.tolist() == [3]


def test_trace_x_for_vanished_last_run(bdc_desk):
    # the final run vanishing costs its own length plus 2
    s = bdc_desk
    layout = _single_codeword(s, 1)
    last = np.flatnonzero(layout.orig == 0)[-1] - 1
    xs, _ = classify(s, layout, per_run(layout, _delete_run(layout, last)))
    assert xs.tolist() == [layout.orig[last] + 2]


def test_trace_deleted_buffer_flagged(bdc_desk):
    s = bdc_desk
    layout = _single_codeword(s, 0)
    first_buffer = np.flatnonzero(layout.orig == 0)[0]
    _, events = classify(s, layout, per_run(layout, _delete_run(layout, first_buffer)))
    assert events["deleted_buffer"] == 1


def test_scheme_serialization_roundtrip(tmp_path, bdc_desk):
    s = bdc_desk
    s.inner_cb.save(tmp_path / "cb.txt")
    s.outer.save(tmp_path / "oc.txt")
    save_scheme(s, tmp_path / "scheme.txt", "cb.txt", "oc.txt", 2024)
    loaded = load_scheme(tmp_path / "scheme.txt")
    assert (loaded.N1, loaded.N2, loaded.B) == (s.N1, s.N2, s.B)
    assert loaded.inner_cb.codewords == s.inner_cb.codewords
    assert loaded.outer.codewords == s.outer.codewords
    assert loaded.decode(s.encode(9)) == 9


def test_save_scheme_refuses_another_seed(tmp_path, bdc_desk):
    # load_scheme refuses a descriptor whose seed is not the outer code's, so none is written
    with pytest.raises(ValueError, match="^seed=5 but the outer code was built with seed=2024$"):
        save_scheme(bdc_desk, tmp_path / "scheme.txt", "cb.txt", "oc.txt", 5)
    assert not (tmp_path / "scheme.txt").exists()


def test_inner_decode_takes_first_of_duplicate_codewords(bdc_desk):
    c = bdc_desk.inner_cb.codewords
    s = replace(bdc_desk, inner_cb=replace(bdc_desk.inner_cb, codewords=(c[0], c[1], c[1], c[3])))
    # the duplicate's window decodes to the first copy, and joins the memo at it
    window = lay_out((2,), s.run_table).bits()
    assert s.decode_with_trace(window)[1].per_window_inner_symbols == [1]
    assert held(s) == {window_key(c[1]): 1}
    assert s.inner_cb.decode(c[1]) == 1


def test_codewords_of_too_many_runs_for_a_key_decode_as_strings(bdc_desk):
    # 59 alternating runs, two of them 2-runs: no codeword has a run key, so
    # each window is decoded from its string, and the memo stays empty
    def codeword(i, j):
        return "".join(str(1 - k % 2) * (1 + (k in (i, j))) for k in range(59))

    inner = InnerParams(SProfile(61, 57, 2), 2)
    codewords = sorted(codeword(i, j) for i, j in ((0, 58), (5, 50), (10, 40), (20, 30)))
    s = Scheme(replace(bdc_desk.params, inner=inner), InnerCodebook(inner, tuple(codewords)),
               bdc_desk.outer)
    assert held(s) == {}
    for message in (0, 77, 255):
        layout = s.encode_with_layout(message)
        assert s.decode_block(layout.run_bits[None], layout.lengths[None]) == [message]
        assert s.decode(layout.bits()) == message
    assert held(s) == {}
