"""The run-level signal path against the bit-string path it replaced.

The string oracles below expand a transmission bit by bit and walk the
received string: window_spans and the scalar inner and outer decodes
character by character, threshold_decode run by run with its own length
test; and classify as it was written on strings. The run-level path must give the same answers on any per-bit copy
counts, including all-zero and large ones, also when several receptions are
decoded in one block, where a row of any runs of 0s and 1s decodes as it
does alone, and classify on any block of transmissions. Both
harness modes are checked, across block edges, against per-trial string
decodes and the frozen per-trial classify loop, on the draws the harness
makes per block; and each row of a block layout against encode_with_layout.
The outer codeword lookup is checked against the bare argmin of a one-row
lcs_rows pass, the inner symbols looked up by run-pattern key against the
scalar inner decode, merge_runs, whose separator runs stand for the owner
changes, against the reduceat merge it replaced, and
the inner-decode memo against its cap, against the windows the string path
would put in it, against a second decode of a block, which thresholds no
run, and as a sorted table after any sequence of blocks.
"""

import random
import statistics
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from math import exp, sqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delchan.channels import RngStream, apply_copy_counts
from delchan import harness
from delchan.harness import (
    _BLOCK_TRIALS,
    report_json,
    run_end_to_end,
    run_single_codeword,
)
from delchan import scheme as scheme_module
from delchan.inner import InnerCodebook
from delchan.outer import OuterCode
from delchan.scheme import (
    _KEY_BITS,
    _MEMO_CAP,
    _SENTINEL,
    DecodeTrace,
    Layout,
    Scheme,
    classify,
    lay_out,
    merge_runs,
    threshold_decode,
    threshold_text,
    window_spans,
)
from delchan.strings import lcs_rows
from oracles import fed, held, per_run, runs_of, starts, tight_desk, window_key


@pytest.fixture(scope="module")
def schemes(bdc_desk, prc_desk):
    return {"bdc": bdc_desk, "prc": prc_desk, "bdc_M_B=0.5": tight_desk("bdc")}


SCHEMES = ["bdc", "prc", "bdc_M_B=0.5"]


def string_encode(scheme, message):
    blocks = [
        "".join(str(b) * (scheme.N1 if ln == 1 else scheme.N2) for b, ln in runs_of(codeword))
        for codeword in map(scheme.inner_cb.codewords.__getitem__, scheme.outer.encode(message))
    ]
    return ("0" * scheme.B).join(blocks)


def string_decode(scheme, received):
    p = scheme.params
    spans = window_spans(received, p.buffer_threshold)
    outputs = [threshold_decode(received[a:b], p.T) for a, b in spans]
    symbols = [scheme.inner_cb.decode(w) for w in outputs]
    return scheme.outer.decode(symbols), DecodeTrace(spans, outputs, symbols)


def string_classify(scheme, layout, counts):
    """classify on bit strings: survivors from a per-bit cumulative sum, each
    codeword's received bits as a string, and the scalar inner decode."""
    p = scheme.params
    threshold = p.buffer_threshold
    before = [0, *np.cumsum(counts).tolist()]  # survivors of bits [0, i)
    events = {"deleted_buffer": 0, "spurious_buffer": 0, "wrong_inner_decode": 0}
    codeword_runs = [[]]
    ends = (starts(layout) + layout.lengths).tolist()
    for start, end, bit, orig in zip(starts(layout).tolist(), ends,
                                     layout.run_bits.tolist(), layout.orig.tolist()):
        if orig == 0:
            events["deleted_buffer"] += before[end] - before[start] <= threshold
            codeword_runs.append([])
        else:
            codeword_runs[-1].append((before[end] - before[start], bit, orig))
    xs = []
    for symbol, runs in zip(layout.symbols, [r for r in codeword_runs if r]):
        next_len = [orig for _, _, orig in runs[1:]] + [2]
        x = 0
        for (z, _, orig), after in zip(runs, next_len):
            if z == 0:
                x += orig + after
            elif (2 if z > p.T else 1) != orig:
                x += 1
        xs.append(x)
        window = "".join(str(bit) * z for z, bit, _ in runs).strip("0")
        events["spurious_buffer"] += sum(
            bit == 0 and ln > threshold for bit, ln in runs_of(window)
        )
        events["wrong_inner_decode"] += (
            not window or scheme.inner_cb.decode(threshold_decode(window, p.T)) != symbol
        )
    return xs, events


def copy_counts(kind, seed, layout):
    """Per-bit copy counts of one of several shapes, drawn from seed."""
    rng = np.random.default_rng(seed)
    n = len(layout)
    if kind == "deletion":
        return (rng.random(n) >= rng.uniform(0.0, 0.95)).astype(np.int64)
    if kind == "repeat":
        return rng.poisson(rng.uniform(0.05, 3.0), n)
    if kind == "zero":
        return np.zeros(n, np.int64)
    if kind == "large":
        return rng.integers(0, 60, n)
    # whole runs vanish or survive: buffers drop out and neighbours merge
    keep = rng.random(layout.lengths.size) < rng.uniform(0.2, 1.0)
    return np.repeat(keep * rng.integers(1, 4, keep.size), layout.lengths)


KINDS = st.sampled_from(["deletion", "repeat", "zero", "large", "runs"])


def per_bit(layout, survivors):
    """Per-bit copy counts that put each run's survivors on its first bit."""
    counts = np.zeros(len(layout), np.int64)
    counts[starts(layout)] = survivors
    return counts


@pytest.mark.parametrize("name", SCHEMES)
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 255), KINDS, st.integers(0, 2**32 - 1))
def test_run_decoder_matches_string_decoder(schemes, name, message, kind, seed):
    s = schemes[name]
    layout = s.encode_with_layout(message)
    encoded = layout.bits()
    assert encoded == string_encode(s, message)
    counts = copy_counts(kind, seed, layout)
    received = apply_copy_counts(encoded, counts)
    expected = string_decode(s, received)
    assert s.decode_block(layout.run_bits[None], per_run(layout, counts)[None]) == [expected[0]]
    assert s.decode_with_trace(received) == expected


RECEPTION = st.tuples(st.integers(0, 255), KINDS, st.integers(0, 2**32 - 1), st.booleans(),
                      st.booleans())


@pytest.mark.parametrize("name", SCHEMES)
@settings(max_examples=20, deadline=None)
@given(receptions=st.lists(RECEPTION, min_size=1, max_size=5))
@example(receptions=[(1, "zero", 0, False, False), (2, "deletion", 1, True, True),
                     (3, "runs", 2, True, True), (4, "zero", 3, False, False)])
def test_block_decoder_matches_string_decoder(schemes, name, receptions):
    # each reception may also lose its first and its last run; runs of
    # neighbouring receptions must neither merge nor share a window
    s = schemes[name]
    bits, survivors, expected = [], [], []
    for message, kind, seed, lose_first, lose_last in receptions:
        layout = s.encode_with_layout(message)
        counts = copy_counts(kind, seed, layout)
        if lose_first:
            counts[: layout.lengths[0]] = 0
        if lose_last:
            counts[starts(layout)[-1]:] = 0
        bits.append(layout.run_bits)
        survivors.append(per_run(layout, counts))
        received = apply_copy_counts(layout.bits(), counts)
        expected.append(string_decode(s, received))
        assert s.decode_with_trace(received) == expected[-1]
    assert s.decode_block(np.array(bits), np.array(survivors)) == [m for m, _ in expected]


@pytest.mark.parametrize("name", SCHEMES)
def test_block_decodes_as_its_rows_alone(schemes, name):
    # rows that lose their first run, their first two, their last run, both
    # ends, or every run (an empty reception) must not disturb their neighbours
    s, alone = replace(schemes[name]), replace(schemes[name])  # fresh memos
    rng = RngStream(23, 0).generator()
    layout = s.encode_block(rng.integers(0, s.outer.spec.num_messages, 24))
    counts = s.params.channel.copy_counts(layout, rng)
    counts[::2, 0] = 0
    counts[1::6, :2] = 0
    counts[::3, -1] = 0
    counts[[5, 23]] = 0
    rows = [alone.decode_block(bits[None], z[None]) for bits, z in zip(layout.run_bits, counts)]
    assert s.decode_block(layout.run_bits, counts) == [decoded for row in rows for decoded in row]
    assert rows[5] == rows[23] == [s.decode("")] == [0]
    assert held(s) == held(alone)  # the same keys and symbols


# a run of either bit, of a length about T (8) or a buffer threshold (31, or 6 at M_B=0.5)
FREE_RUN = st.tuples(st.integers(0, 1), st.sampled_from([0, 0, 1, 2, 6, 7, 8, 9, 31, 32, 90]))
FREE_BLOCK = st.integers(0, 24).flatmap(lambda runs: st.tuples(
    st.just(runs), st.lists(st.lists(FREE_RUN, min_size=runs, max_size=runs), max_size=5)))


@pytest.mark.parametrize("name", SCHEMES)
@settings(max_examples=60, deadline=None)
@given(block=FREE_BLOCK)
@example(block=(4, []))
@example(block=(0, [[], []]))
# same-bit neighbours, zero-length runs at either end, an empty row, an
# all-zero row, and rows that end in the bit the next row starts with
@example(block=(4, [[(0, 0), (1, 3), (1, 9), (0, 40)], [(0, 0), (1, 0), (0, 0), (1, 0)],
                    [(0, 5), (0, 40), (0, 2), (0, 0)], [(0, 2), (1, 1), (0, 1), (1, 9)],
                    [(1, 4), (0, 2), (1, 8), (0, 0)]]))
def test_block_of_free_rows_decodes_as_its_rows_alone(schemes, name, block):
    # rows of any runs of 0s and 1s, not only encodings, which alternate from
    # a 1-run: each row of a block hands the outer decoder its string's window
    # symbols, and decodes as it does alone and as its string does
    s = schemes[name]
    runs, rows = block
    bits = np.array([[bit for bit, _ in row] for row in rows], np.uint8).reshape(len(rows), runs)
    lengths = np.array([[n for _, n in row] for row in rows], np.int32).reshape(len(rows), runs)
    expected = [string_decode(s, "".join(str(bit) * n for bit, n in row)) for row in rows]
    with mock.patch.object(OuterCode, "decode_rows", autospec=True,
                           side_effect=OuterCode.decode_rows) as outer:
        decoded = s.decode_block(bits, lengths)
    symbols = [trace.per_window_inner_symbols for _, trace in expected]
    assert [list(row) for row in outer.call_args.args[1]] == symbols
    alone = [s.decode_block(b[None], z[None]) for b, z in zip(bits, lengths)]
    assert decoded == [message for row in alone for message in row] == [m for m, _ in expected]


@pytest.mark.parametrize("name", ["bdc", "prc"])
def test_memo_holds_the_string_paths_windows(schemes, name):
    # a fresh memo is empty, and the key of each nonempty window the string
    # path meets joins it, with the window's inner symbol
    s = replace(schemes[name])  # a fresh memo
    assert held(s) == {}
    rng = RngStream(29, 0).generator()
    layout = s.encode_block(rng.integers(0, s.outer.spec.num_messages, 64))
    counts = s.params.channel.copy_counts(layout, rng)
    s.decode_block(layout.run_bits, counts)
    windows = []
    for bits, z in zip(layout.run_bits, counts):
        received = apply_copy_counts("".join(map(str, bits)), z)
        windows += [threshold_decode(received[a:b], s.params.T)
                    for a, b in window_spans(received, s.params.buffer_threshold)]
    expected = {window_key(w): s.inner_cb.decode(w) for w in windows}
    assert 0 < len(expected) < _MEMO_CAP
    assert held(s) == expected


def window_runs(s, spec):
    """One window's first bit and run lengths: a codeword's runs given
    survivors on either side of T (one of them crossing it, if "crossed"),
    or free runs, perhaps none."""
    kind, symbol, start, lengths = spec
    if kind == "free":
        return start, lengths
    T = s.params.T
    orig = s.run_table[0][symbol % len(s.inner_cb), 1:]
    ranges = [(1, T) if o == 1 else (T + 1, 2 * T + 3) for o in orig]
    picked = [lo + n % (hi - lo + 1) for (lo, hi), n in zip(ranges, lengths + [0] * len(orig))]
    if kind == "crossed" and lengths:  # move one run across the threshold
        i = lengths[0] % len(picked)
        picked[i] = T if picked[i] > T else T + 1
    return start, picked


def window_arrays(windows):
    """The run bits and lengths of windows given as (first bit, run lengths),
    back to back, and [first, last) of each."""
    bits = [(start + k) % 2 for start, lengths in windows for k in range(len(lengths))]
    lengths = [n for _, window in windows for n in window]
    sizes = np.array([len(window) for _, window in windows], np.int64)
    last = np.cumsum(sizes)
    return np.array(bits, np.uint8), np.array(lengths, np.int64), last - sizes, last


def thresholded(windows, T):
    """Each window of window_arrays as a string, thresholded."""
    return [threshold_decode("".join(str((start + k) % 2) * n for k, n in enumerate(window)), T)
            for start, window in windows]


WINDOW = st.tuples(st.sampled_from(["codeword", "crossed", "free"]), st.integers(0, 3),
                   st.integers(0, 1), st.lists(st.integers(1, 20), max_size=70))


@settings(max_examples=200, deadline=None)
@given(specs=st.lists(WINDOW, max_size=6))
@example(specs=[])
@example(specs=[("codeword", 0, 0, [1]), ("codeword", 0, 1, [1])])
@example(specs=[("free", 0, 1, [9] * 19), ("free", 0, 1, [1] * 26), ("codeword", 2, 1, [1]),
                ("free", 0, 0, [])])
@example(specs=[("free", 0, 1, [1, 9] * 28 + [9]), ("free", 0, 0, [9, 1] * 29),
                ("free", 0, 1, [9] * 58), ("free", 0, 1, [1] * 57)])
def test_inner_symbols_match_scalar_decode(bdc_desk, specs):
    # windows of the codewords' run count that start with a 0, windows whose
    # thresholded string is longer than m, windows of more runs than a run
    # key covers, empty windows (symbol -1) and no windows at all included
    s = replace(bdc_desk)  # a fresh memo
    windows = [window_runs(s, spec) for spec in specs]
    symbols = s.inner_symbols(*window_arrays(windows))
    strings = thresholded(windows, s.params.T)
    assert symbols.tolist() == [s.inner_cb.decode(w) if w else -1 for w in strings]
    # the memo holds the run key of each nonempty window, no more; a window
    # past _KEY_BITS runs has none, and nothing of it is held
    keys = {window_key(w) for w in strings if w}
    assert set(held(s)) == {key for key in keys if not isinstance(key, str)}


def reduceat_merge_runs(bits, lengths, owner):
    """merge_runs as first written: one np.add.reduceat over every kept run."""
    keep = lengths > 0
    bits, lengths, owner = bits[keep], lengths[keep], owner[keep]
    starts = np.flatnonzero(np.diff(bits + 2 * owner, prepend=-1))
    return bits[starts], np.add.reduceat(lengths, starts), owner[starts]


RUN = st.tuples(st.integers(0, 1), st.sampled_from([0, 0, 0, 1, 2, 7]), st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.lists(RUN, max_size=60))
@example([(1, 0, False), (0, 0, False), (1, 3, False), (0, 0, False), (1, 2, False),
          (0, 0, True), (1, 0, False), (1, 4, False), (0, 1, False), (1, 0, False)])
# no run merges: a vanished run and owner boundaries between same-bit runs
@example([(1, 2, False), (0, 0, False), (0, 1, False), (1, 3, True), (1, 1, True)])
def test_merge_runs_matches_reduceat(runs):
    # chains of vanished runs, same-bit neighbours and owner boundaries; an
    # owner boundary is a separator run of bit 2 or 3, in turn, for merge_runs
    bits = np.array([bit for bit, _, _ in runs], np.uint8)
    lengths = np.array([n for _, n, _ in runs], np.int64)
    owner = np.cumsum([new for _, _, new in runs], dtype=np.int64)
    changes = (owner[1:] != owner[:-1]).nonzero()[0] + 1
    marks = 2 + np.arange(changes.size) % 2
    separated_bits = np.insert(bits, changes, marks)
    separated_lengths = np.insert(lengths, changes, 1)
    given_lengths = separated_lengths.copy()
    got_bits, got_lengths = merge_runs(separated_bits, separated_lengths)
    rows = got_bits < 2
    got_owner = owner[:1].sum() + np.cumsum(got_bits > 1)[rows]  # first owner + separators before
    expected = reduceat_merge_runs(bits, lengths, owner)
    for got, want in zip((got_bits[rows], got_lengths[rows]), expected):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(got_owner, expected[2])
    assert np.count_nonzero(~rows) == changes.size  # no separator merges or vanishes
    assert np.array_equal(separated_lengths, given_lengths)


def block_survivors(s, origs, rng):
    """Survivors of a block's runs (one row of original run lengths per
    trial, 0 for a buffer), drawn as the harness draws them: run i of the
    block, row by row, takes word i of the stream, inverted by its own law."""
    words = rng.bit_generator.random_raw(origs.size).reshape(origs.shape)
    z = np.empty(origs.shape, np.int64)
    for orig, n in ((0, s.B), (1, s.N1), (2, s.N2)):
        at = origs == orig
        z[at] = s.params.channel.survivors(n, int(at.sum()), fed(words[at]))
    return z


def end_to_end_oracle(s, seed, index, size):
    """(message, received string, string_decode) of each trial of
    run_end_to_end's block `index` of `size` trials, drawn from the strings
    as the harness draws it."""
    rng = RngStream(seed, index).generator()
    messages = rng.integers(0, s.outer.spec.num_messages, size).tolist()
    encoded = [string_encode(s, message) for message in messages]
    orig_of = {s.B: 0, s.N1: 1, s.N2: 2}
    origs = np.array([[orig_of[ln] for _, ln in runs_of(e)] for e in encoded])
    out = []
    for message, e, counts in zip(messages, encoded, block_survivors(s, origs, rng)):
        run_bits = "".join(str(bit) for bit, _ in runs_of(e))
        received = apply_copy_counts(run_bits, counts)
        out.append((message, received, string_decode(s, received)))
    return out


@pytest.mark.parametrize("name", ["bdc", "prc"])
def test_end_to_end_blocks_match_per_trial_string_decode(schemes, name, monkeypatch):
    s = schemes[name]
    blocks = []
    decode_block = Scheme.decode_block

    def recording(self, bits, lengths):
        blocks.append(decode_block(self, bits, lengths))
        return blocks[-1]

    monkeypatch.setattr(Scheme, "decode_block", recording)
    n = _BLOCK_TRIALS
    oracle = {size: end_to_end_oracle(s, 11, 0, size) for size in (n - 1, n)}
    oracle["tail"] = end_to_end_oracle(s, 11, 1, 1)
    for trials, sizes, expected in ((n - 1, [n - 1], oracle[n - 1]), (n, [n], oracle[n]),
                                    (n + 1, [n, 1], oracle[n] + oracle["tail"])):
        blocks.clear()
        report = run_end_to_end(s, trials, 11)
        assert [len(b) for b in blocks] == sizes
        assert [d for b in blocks for d in b] == [d[0] for _, _, d in expected]
        assert report["successes"] == sum(m == d[0] for m, _, d in expected)
    for _, received, expected_trace in oracle[n - 1] + oracle[n] + oracle["tail"]:
        assert s.decode_with_trace(received) == expected_trace


@pytest.mark.parametrize("name", ["bdc", "prc"])
def test_block_layout_rows_match_encode_with_layout(schemes, name):
    s = schemes[name]
    messages = np.arange(s.outer.spec.num_messages)
    block = s.encode_block(messages)
    for message, lengths, orig, run_bits in zip(messages.tolist(), block.lengths, block.orig,
                                                block.run_bits):
        layout = s.encode_with_layout(message)
        assert np.array_equal(lengths, layout.lengths)
        assert np.array_equal(orig, layout.orig)
        assert np.array_equal(run_bits, layout.run_bits)


def test_first_block_does_not_depend_on_the_trial_count(bdc_desk, monkeypatch):
    decoded = []
    decode_block = Scheme.decode_block

    def recording(self, bits, lengths):
        decoded.append(decode_block(self, bits, lengths))
        return decoded[-1]

    monkeypatch.setattr(Scheme, "decode_block", recording)
    run_end_to_end(bdc_desk, _BLOCK_TRIALS, 19)
    run_end_to_end(bdc_desk, _BLOCK_TRIALS + 1, 19)
    assert decoded[0] == decoded[1]
    assert len(decoded[0]) == _BLOCK_TRIALS


def lane_argmin(code, received):
    lcs = lcs_rows(np.array([received], np.int64), code._masks, code.spec.n)[0]
    return int(np.argmin(code.spec.n + len(received) - 2 * lcs))


def test_outer_lookup_matches_lane_argmin(bdc_desk):
    code = bdc_desk.outer
    cw = code.codewords
    duplicated = replace(code, codewords=cw[:3] + cw[1:2] + cw[4:])  # message 3 repeats 1
    rnd = random.Random(8)
    for target in (code, duplicated):
        receptions = [()]
        for c in target.codewords:
            i, j = rnd.randrange(len(c)), rnd.randrange(len(c) + 1)
            receptions += [c, c[:i] + c[i + 1:], c[:j] + (rnd.randrange(code.spec.q),) + c[j:]]
        for received in receptions:
            assert target.decode(received) == lane_argmin(target, received)
    assert duplicated.decode(cw[1]) == 1


def test_inner_memo_stops_at_its_cap(bdc_desk):
    # distinct windows of 10 to 40 runs, each run 1 or T + 1 bits long, a
    # few hundred to a call: past _MEMO_CAP decoded windows the memo stops
    # growing, holding the first _MEMO_CAP keys, and the windows it drops
    # still decode
    s = replace(bdc_desk)  # a fresh memo
    rnd = random.Random(3)
    windows = list(dict.fromkeys((rnd.randint(0, 1), tuple(rnd.choices((1, s.params.T + 1),
                                                                     k=rnd.randint(10, 40))))
                                 for _ in range(_MEMO_CAP + 300)))
    assert len(windows) > _MEMO_CAP
    for chunk in range(0, len(windows), 400):
        block = windows[chunk:chunk + 400]
        symbols = s.inner_symbols(*window_arrays(block))
        assert symbols.tolist() == [s.inner_cb.decode(w) for w in thresholded(block, s.params.T)]
        assert len(held(s)) <= _MEMO_CAP
    keys = [window_key(w) for w in thresholded(windows, s.params.T)]
    assert set(held(s)) == set(keys[:_MEMO_CAP])



@lru_cache(maxsize=1)
def memo_pool(T):
    """More distinct windows than _MEMO_CAP, each of 8 to 30 runs of 1 or T + 1
    bits, and the key of each thresholded window."""
    rnd = random.Random(5)
    pool = list(dict.fromkeys((rnd.randint(0, 1), tuple(rnd.choices((1, T + 1),
                                                                    k=rnd.randint(8, 30))))
                              for _ in range(_MEMO_CAP + 500)))
    return pool, [window_key(w) for w in thresholded(pool, T)]


@pytest.mark.parametrize("state", ["empty", "below", "above", "cap"])
@settings(max_examples=10, deadline=None)
@given(specs=st.lists(WINDOW, max_size=6), picks=st.lists(st.integers(0, 2**16), max_size=6))
def test_memo_index_agrees_with_scalar_decode(bdc_desk, state, specs, picks):
    # a block looked up with an empty memo, with 79 and 80 keys held in two
    # blocks ("below", "above"), and at _MEMO_CAP; the block mixes new
    # windows with windows the memo holds. The symbols are the scalar
    # decodes, and the memo holds the first _MEMO_CAP run keys in window
    # order, as a fresh memo fed every window in one block does
    s, T = replace(bdc_desk), bdc_desk.params.T  # a fresh memo
    pool, pool_keys = memo_pool(T)
    sizes = {"empty": [], "below": [40, 39], "above": [40, 40], "cap": [1400] * 3}[state]
    for a, b in zip(np.cumsum([0, *sizes]).tolist(), np.cumsum(sizes).tolist()):
        s.inner_symbols(*window_arrays(pool[a:b]))
    s.inner_symbols(*window_arrays([]))  # an empty block changes nothing
    assert list(held(s)) == sorted(pool_keys[:min(sum(sizes), _MEMO_CAP)])
    known = sum(sizes) + 10  # the windows fed, and 10 more
    block = [window_runs(s, spec) for spec in specs] + [pool[i % known] for i in picks]
    symbols = s.inner_symbols(*window_arrays(block))
    strings = thresholded(block, T)
    assert symbols.tolist() == [s.inner_cb.decode(w) if w else -1 for w in strings]
    expected = dict.fromkeys(pool_keys[:sum(sizes)])
    for key in (window_key(w) for w in strings if w):
        if len(expected) < _MEMO_CAP and not isinstance(key, str):
            expected.setdefault(key)
    assert set(held(s)) == set(list(expected)[:_MEMO_CAP])
    one_block = replace(bdc_desk)
    one_block.inner_symbols(*window_arrays(pool[:sum(sizes)] + block))
    assert held(s) == held(one_block)


@settings(max_examples=100, deadline=None)
@given(blocks=st.lists(st.lists(WINDOW, max_size=6), max_size=5),
       cap=st.sampled_from([2, 5, _MEMO_CAP]))
def test_memo_is_a_sorted_table_of_the_first_run_keys(bdc_desk, blocks, cap):
    # after any sequence of blocks, at any cap, the memo's keys ascend
    # strictly to _SENTINEL, and it holds the first cap distinct run keys in
    # window order, each with the scalar decode of its window
    s = replace(bdc_desk)  # a fresh memo
    first = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheme_module, "_MEMO_CAP", cap)
        for specs in blocks:
            windows = [window_runs(s, spec) for spec in specs]
            s.inner_symbols(*window_arrays(windows))
            for w in thresholded(windows, s.params.T):
                if w and not isinstance(window_key(w), str):
                    first.setdefault(window_key(w), s.inner_cb.decode(w))
    keys = s._memo[0]
    assert (keys[1:] > keys[:-1]).all() and keys[-1] == _SENTINEL
    assert held(s) == dict(list(first.items())[:cap])


def test_window_past_a_run_key_is_decoded_every_call_never_held(bdc_desk, monkeypatch):
    # a window of _KEY_BITS + 1 runs has no run key: each copy of it reaches
    # the scalar decode on every call, and the memo never holds it; a window
    # of a codeword's runs beside it is decoded once and held
    s = replace(bdc_desk)  # a fresh memo
    long, short = (1, [1] * (_KEY_BITS + 1)), window_runs(s, ("codeword", 1, 1, []))
    long_text, short_text = thresholded([long, short], s.params.T)
    decode, decoded = InnerCodebook.decode, []
    monkeypatch.setattr(InnerCodebook, "decode", lambda cb, w: decoded.append(w) or decode(cb, w))
    expected = [decode(s.inner_cb, w) for w in (long_text, short_text, long_text)]
    for call in range(3):
        decoded.clear()
        assert s.inner_symbols(*window_arrays([long, short, long])).tolist() == expected
        assert decoded == ([long_text, short_text, long_text] if call == 0 else [long_text] * 2)
        assert held(s) == {window_key(short_text): expected[1]}


@pytest.mark.parametrize("name", ["bdc", "prc"])
def test_second_decode_of_a_block_thresholds_no_run(schemes, name, monkeypatch):
    # a warm memo answers every window of at most _KEY_BITS runs by its key;
    # only a longer window (none in this block) is thresholded to a string
    s = replace(schemes[name])  # a fresh memo
    rng = RngStream(31, 0).generator()
    layout = s.encode_block(rng.integers(0, s.outer.spec.num_messages, 16))
    counts = s.params.channel.copy_counts(layout, rng)
    runs = []

    def counting_threshold_text(bits, lengths, T):
        runs.append(bits.size)
        return threshold_text(bits, lengths, T)

    monkeypatch.setattr(scheme_module, "threshold_text", counting_threshold_text)
    first = s.decode_block(layout.run_bits, counts)
    assert sum(runs) > 0  # the first pass decodes windows the memo lacks
    runs.clear()
    assert s.decode_block(layout.run_bits, counts) == first
    assert sum(runs) == 0


def transmission(s, message, single, kind, seed):
    """A single codeword between edge buffers, or a full message; and its counts."""
    if single:
        layout = lay_out((message % len(s.inner_cb),), s.run_table, edge_buffers=True)
    else:
        layout = s.encode_with_layout(message)
    return layout, copy_counts(kind, seed, layout)


@pytest.mark.parametrize("name", SCHEMES)
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 255), st.booleans(), KINDS, st.integers(0, 2**32 - 1))
def test_classify_matches_string_classify(schemes, name, message, single, kind, seed):
    s = schemes[name]
    layout, counts = transmission(s, message, single, kind, seed)
    xs, events = classify(s, layout, per_run(layout, counts))
    assert (xs.tolist(), events) == string_classify(s, layout, counts)


EVENTS = ("deleted_buffer", "spurious_buffer", "wrong_inner_decode")
ROW = st.tuples(st.integers(0, 255), KINDS, st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("name", SCHEMES)
@settings(max_examples=20, deadline=None)
@given(specs=st.lists(ROW, min_size=1, max_size=5))
@example(specs=[(1, "zero", 0), (2, "zero", 1), (3, "runs", 2), (4, "deletion", 3),
                (5, "zero", 4)])
def test_block_classify_matches_string_classify(schemes, name, specs):
    # a block of single codewords and a block of full messages, one row per
    # spec; codewords of neighbouring rows (two full messages abut with no
    # buffer between them) must neither merge nor share a cost or a window
    s = schemes[name]
    messages = [message for message, _, _ in specs]
    q = len(s.inner_cb)
    singles = lay_out(np.array(messages)[:, None] % q, s.run_table, edge_buffers=True)
    for block, layouts in (
        (singles, [lay_out((m % q,), s.run_table, edge_buffers=True) for m in messages]),
        (s.encode_block(np.array(messages)), [s.encode_with_layout(m) for m in messages]),
    ):
        xs, events, survivors = [], dict.fromkeys(EVENTS, 0), []
        for layout, (_, kind, seed) in zip(layouts, specs):
            counts = copy_counts(kind, seed, layout)
            one_xs, one_events = string_classify(s, layout, counts)
            xs += one_xs
            events = {key: events[key] + one_events[key] for key in events}
            survivors.append(per_run(layout, counts))
        block_xs, block_events = classify(s, block, np.array(survivors))
        assert (block_xs.tolist(), block_events) == (xs, events)


def test_classify_of_no_transmissions(bdc_desk):
    for block in (lay_out(np.zeros((0, 1), np.int64), bdc_desk.run_table, edge_buffers=True),
                  bdc_desk.encode_block(np.zeros(0, np.int64))):
        xs, events = classify(bdc_desk, block, np.zeros(block.lengths.shape, np.int64))
        assert (xs.tolist(), events) == ([], dict.fromkeys(EVENTS, 0))


def test_blocks_of_no_rows(bdc_desk):
    # zero symbols or messages lay out as a block of zero rows, whose rows
    # would have the runs of one, and whose survivors and decodes are empty
    s = bdc_desk
    for block, one in (
        (lay_out(np.zeros((0, 1), np.int64), s.run_table, edge_buffers=True),
         lay_out((0,), s.run_table, edge_buffers=True)),
        (s.encode_block(np.arange(0)), s.encode_with_layout(0)),
    ):
        assert block.lengths.shape == block.orig.shape == block.run_bits.shape == (0, one.orig.size)
        assert len(block) == 0 and np.flatnonzero(block.orig == 0).size == 0
        counts = s.params.channel.copy_counts(block, RngStream(1, 0).generator())
        assert counts.shape == block.lengths.shape
        assert s.decode_block(block.run_bits, counts) == []



def test_run_bits_is_one_read_only_row(bdc_desk):
    # zero-row, zero-run and one-row layouts: each row holds the bits of the
    # runs of the string path's transmission, from one row that no caller may write
    s = bdc_desk
    one, edged = s.encode_with_layout(5), lay_out((2,), s.run_table, edge_buffers=True)
    expected = [bit for bit, _ in runs_of(string_encode(s, 5))]
    edged_expected = [0, *(bit for bit, _ in runs_of(s.inner_cb.codewords[2])), 0]
    block = s.encode_block(np.array([5]))
    cases = [(one, (one.orig.size,), expected), (block, (1, one.orig.size), [expected]),
             (edged, (edged.orig.size,), edged_expected),
             (s.encode_block(np.arange(0)), (0, one.orig.size), []),
             (Layout((), np.zeros((3, 0), np.int8), one.run_lengths), (3, 0), [[], [], []]),
             (Layout((), np.zeros(0, np.int8), one.run_lengths), (0,), [])]
    for layout, shape, bits in cases:
        assert layout.run_bits.shape == shape and layout.run_bits.dtype == np.uint8
        assert layout.run_bits.tolist() == bits
        assert not layout.run_bits.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        block.run_bits[0, 0] = 0


def test_decode_block_of_no_receptions(bdc_desk):
    runs = bdc_desk.encode_with_layout(0).orig.size
    assert bdc_desk.decode_block(np.zeros((0, runs), np.uint8), np.zeros((0, runs), np.int64)) == []


def test_classify_rejects_misfit_counts(bdc_desk):
    # each transmission given the other's counts; a block given counts of
    # its total size but not its shape
    short = lay_out((0,), bdc_desk.run_table)
    long = lay_out((0,), bdc_desk.run_table, edge_buffers=True)
    block = lay_out(np.zeros((3, 1), np.int64), bdc_desk.run_table, edge_buffers=True)
    for layout, counts in ((short, np.ones(long.lengths.size, np.int64)),
                           (long, np.ones(short.lengths.size, np.int64)),
                           (block, np.ones(block.lengths.size, np.int64)),
                           (block, np.ones(block.lengths.shape[::-1], np.int64))):
        with pytest.raises(ValueError, match="^counts length does not match input length$"):
            classify(bdc_desk, layout, counts)


def frozen_single_codeword_loop(scheme, trials, master_seed):
    """run_single_codeword as one lay_out and one string_classify per trial,
    on the harness's draws: per block of trials, one stream, the symbols,
    then the survivors of each trial's runs in turn, one word per run."""
    q = len(scheme.inner_cb)
    xs, events, buffers = [], Counter(), 0
    for index, block in enumerate(range(0, trials, _BLOCK_TRIALS)):
        rng = RngStream(master_seed, index).generator()
        symbols = rng.integers(0, q, min(_BLOCK_TRIALS, trials - block)).tolist()
        layouts = [lay_out((symbol,), scheme.run_table, edge_buffers=True)
                   for symbol in symbols]
        z = block_survivors(scheme, np.array([layout.orig for layout in layouts]), rng)
        for layout, survivors in zip(layouts, z):
            (x,), trial_events = string_classify(scheme, layout, per_bit(layout, survivors))
            xs.append(x)
            events.update(trial_events)
            buffers += len(np.flatnonzero(layout.orig == 0))
    x_var = float(statistics.variance(xs))  # exact on integers, rounded once
    probs = scheme.probs
    m = scheme.params.inner.m
    return {
        "mode": "single_codeword",
        "trials": trials,
        "master_seed": master_seed,
        "x_mean": float(statistics.mean(xs)),
        "x_var": x_var,
        "x_stderr": sqrt(x_var) / sqrt(trials),
        "error_events": dict(events),
        "buffers_transmitted": buffers,
        "deleted_buffer_frequency": events["deleted_buffer"] / buffers,
        "analytic": {
            "xi_m": probs.xi * m,
            "gamma_m_plus_p10": probs.gamma * m + probs.p10,
            "buffer_loss_bound": exp(-scheme.params.M_B * m / 8.0),
        },
    }


@pytest.mark.parametrize("name", ["prc", "bdc_M_B=0.5"])
def test_single_codeword_blocks_match_per_trial_loop(schemes, name, monkeypatch):
    s = schemes[name]
    sizes = []

    def recording(scheme, layout, counts):
        sizes.append(len(layout.lengths))
        return classify(scheme, layout, counts)

    monkeypatch.setattr(harness, "classify", recording)
    n = _BLOCK_TRIALS
    for trials, expected in ((n - 1, [n - 1]), (n, [n]), (n + 1, [n, 1])):
        sizes.clear()
        report = report_json(run_single_codeword(s, trials, 13))
        assert sizes == expected
        assert report == report_json(frozen_single_codeword_loop(s, trials, 13))


@pytest.mark.parametrize("junk", ["2", "10a1", "1 0", "01\n", "é", "1١"])
def test_decode_rejects_non_binary(bdc_desk, junk):
    with pytest.raises(ValueError, match="^received string must be binary$"):
        bdc_desk.decode(junk)
    with pytest.raises(ValueError, match="^received string must be binary$"):
        threshold_decode(junk, bdc_desk.params.T)  # the string reference reads runs alike


@pytest.mark.parametrize("name", SCHEMES)
def test_degenerate_receptions_keep_their_answers(schemes, name):
    # no window at all, one all-zero buffer, or buffer-free windows
    s = schemes[name]
    buffer_free = s.encode(77).replace("0" * s.B, "")
    receptions = ["", "0", "1", "0" * 500, "0" * 5000, "1" * 500, "10" * 300,
                  s.inner_cb.codewords[3], buffer_free]
    assert [s.decode(r) for r in receptions] == [0] * len(receptions)
    assert s.decode_with_trace("") == (0, DecodeTrace([], [], []))
