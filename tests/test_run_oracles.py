"""The run-level signal path against the bit-string path it replaced.

The string oracles below expand a transmission bit by bit and walk the
received string character by character: window_spans, threshold_decode, the
scalar inner decode and the outer decode; and classify as it was written on
strings. The run-level path must give the same answers on any per-bit copy
counts, including all-zero and large ones, also when several receptions are
decoded in one block, and classify on any block of transmissions. Both
harness modes are checked, across block edges, against per-trial string
decodes and the frozen per-trial classify loop, on the draws the harness
makes per block; and each row of a block layout against encode_with_layout.
The outer codeword lookup is checked against the bare lcs_lanes argmin, the
inner symbols looked up by run-pattern key against the scalar inner decode,
merge_runs against the reduceat merge it replaced, and the inner-decode memo
against its cap and against the windows the string path would put in it.
"""

import random
from collections import Counter
from dataclasses import replace
from math import exp, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delchan.channels import RngStream, apply_copy_counts
from delchan import harness
from delchan.cli import main
from delchan.harness import (
    _BLOCK_TRIALS,
    desk_scheme,
    report_json,
    run_end_to_end,
    run_single_codeword,
)
from delchan.scheme import (
    _MEMO_CAP,
    DecodeTrace,
    Scheme,
    classify,
    lay_out,
    merge_runs,
    save_scheme,
    threshold_decode,
    window_spans,
)
from delchan.strings import lcs_lanes, runs_of


@pytest.fixture(scope="module")
def schemes(bdc_desk, prc_desk):
    return {"bdc": bdc_desk, "prc": prc_desk, "bdc_M_B=0.5": desk_scheme("bdc", M_B=0.5)}


SCHEMES = ["bdc", "prc", "bdc_M_B=0.5"]


def string_encode(scheme, message):
    blocks = [
        "".join(str(b) * (scheme.N1 if ln == 1 else scheme.N2) for b, ln in runs_of(codeword))
        for codeword in map(scheme.inner_cb.encode, scheme.outer.encode(message))
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
    ends = (layout.starts + layout.lengths).tolist()
    for start, end, bit, orig in zip(layout.starts.tolist(), ends,
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


def per_run(layout, counts):
    """The survivors of each run, given per-bit copy counts."""
    return np.add.reduceat(counts, layout.starts)


def per_bit(layout, survivors):
    """Per-bit copy counts that put each run's survivors on its first bit."""
    counts = np.zeros(len(layout), np.int64)
    counts[layout.starts] = survivors
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
            counts[layout.starts[-1]:] = 0
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
    assert list(s._memo) == list(alone._memo)  # the same windows, in the same order


@pytest.mark.parametrize("name", ["bdc", "prc"])
def test_memo_holds_the_string_paths_windows(schemes, name):
    # codeword windows are looked up by key and never reach the memo; every
    # other window reaches it in the order the string path meets it
    s = replace(schemes[name])  # a fresh memo
    rng = RngStream(29, 0).generator()
    layout = s.encode_block(rng.integers(0, s.outer.spec.num_messages, 64))
    counts = s.params.channel.copy_counts(layout, rng)
    s.decode_block(layout.run_bits, counts)
    windows = []
    for bits, z in zip(layout.run_bits, counts):
        received = apply_copy_counts("".join(map(str, bits)), z)
        windows += [threshold_decode(received[a:b], s.params.T)
                    for a, b in window_spans(received, s.params.buffer_threshold)]
    expected = list(dict.fromkeys(w for w in windows if w not in s.inner_cb.codewords))
    assert 0 < len(expected) < _MEMO_CAP
    assert list(s._memo) == expected


def window_runs(s, spec):
    """One window's first bit and run lengths: a codeword's runs given
    survivors on either side of T (one of them crossing it, if "crossed"),
    or free runs, perhaps none."""
    kind, symbol, start, lengths = spec
    if kind == "free":
        return start, lengths
    T = s.params.T
    orig = s.blocks[symbol % len(s.inner_cb), 1]
    ranges = [(1, T) if o == 1 else (T + 1, 2 * T + 3) for o in orig]
    picked = [lo + n % (hi - lo + 1) for (lo, hi), n in zip(ranges, lengths + [0] * len(orig))]
    if kind == "crossed" and lengths:  # move one run across the threshold
        i = lengths[0] % len(picked)
        picked[i] = T if picked[i] > T else T + 1
    return start, picked


WINDOW = st.tuples(st.sampled_from(["codeword", "crossed", "free"]), st.integers(0, 3),
                   st.integers(0, 1), st.lists(st.integers(1, 20), max_size=40))


@settings(max_examples=200, deadline=None)
@given(specs=st.lists(WINDOW, max_size=6))
@example(specs=[])
@example(specs=[("codeword", 0, 0, [1]), ("codeword", 0, 1, [1])])
@example(specs=[("free", 0, 1, [9] * 19), ("free", 0, 1, [1] * 26), ("codeword", 2, 1, [1]),
                ("free", 0, 0, [])])
def test_inner_symbols_match_scalar_decode(bdc_desk, specs):
    # windows of the codewords' run count that start with a 0, windows whose
    # thresholded string is longer than m, empty windows (symbol -1) and no
    # windows at all included
    s = replace(bdc_desk)  # a fresh memo
    windows = [window_runs(s, spec) for spec in specs]
    bits = [(start + k) % 2 for start, lengths in windows for k in range(len(lengths))]
    lengths = [n for _, window in windows for n in window]
    sizes = np.array([len(window) for _, window in windows], np.int64)
    last = np.cumsum(sizes)
    symbols = s.inner_symbols(np.array(bits, np.uint8), np.array(lengths, np.int64),
                              last - sizes, last)
    strings = [threshold_decode("".join(str((start + k) % 2) * n for k, n in enumerate(window)),
                                s.params.T) for start, window in windows]
    assert symbols.tolist() == [s.inner_cb.decode(w) if w else -1 for w in strings]
    # every window that thresholds to a codeword was resolved by its key
    assert set(s._memo) == set(strings) - set(s.inner_cb.codewords) - {""}


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
def test_merge_runs_matches_reduceat(runs):
    # chains of vanished runs, same-bit neighbours and owner boundaries
    bits = np.array([bit for bit, _, _ in runs], np.uint8)
    lengths = np.array([n for _, n, _ in runs], np.int64)
    owner = np.cumsum([new for _, _, new in runs], dtype=np.int64)
    given_lengths = lengths.copy()
    merged = merge_runs(bits, lengths, owner)
    for got, expected in zip(merged, reduceat_merge_runs(bits, lengths, owner)):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert np.array_equal(lengths, given_lengths)


def block_survivors(s, origs, rng):
    """Survivors of a block's runs (one row of original run lengths per
    trial, 0 for a buffer), drawn as the harness draws them: all buffers,
    then all 1-runs, then all 2-runs, each class in row order."""
    z = np.empty(origs.shape, np.int64)
    for orig, n in ((0, s.B), (1, s.N1), (2, s.N2)):
        z[origs == orig] = s.params.channel.survivors(n, int((origs == orig).sum()), rng)
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
    lcs = lcs_lanes(tuple(received), code._masks, code.spec.n)
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
    s = replace(bdc_desk)  # a fresh memo
    rnd = random.Random(3)
    windows = list(dict.fromkeys("".join(rnd.choices("01", k=rnd.randint(20, 40)))
                                 for _ in range(_MEMO_CAP + 300)))
    assert len(windows) > _MEMO_CAP
    for w in windows:
        assert s.inner_decode(w) == s.inner_cb.decode(w)
        assert len(s._memo) <= _MEMO_CAP
    assert len(s._memo) == _MEMO_CAP


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
    assert classify(s, layout, per_run(layout, counts)) == string_classify(s, layout, counts)


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
        assert classify(s, block, np.array(survivors)) == (xs, events)


def test_classify_of_no_transmissions(bdc_desk):
    for block in (lay_out(np.zeros((0, 1), np.int64), bdc_desk.run_table, edge_buffers=True),
                  bdc_desk.encode_block(np.zeros(0, np.int64))):
        assert classify(bdc_desk, block, np.zeros(block.lengths.shape, np.int64)) == (
            [], dict.fromkeys(EVENTS, 0))


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
        assert len(block) == 0 and block.buffers.size == 0
        counts = s.params.channel.copy_counts(block, RngStream(1, 0).generator())
        assert counts.shape == block.lengths.shape
        assert s.decode_block(block.run_bits, counts) == []


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
    then the survivors of the block's buffers, 1-runs and 2-runs."""
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
            buffers += len(layout.buffers)
    x_arr = np.array(xs, dtype=np.float64)
    probs = scheme.probs
    m = scheme.params.inner.m
    return {
        "mode": "single_codeword",
        "trials": trials,
        "master_seed": master_seed,
        "x_mean": float(x_arr.mean()),
        "x_var": float(x_arr.var(ddof=1)),
        "x_stderr": float(x_arr.std(ddof=1) / sqrt(trials)),
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
def test_decode_rejects_non_binary(bdc_desk, junk, tmp_path, capsys):
    with pytest.raises(ValueError, match="^received string must be binary$"):
        bdc_desk.decode(junk)
    bdc_desk.inner_cb.save(tmp_path / "cb.txt")
    bdc_desk.outer.save(tmp_path / "oc.txt")
    save_scheme(bdc_desk, tmp_path / "scheme.txt", "cb.txt", "oc.txt", 2024)
    assert main(["decode", "--config", str(tmp_path / "scheme.txt"), junk]) == 2
    assert capsys.readouterr().err == "error: received string must be binary\n"


@pytest.mark.parametrize("name", SCHEMES)
def test_degenerate_receptions_keep_their_answers(schemes, name):
    # no window at all, one all-zero buffer, or buffer-free windows
    s = schemes[name]
    buffer_free = s.encode(77).replace("0" * s.B, "")
    receptions = ["", "0", "1", "0" * 500, "0" * 5000, "1" * 500, "10" * 300,
                  s.inner_cb.codewords[3], buffer_free]
    assert [s.decode(r) for r in receptions] == [0] * len(receptions)
    assert s.decode_with_trace("") == (0, DecodeTrace([], [], []))
