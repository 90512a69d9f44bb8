"""Experiment runner and CLI: reproducibility, report structure, exit codes."""

import hashlib
import json
import re
import shutil
import time
import tracemalloc
from dataclasses import replace
from functools import cache
from math import exp

import numpy as np
import pytest

from delchan import harness as harness_module
from delchan import scheme as scheme_module
from delchan.analysis import presets, transition_probs, verify_preset
from delchan.channels import ChannelModel
from delchan.cli import main
from delchan.harness import (
    DESK_M_B,
    ExperimentConfig,
    analyze_csv,
    desk_params,
    desk_scheme,
    load_config,
    report_json,
    run_end_to_end,
    run_experiment,
    run_single_codeword,
    run_transition,
    sweep_csv,
)
from delchan.scheme import lay_out, load_scheme, save_scheme


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(mode="nonsense", trials=10, master_seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(mode="end_to_end", trials=0, master_seed=0)


def test_load_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# comment\nmode=single_codeword\ntrials=50\nseed=9\ndesk=prc\n")
    cfg = load_config(path)
    assert cfg.mode == "single_codeword"
    assert cfg.trials == 50
    assert cfg.master_seed == 9
    assert cfg.desk == "prc"


def test_load_config_rejects_unknown_keys_and_bad_numbers(tmp_path):
    # a mistyped key must not fall back to a default; M_B is checked at load, not at run
    config = tmp_path / "exp.cfg"
    for text, message in [("mode=transition\ntrails=50\n", "unknown key 'trails'"),
                          ("mode=transition\nM_B=inf\n", "M_B=inf must be positive and finite"),
                          ("mode=transition\nM_B=nan\n", "M_B=nan must be positive and finite"),
                          ("mode=transition\nM_B=-1\n", "M_B=-1.0 must be positive and finite")]:
        config.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{config}: {message}')}$"):
            load_config(config)


def test_single_codeword_report(bdc_desk):
    rep = run_single_codeword(bdc_desk, 200, 3)
    assert rep["buffers_transmitted"] == 400
    assert rep["x_mean"] >= 0.0
    assert set(rep["error_events"]) == {
        "deleted_buffer", "spurious_buffer", "wrong_inner_decode",
    }
    assert rep["analytic"]["xi_m"] < rep["analytic"]["gamma_m_plus_p10"]


def test_end_to_end_report(bdc_desk):
    rep = run_end_to_end(bdc_desk, 30, 4)
    assert rep["successes"] + 0 <= 30
    assert rep["success_rate"] == rep["successes"] / 30


def test_transition_report(bdc_desk):
    rep = run_transition(bdc_desk, 5000, 5)
    for entry in rep["transitions"].values():
        assert 0.0 <= entry["empirical"] <= 1.0
        assert 0.0 <= entry["exact"] <= 1.0


def test_report_json_deterministic():
    cfg = ExperimentConfig(mode="end_to_end", trials=15, master_seed=42)
    assert report_json(run_experiment(cfg)) == report_json(run_experiment(cfg))


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# codewords of 59 runs, longer than a 57-run window key: their windows are keyed
# as strings; the single-codeword report counts 36 wrong inner decodes
LONG = "channel=prc\nparam=0.5\nm=61\nr1=57\nr2=2\nd=1\n"


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """`delchan construct --config` of a config text, run once per text in
    this module; returns the output directory."""

    @cache
    def build(text):
        directory = tmp_path_factory.mktemp("built")
        (directory / "scheme.cfg").write_text(text)
        assert main(["construct", "--config", str(directory / "scheme.cfg"),
                     "--out", str(directory / "out")]) == 0
        return directory / "out"

    return build


# sha256 of `delchan simulate`'s report at seed 7 on a desk scheme or on LONG's. M_B = 0.5
# loses a buffer with the exact probability 0.00143, so its 3,000 trials (6,000 buffers) see
# no loss with probability about 2e-4; 300 trials miss it 42% of the time.
PINNED_REPORTS = [
    ("end_to_end", "bdc", 2.5, 12,
     "8ce50b9487eb480c28633fbc775d2fc0602d5d7d990a0001d8db2c337ad73a03"),
    ("end_to_end", "prc", 2.5, 12,
     "3f35a271dc30e15bc85bcd5a902c77b6047a02d396601f90a120f09d2eb3ca3c"),
    ("end_to_end", "bdc", 2.5, 600,  # three blocks: 256 + 256 + 88 trials
     "b8d64190a8b0626135ccef5aada1d1646fadc9c7ac17ad583bdd5fe68cc03b58"),
    ("end_to_end", "prc", 2.5, 600,
     "f6d0bce8f76d64a85ec7863721baf0c206cb2fe2c5a25450f01860f8a325711e"),
    ("single_codeword", "bdc", 2.5, 300,
     "f51380d85d85d1b3a9aa6af9598c8c6c76aec8d32e3e97fc9730f6fbe53d6d14"),
    ("single_codeword", "prc", 2.5, 300,
     "9d062289f247d720ec874cfdb6f31bc7b9e2563a04dcb38eab66c0737b958318"),
    ("single_codeword", "prc", 2.5, 20000,  # 79 blocks; about 2,000 inner-memo misses
     "1366fe0f751cf17e187ae2d5b85b0c874642e88c03bec07fe583e76a66ee86ca"),
    ("single_codeword", "bdc", 0.5, 3000,
     "211ff2411cb7cd420259811ca2634701a8d34ff121d4428a3356df3986408c26"),
    ("transition", "bdc", 2.5, 2000,
     "e41f7152986f63fd0f50a1c82f79bff778d0d440225e5786cb47f30202bd7531"),
    ("transition", "prc", 2.5, 2000,
     "b580057efc0d58069730c7ce910f5e7eda89253c4aa870a50602879a66ce939e"),
    ("transition", "bdc", 2.5, 150000,  # three 65,536-run chunks per run length
     "b8545a593427257a931bb552f09d96089ed6ff45542bf937d57f73e69ca2e56d"),
    ("transition", "prc", 2.5, 150000,
     "f242281e0d76badcce755fc0addb107d9815d5abbf5552f5cc05a7e7fc867495"),
    ("single_codeword", "long", 2.5, 300,  # M_B is the long descriptor's own
     "bd5922000c091d723b63855cec14bf623a9136461587c8ced86812dee52f8734"),
    ("end_to_end", "long", 2.5, 300,
     "39ca87bcced7423ab7e0acb1f5863cf7db22f21fc6decb4115e89cdf70429d6d"),
]


@pytest.mark.parametrize("mode,desk,M_B,trials,digest", PINNED_REPORTS)
def test_reports_are_pinned(tmp_path, built, mode, desk, M_B, trials, digest):
    source = f"scheme={built(LONG) / 'scheme.txt'}" if desk == "long" else f"desk={desk}"
    buffer = "" if M_B == DESK_M_B else f"M_B={M_B}\n"
    config, report = tmp_path / "exp.cfg", tmp_path / "report.json"
    config.write_text(f"mode={mode}\n{source}\n{buffer}trials={trials}\nseed=7\n")
    assert main(["simulate", "--config", str(config), "--out", str(report)]) == 0
    if M_B == 0.5:
        assert json.loads(report.read_text())["error_events"]["deleted_buffer"] > 0
    assert _sha256(report) == digest


def _assert_transition_pins() -> None:
    for mode, desk, M_B, trials, digest in PINNED_REPORTS:
        if mode == "transition" and trials == 2000:  # 150,000 trials are 42,858 chunks of 7 runs
            config = ExperimentConfig(mode=mode, trials=trials, master_seed=7, desk=desk, M_B=M_B)
            text = report_json(run_experiment(config))
            assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_transition_draws_survivors_in_bounded_chunks(monkeypatch):
    # chunks of 7 runs draw the same words in the same order as one draw of
    # every trial's runs, so both pinned transition reports keep their digests
    sizes = []
    count_at_most = ChannelModel.count_at_most

    def counting(self, n, ts, size, rng):
        sizes.append(size)
        return count_at_most(self, n, ts, size, rng)

    monkeypatch.setattr(harness_module, "_TRANSITION_CHUNK", 7)
    monkeypatch.setattr(ChannelModel, "count_at_most", counting)
    _assert_transition_pins()
    assert max(sizes) == 7 and sum(sizes) == 2 * 2 * 2000


def test_transition_counts_without_survivor_counts(monkeypatch):
    # the runs' words are compared with the thresholds; no survivor count is built
    def refuse(*args):
        raise AssertionError("run_transition built survivor counts")

    monkeypatch.setattr(ChannelModel, "survivors", refuse)
    _assert_transition_pins()


def test_scheme_exact_probs_channels(bdc_desk, prc_desk):
    b = bdc_desk.probs
    p = prc_desk.probs
    assert b.p10 == 0.3**bdc_desk.N1
    assert p.p10 == exp(-0.5 * prc_desk.N1)


def test_scheme_probs_computed_once(bdc_desk, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return transition_probs(*args)

    monkeypatch.setattr(scheme_module, "transition_probs", counting)
    fresh = replace(bdc_desk)  # a new instance holds no cached probabilities
    first = run_transition(fresh, 100, 1)
    second = run_transition(fresh, 100, 2)
    assert len(calls) == 1
    assert first["transitions"]["p21"]["exact"] == second["transitions"]["p21"]["exact"]


def test_single_codeword_memory_does_not_grow_with_trials(prc_desk):
    # X is kept as counts per value, not one entry a trial: on a memo that
    # already holds every window of these trials, ten times the trials peak
    # within 1.5 times the memory
    scheme = replace(prc_desk)  # a memo of its own
    run_single_codeword(scheme, 25_600, 5)
    peaks = []
    for trials in (2_560, 25_600):
        tracemalloc.start()
        run_single_codeword(scheme, trials, 5)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_transition_memory_does_not_grow_with_trials(bdc_desk):
    # the counts are two running totals, not one entry a chunk of runs: 32
    # times the trials peak within 2 KiB
    run_transition(bdc_desk, 1 << 17, 5)  # builds the draw tables and probabilities first
    peaks = []
    for trials in (1 << 17, 1 << 22):
        tracemalloc.start()
        run_transition(bdc_desk, trials, 5)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2048, peaks


def test_single_codeword_lays_out_each_block_once(prc_desk, monkeypatch):
    # run_single_codeword makes one gather per block of 256 trials, and row i
    # of a block is symbol i's codeword alone between two buffers
    blocks = []

    def recording(symbols, *args, **kwargs):
        blocks.append(lay_out(symbols, *args, **kwargs))
        return blocks[-1]

    monkeypatch.setattr(scheme_module, "lay_out", recording)
    monkeypatch.setattr(harness_module, "lay_out", recording)
    assert run_single_codeword(prc_desk, 300, 1) == run_single_codeword(prc_desk, 300, 1)
    assert [np.shape(block.symbols) for block in blocks] == [(256, 1), (44, 1)] * 2
    for block in blocks:
        for s, lengths, orig in zip(np.ravel(block.symbols).tolist(), block.lengths, block.orig):
            alone = lay_out((s,), prc_desk.run_table, edge_buffers=True)
            assert np.array_equal(lengths, alone.lengths) and np.array_equal(orig, alone.orig)


def test_analyze_csv_structure():
    csv, failures = analyze_csv()
    lines = csv.strip().splitlines()
    assert len(lines) == 16  # header + 15 parameter sets
    assert lines[0].startswith("preset,p_or_lambda,P12,")
    assert failures == 0
    col = lines[0].split(",").index("gamma_lt_delta")
    assert all(line.split(",")[col] == "1" for line in lines[1:])


def test_analyze_csv_prints_the_verified_rel_err():
    # verify_preset computes each rate error once; the table prints that field
    rows = [line.split(",") for line in analyze_csv()[0].strip().splitlines()]
    col = rows[0].index("rel_err")
    for preset, row in zip(presets(), rows[1:], strict=True):
        v = verify_preset(preset)
        rel = v.rel_err
        assert (rel is None) == (preset.expected_rate is None), preset.name
        assert row[col] == ("" if rel is None else f"{rel:.3e}"), preset.name
        if rel is not None:  # the error is the rate's, relative to the printed rate
            assert rel == abs(v.rate - preset.expected_rate) / preset.expected_rate, preset.name


def test_sweep_csv_structure():
    lines = sweep_csv().strip().splitlines()
    table_rows = [l for l in lines if l.startswith("table,")]
    grid_rows = [l for l in lines if l.startswith("grid,")]
    assert len(table_rows) == 11
    assert len(grid_rows) == 99
    assert len(lines) == 1 + 11 + 99


def _published_p99():
    """The presets with the p=0.99 row at its published delta_in = 0.00985,
    which lies below that row's gamma."""
    return [
        replace(p, delta_in=0.00985) if p.name == "bdc_p0.99" else p
        for p in presets()
    ]


def test_cli_analyze_and_sweep(tmp_path, capsys, monkeypatch):
    out = tmp_path / "analysis.csv"
    assert main(["analyze", "--out", str(out)]) == 0
    assert _sha256(out) == "469fa884e1ae815deb2f4c9583aa0e8b6e95bd52255b882236bfb92bfe5da409"
    monkeypatch.setattr("delchan.harness.presets", _published_p99)
    assert main(["analyze", "--out", str(out)]) == 1  # verification failure
    assert "1 parameter set(s) failed" in capsys.readouterr().err
    monkeypatch.undo()
    out2 = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out2)]) == 0
    assert _sha256(out2) == "54cf2a677f9b71366c04a95694312ee05c3cf8921b4940c2c965206e2519d386"


def _saved_scheme(directory, scheme):
    scheme.inner_cb.save(directory / "codebook.txt")
    scheme.outer.save(directory / "outercode.txt")
    save_scheme(scheme, directory / "scheme.txt", "codebook.txt", "outercode.txt", 2024)
    return directory / "scheme.txt"


def test_cli_construct_encode_decode(tmp_path, capsys, bdc_desk, prc_desk):
    # a config overrides the defaults key by key
    config = tmp_path / "prc.cfg"
    config.write_text("channel=prc\nparam=0.5\n")
    assert main(["construct", "--config", str(config), "--out", str(tmp_path / "prc")]) == 0
    assert load_scheme(tmp_path / "prc" / "scheme.txt") == prc_desk
    out_dir = tmp_path / "sch"
    assert main(["construct", "--out", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert "|C| = 77" in printed
    # the defaults are the desk BDC scheme
    assert load_scheme(out_dir / "scheme.txt") == bdc_desk
    scheme_path = str(out_dir / "scheme.txt")
    bits_path = tmp_path / "msg.bits"
    assert main(["encode", "--config", scheme_path, "42", "--out", str(bits_path)]) == 0
    decoded = tmp_path / "msg.out"
    assert main([
        "decode", "--config", scheme_path, bits_path.read_text().strip(),
        "--out", str(decoded),
    ]) == 0
    assert decoded.read_text().strip() == "42"


# sha256 of code files `construct` writes from a config text, and a message
# sent through `encode | decode` on the built scheme
@pytest.mark.parametrize("text, digests, message", [
    ("", {"codebook.txt": "d5dc217beb8fc54f0c0c721283032e7469bba3669c2e1756846c5cd94543c03d",
          "outercode.txt": "ec24694990146500c331ebd369a5492950c1f797bda6bd79b4b24c0db30c56bf"},
     None),
    # S(27, 15, 6), 54,264 candidates and 117 codewords
    ("m=27\nr1=15\nr2=6\n",
     {"codebook.txt": "95526168bd8a5538e333a374f3cc71f021f272a959bd4a6375e173d3c8fcc093"}, None),
    # S(29, 17, 6): 174 codewords
    ("m=29\nr1=17\nr2=6\n",
     {"codebook.txt": "8dd74cc883a63fcf9535ee10a8a52035e4001c1221ca91db649b3376d0ce31bd"}, None),
    # S(67, 63, 2) at d = 1: 65 runs, two-word lanes, 22 codewords
    ("m=67\nr1=63\nr2=2\nd=1\n",
     {"codebook.txt": "89b7da96ce9d5c6ed738b5bb47fd7b214d071c50a6c004624ba610d4733b5aff"}, None),
    # S(27, 15, 6) with a q = 100 outer alphabet: symbols past 79 reach the masks
    ("m=27\nr1=15\nr2=6\nq=100\nk=1\n",
     {"outercode.txt": "1d146dcbb8b54029703fe3de0ac05ee0bc38862f0c66b08e830792ef6294cfbe"}, 42),
    # an outer code whose greedy pass needs three chunks of q**k candidates
    ("q=2\nn=16\nk=5\ndout=0.15\n",
     {"outercode.txt": "75c072da052c97b848c2ed2f2eca1b10551b15a17c27287199acdea32e2e2d8e"}, 21),
    # a two-word outer code (n = 80): greedy's carries ripple across words
    ("q=2\nn=80\nk=8\ndout=0.1\n",
     {"outercode.txt": "7b7ceccbfe8170189f6b6df4193399e4e73f9f641940f122b2cbd901cc7630d3"}, 200),
    (LONG, {"codebook.txt": "cdbb2443db17558cf17cfe22cccd9f93bb30fb4285279deeab22075757b98309"},
     42),
    # 5,929 codewords behind the desk inner code, one chunk kept whole: 1,246 passes, none
    # of which drops a row
    ("q=77\nn=8\nk=2\n",
     {"outercode.txt": "512c790df84eba4023459c773325c006ad020e639cb5d15f5364466d77541828"}, 5000),
], ids=["desk", "m27", "m29", "m67", "q100", "multi", "two_word", "long", "q77"])
def test_construct_output_is_pinned(capsys, built, text, digests, message):
    directory = built(text)
    assert {name: _sha256(directory / name) for name in digests} == digests
    if message is not None:
        descriptor = str(directory / "scheme.txt")
        capsys.readouterr()  # construct's summary, when this test built the scheme
        assert main(["encode", "--config", descriptor, str(message)]) == 0
        assert main(["decode", "--config", descriptor, capsys.readouterr().out.strip()]) == 0
        assert capsys.readouterr().out == f"{message}\n"


@pytest.fixture(scope="module")
def saved_desk(tmp_path_factory, bdc_desk):
    """The desk BDC scheme's scheme.txt, codebook.txt and outercode.txt, written once."""
    directory = tmp_path_factory.mktemp("saved")
    _saved_scheme(directory, bdc_desk)
    return directory


def _set(key, value):
    """An edit of a descriptor: the line of key gets value."""
    return lambda text: re.sub(f"^{key}=.*$", f"{key}={value}", text, flags=re.M)


def _sub(old, new):
    """An edit of a saved file: its first old becomes new."""
    return lambda text: text.replace(old, new, 1)


SIMULATE = ("simulate", "--config", "exp.cfg")
CONSTRUCT = ("construct", "--config", "exp.cfg")
ENCODE = ("encode", "--config", "scheme.txt", "1")
DECODE = ("decode", "--config", "scheme.txt", "1")
_ROW_TOO_LONG = "N2 and a row's bits must stay below 2**31"
_CODEWORD_0 = "1001001001001001001010101"  # the first of codebook.txt's 4 codewords
_HUGE = 10**400  # past a float's range
_PASS_CAP = " word steps in a greedy pass, over 4.29e+09"  # the tail of strings.refuse_long_pass


def _sampled_codebook(count):
    """A codebook.txt of count distinct S(101, 53, 24) strings at d = 1, sorted, their
    2-runs drawn at random: a code whose validation pass grows as count squared."""
    rng, words = np.random.default_rng(0), set()
    while len(words) < count:
        two = np.zeros(77, bool)
        two[rng.choice(77, 24, replace=False)] = True
        words.add("".join("10"[i % 2] * (1 + t) for i, t in enumerate(two.tolist())))
    return f"innercode v1 m=101 r1=53 r2=24 d=1 count={count}\n" + "\n".join(sorted(words))


# Every input the CLI refuses: (id, command, file, edit, exit code, message). A text
# `edit` is written to `file`; a function rewrites the text of one of the saved desk
# scheme's files; a row without a file writes none. Stderr is "error: " and `message`,
# which names the file at fault, or no file when the fault is in the command line. The
# command's own --out, or else "out", must not be written.
REFUSALS = [
    # config keys and values, named with the key
    ("simulate-unknown-key", SIMULATE, "exp.cfg", "mode=transition\ntrails=50\n", 2,
     "exp.cfg: unknown key 'trails'"),
    ("simulate-trials-word", SIMULATE, "exp.cfg", "mode=transition\ntrials=abc\n", 2,
     "exp.cfg: key 'trials': invalid literal for int() with base 10: 'abc'"),
    ("simulate-M_B-word", SIMULATE, "exp.cfg", "seed=7\nM_B=wide\n", 2,
     "exp.cfg: key 'M_B': could not convert string to float: 'wide'"),
    ("construct-unknown-key", CONSTRUCT, "exp.cfg", "M_b=0.5\nseeed=3\n", 2,
     "exp.cfg: unknown key 'M_b'"),
    ("construct-seed-word", CONSTRUCT, "exp.cfg", "seed=x\n", 2,
     "exp.cfg: key 'seed': invalid literal for int() with base 10: 'x'"),
    ("simulate-seed-negative", SIMULATE, "exp.cfg", "seed=-1\n", 2,
     "exp.cfg: key 'seed': -1 is negative"),
    ("construct-seed-negative", CONSTRUCT, "exp.cfg", "seed=-1\n", 2,
     "exp.cfg: key 'seed': -1 is negative"),
    ("simulate-mode", SIMULATE, "exp.cfg", "mode=foo\n", 2, "exp.cfg: unknown mode 'foo'"),
    ("simulate-trials-0", SIMULATE, "exp.cfg", "trials=0\n", 2,
     "exp.cfg: trials must be at least 1"),
    # a run of more trials than MAX_TRIALS (about a day) would not finish
    ("simulate-trials-huge", SIMULATE, "exp.cfg", f"mode=transition\ntrials={_HUGE}\n", 2,
     "exp.cfg: trials must be at most 1000000000000"),
    ("simulate-trials-huge-flag", (*SIMULATE, "--trials", str(_HUGE)), "exp.cfg",
     "mode=transition\n", 2, "trials must be at most 1000000000000"),
    ("simulate-desk", SIMULATE, "exp.cfg", "desk=xyz\n", 2,
     "exp.cfg: desk must be bdc or prc, got 'xyz'"),
    # a mistyped desk must not fall back to the PRC scheme
    ("simulate-desk-bcd", SIMULATE, "exp.cfg", "mode=single_codeword\ntrials=5\ndesk=bcd\n", 2,
     "exp.cfg: desk must be bdc or prc, got 'bcd'"),
    ("simulate-scheme-desk", SIMULATE, "exp.cfg",
     "mode=end_to_end\ntrials=2\nscheme=scheme.txt\ndesk=prc\n", 2,
     "exp.cfg: desk is ignored when scheme is given"),
    ("simulate-scheme-M_B", SIMULATE, "exp.cfg",
     "mode=end_to_end\ntrials=2\nscheme=scheme.txt\nM_B=0.5\n", 2,
     "exp.cfg: M_B is ignored when scheme is given"),
    ("single-one-trial", SIMULATE, "exp.cfg", "mode=single_codeword\ntrials=1\n", 2,
     "exp.cfg: single_codeword needs at least 2 trials for a variance"),
    ("single-one-trial-flag", (*SIMULATE, "--trials", "1"), "exp.cfg", "mode=single_codeword\n",
     2, "single_codeword needs at least 2 trials for a variance"),
    # parameters that are not finite, or would make a buffer, run or row too long
    ("construct-M2-inf", CONSTRUCT, "exp.cfg", "M2=inf\n", 2,
     "exp.cfg: M2=inf must be positive and finite"),
    ("construct-M_B-inf", CONSTRUCT, "exp.cfg", "M_B=inf\n", 2,
     "exp.cfg: M_B=inf must be positive and finite"),
    ("construct-M1-nan", CONSTRUCT, "exp.cfg", "M1=nan\n", 2,
     "exp.cfg: M1=nan must be positive and finite"),
    ("construct-M1-negative", CONSTRUCT, "exp.cfg", "M1=-1\n", 2,
     "exp.cfg: M1=-1.0 must be positive and finite"),
    ("construct-prc-nan", CONSTRUCT, "exp.cfg", "channel=prc\nparam=nan\n", 2,
     "exp.cfg: repeat mean nan must be positive and finite"),
    ("construct-prc-inf", CONSTRUCT, "exp.cfg", "channel=prc\nparam=inf\n", 2,
     "exp.cfg: repeat mean inf must be positive and finite"),
    ("construct-bdc-nan", CONSTRUCT, "exp.cfg", "param=nan\n", 2,
     "exp.cfg: deletion probability nan outside [0, 1)"),
    ("simulate-M_B-inf", SIMULATE, "exp.cfg", "mode=transition\nM_B=inf\n", 2,
     "exp.cfg: M_B=inf must be positive and finite"),
    ("simulate-M_B-nan", SIMULATE, "exp.cfg", "mode=transition\nM_B=nan\n", 2,
     "exp.cfg: M_B=nan must be positive and finite"),
    ("simulate-M_B-negative", SIMULATE, "exp.cfg", "mode=transition\nM_B=-1\n", 2,
     "exp.cfg: M_B=-1.0 must be positive and finite"),
    ("simulate-M_B-tiny", SIMULATE, "exp.cfg", "M_B=1e-300\n", 2,
     "exp.cfg: buffer length must be at least 1"),
    ("simulate-M_B-huge", SIMULATE, "exp.cfg", "M_B=1e300\n", 2,  # a buffer of ~300 digits
     f"exp.cfg: {_ROW_TOO_LONG}"),
    ("simulate-M_B-overflow", SIMULATE, "exp.cfg", "M_B=1e308\n", 2,
     "exp.cfg: run length M / mean_copies = inf / 0.7 is not finite"),
    ("construct-p-near-1", CONSTRUCT, "exp.cfg", "param=0.9999999999\n", 2,  # N2 = 1.35e11
     f"exp.cfg: {_ROW_TOO_LONG}"),
    ("construct-M2-huge", CONSTRUCT, "exp.cfg", "M2=1e308\n", 2, f"exp.cfg: {_ROW_TOO_LONG}"),
    ("construct-prc-denormal", CONSTRUCT, "exp.cfg", "channel=prc\nparam=1e-320\n", 2,
     "exp.cfg: run length M / mean_copies = 4.0 / 1e-320 is not finite"),
    # outer codes past the work cap or int64 messages, refused before any inner code
    ("construct-k-cap", CONSTRUCT, "exp.cfg", "k=20\n", 2,
     "exp.cfg: 1099511627776 codewords of 32 symbols take about 3.87e+25" + _PASS_CAP),
    ("construct-n-cap", CONSTRUCT, "exp.cfg", "n=1000000\n", 2,
     "exp.cfg: 256 codewords of 1000000 symbols take about 1.02e+15" + _PASS_CAP),
    ("construct-n64-k9-cap", CONSTRUCT, "exp.cfg", "q=4\nn=64\nk=9\n", 2,
     "exp.cfg: 262144 codewords of 64 symbols take about 4.4e+12" + _PASS_CAP),
    ("construct-m29-k-cap", CONSTRUCT, "exp.cfg", "m=29\nr1=17\nr2=6\nk=20\n", 2,
     "exp.cfg: 1099511627776 codewords of 32 symbols take about 3.87e+25" + _PASS_CAP),
    # q**k is never computed for such a k
    ("construct-k-int64", CONSTRUCT, "exp.cfg", "k=100000\n", 2,
     "exp.cfg: q**k messages must stay below 2**63, got q=4, k=100000"),
    ("construct-k-huge", CONSTRUCT, "exp.cfg", f"k={10**18}\n", 2,
     f"exp.cfg: q**k messages must stay below 2**63, got q=4, k={10**18}"),
    # their counts, comb(1500001, 500000) and comb(4501, 1500), have 414,649 and 1,243 digits
    ("construct-profile-huge", CONSTRUCT, "exp.cfg", "m=2000001\nr1=1000001\nr2=500000\n", 2,
     "exp.cfg: S(2000001, 1000001, 500000) has more than 10000000 candidates"),
    ("construct-profile-large", CONSTRUCT, "exp.cfg", "m=6001\nr1=3001\nr2=1500\n", 2,
     "exp.cfg: S(6001, 3001, 1500) has more than 10000000 candidates"),
    # 100,001 candidates, under that cap, but a first greedy pass of 100,002 columns over
    # 100,001 lanes of 1,563 words each (rows of 100,002 bytes: 10 GB of candidates)
    ("construct-profile-wide", CONSTRUCT, "exp.cfg", "m=100002\nr1=100000\nr2=1\n", 2,
     "exp.cfg: S(100002, 100000, 1) takes 15630468903126 word steps in its first greedy pass,"
     " over 640000000"),
    # 25,297 candidates in 0.64 GB, but their first pass takes tens of minutes
    ("construct-profile-pass", CONSTRUCT, "exp.cfg", "m=25298\nr1=25296\nr2=1\n", 2,
     "exp.cfg: S(25298, 25296, 1) takes 253425548376 word steps in its first greedy pass,"
     " over 640000000"),
    # at d = 0 no pass runs, but the same rows take 10 GB
    ("construct-profile-wide-d0", CONSTRUCT, "exp.cfg", "m=100002\nr1=100000\nr2=1\nd=0\n", 2,
     "exp.cfg: S(100002, 100000, 1) takes 10000300002 bytes of rows, over 640000000"),
    # a value past a float's range in each file a command loads: exit 2 naming that file,
    # also where a float conversion overflows (the first row once gave a traceback); past
    # that range the pass bound's estimate is the power of 2 at or below it
    ("construct-q-huge", CONSTRUCT, "exp.cfg", f"q={_HUGE}\nk=0\n", 2,
     "exp.cfg: 1 codewords of 32 symbols take about 2**1333" + _PASS_CAP),
    ("simulate-M_B-digits", SIMULATE, "exp.cfg", f"M_B={_HUGE}\n", 2,
     "exp.cfg: M_B=inf must be positive and finite"),
    ("encode-q-huge", ENCODE, "scheme.txt", lambda text: _set("k", 0)(_set("q", _HUGE)(text)), 2,
     f"scheme.txt: cannot truncate to {_HUGE} > |C| = 4"),
    # the pass bound, read from the header before the line count, past a float's range
    ("codebook-count-huge", ENCODE, "codebook.txt", _sub(" count=4", f" count={_HUGE}"), 2,
     f"codebook.txt: {_HUGE} codewords of 25 symbols take about 2**2662" + _PASS_CAP),
    ("outercode-q-huge", ENCODE, "outercode.txt", _sub(" q=4 n=32 k=4 ", f" q={_HUGE} n=32 k=0 "),
     2, "outercode.txt: 1 codewords of 32 symbols take about 2**1333" + _PASS_CAP),
    # a verification failure: the desk profile has 77 codewords
    ("construct-q100", CONSTRUCT, "exp.cfg", "q=100\nk=1\n", 1,
     "exp.cfg: inner codebook has 77 codewords, need 100"),
    # descriptors: the format, and parameters checked as a config's are
    ("encode-no-equals", ENCODE, "scheme.txt", lambda text: text + "M1 4.0\n", 2,
     "scheme.txt: expected key=value, got 'M1 4.0'"),
    ("encode-missing-key", ENCODE, "scheme.txt", _sub("M1=4.0\n", ""), 2,
     "scheme.txt: missing key 'M1'"),
    # seed, read with the code files' headers, once named the file twice
    ("encode-missing-seed", ENCODE, "scheme.txt", _sub("seed=2024\n", ""), 2,
     "scheme.txt: missing key 'seed'"),
    ("encode-M1-word", ENCODE, "scheme.txt", _set("M1", "abc"), 2,
     "scheme.txt: key 'M1': could not convert string to float: 'abc'"),
    ("encode-unknown-key", ENCODE, "scheme.txt", lambda text: text + "M_b=0.5\n", 2,
     "scheme.txt: unknown key 'M_b'"),
    ("encode-M2-inf", ENCODE, "scheme.txt", _set("M2", "inf"), 2,
     "scheme.txt: M2=inf must be positive and finite"),
    ("encode-M_B-inf", ENCODE, "scheme.txt", _set("M_B", "inf"), 2,
     "scheme.txt: M_B=inf must be positive and finite"),
    ("decode-M_B-tiny", DECODE, "scheme.txt", _set("M_B", "1e-300"), 2,
     "scheme.txt: buffer length must be at least 1"),
    ("decode-seed", DECODE, "scheme.txt", _set("seed", 5), 2,
     "scheme.txt: seed=5 but the outer code was built with seed=2024"),
    ("encode-inner-mismatch", ENCODE, "scheme.txt", _set("d", 5), 2,
     "scheme.txt: inner codebook does not match the declared parameters"),
    ("encode-outer-mismatch", ENCODE, "scheme.txt", _set("dout", 0.25), 2,
     "scheme.txt: outer code does not match the declared parameters"),
    ("decode-missing", ("decode", "--config", "missing.txt", "1"), None, None, 2,
     "missing.txt: No such file or directory"),
    ("decode-missing-bits", ("decode", "--config", "missing.txt", "abc"), None, None, 2,
     "missing.txt: No such file or directory"),
    # a report with nowhere to go, refused before a run of seconds
    ("simulate-out-nodir", (*SIMULATE, "--out", "nodir/r.json"), "exp.cfg",
     "desk=prc\ntrials=30000\n", 2, "nodir/r.json: No such file or directory"),
    # inner code files: header, line count, codewords outside S, validation
    ("codebook-empty", ENCODE, "codebook.txt", "", 2,
     "codebook.txt: header must start with 'innercode v1', got ''"),
    # a file of the other kind, or of another version, is refused by its header's tag
    ("codebook-outer-tag", ENCODE, "codebook.txt", _sub("innercode v1", "outercode v1"), 2,
     "codebook.txt: header must start with 'innercode v1', got 'outercode v1'"),
    ("codebook-v2", ENCODE, "codebook.txt", _sub("innercode v1", "innercode v2"), 2,
     "codebook.txt: header must start with 'innercode v1', got 'innercode v2'"),
    ("codebook-no-d", ENCODE, "codebook.txt", _sub(" d=2", ""), 2,
     "codebook.txt: missing key 'd'"),
    ("codebook-no-equals", ENCODE, "codebook.txt", _sub("d=2", "d2"), 2,
     "codebook.txt: expected key=value, got 'd2'"),
    ("codebook-d-word", ENCODE, "codebook.txt", _sub("d=2", "d=x"), 2,
     "codebook.txt: key 'd': invalid literal for int() with base 10: 'x'"),
    ("codebook-short", ENCODE, "codebook.txt", lambda text: "\n".join(text.splitlines()[:3]), 2,
     "codebook.txt: header says count=4, found 2 lines"),
    ("codebook-x", ENCODE, "codebook.txt", _sub(_CODEWORD_0, "x" + _CODEWORD_0[1:]), 2,
     f"codebook.txt: 'x{_CODEWORD_0[1:]}' is not in S"),
    # a 2 leaves the runs short and the ends 1, but it is not a bit
    ("codebook-non-binary", ENCODE, "codebook.txt",
     _sub(_CODEWORD_0, _CODEWORD_0[:-3] + "2" + _CODEWORD_0[-2:]), 2,
     f"codebook.txt: '{_CODEWORD_0[:-3]}2{_CODEWORD_0[-2:]}' is not in S"),
    ("codebook-m", ENCODE, "codebook.txt", _sub("m=25", "m=26"), 2,
     "codebook.txt: m=26 != r1 + 2*r2 = 25"),
    # its pass would take over 10 s (3,000 such codewords take 4 s), so it is refused first,
    # from the header, before any codeword line is read: the header alone is refused the same
    ("codebook-pass-cap", ENCODE, "codebook.txt", lambda text: _sampled_codebook(6000), 2,
     "codebook.txt: 6000 codewords of 101 symbols take about 7.27e+09" + _PASS_CAP),
    ("codebook-header-pass-cap", ENCODE, "codebook.txt",
     "innercode v1 m=101 r1=53 r2=24 d=1 count=6000\n", 2,
     "codebook.txt: 6000 codewords of 101 symbols take about 7.27e+09" + _PASS_CAP),
    # outer code files: header, line count, symbols, validation, work cap
    ("outercode-empty", ENCODE, "outercode.txt", "", 2,
     "outercode.txt: header must start with 'outercode v1', got ''"),
    ("outercode-inner-tag", ENCODE, "outercode.txt", _sub("outercode v1", "innercode v1"), 2,
     "outercode.txt: header must start with 'outercode v1', got 'innercode v1'"),
    ("outercode-v2", ENCODE, "outercode.txt", _sub("outercode v1", "outercode v2"), 2,
     "outercode.txt: header must start with 'outercode v1', got 'outercode v2'"),
    ("outercode-dout_den-0", ENCODE, "outercode.txt", _sub("dout_den=8", "dout_den=0"), 2,
     "outercode.txt: dout_den must be nonzero"),
    ("outercode-no-seed", ENCODE, "outercode.txt", _sub(" seed=2024", ""), 2,
     "outercode.txt: missing key 'seed'"),
    ("outercode-short", ENCODE, "outercode.txt", lambda text: "\n".join(text.splitlines()[:5]),
     2, "outercode.txt: header says q**k=256, found 4 lines"),
    ("outercode-long", ENCODE, "outercode.txt", lambda text: text + text.splitlines()[1], 2,
     "outercode.txt: header says q**k=256, found 257 lines"),
    ("outercode-symbol-word", ENCODE, "outercode.txt", _sub("\n0 ", "\nx "), 2,
     "outercode.txt: invalid literal for int() with base 10: 'x'"),
    ("outercode-close", ENCODE, "outercode.txt",
     lambda text: text.replace(text.splitlines()[2], text.splitlines()[1], 1), 2,
     "outercode.txt: codewords 0 and 1 too close"),
    ("outercode-q-1", ENCODE, "outercode.txt", _sub(" q=4 ", " q=1 "), 2,
     "outercode.txt: alphabet size q must be at least 2"),
    ("outercode-dout-9", ENCODE, "outercode.txt", _sub("dout_num=1 ", "dout_num=9 "), 2,
     "outercode.txt: delta_out must lie in (0, 1)"),
    ("outercode-dout-huge", ENCODE, "outercode.txt", _sub("dout_num=1 ", f"dout_num={10**400} "),
     2, "outercode.txt: integer division result too large for a float"),
    ("outercode-k-int64", ENCODE, "outercode.txt", _sub(" k=4 ", " k=100000 "), 2,
     "outercode.txt: q**k messages must stay below 2**63, got q=4, k=100000"),
    ("outercode-k-huge", ENCODE, "outercode.txt", _sub(" k=4 ", f" k={10**18} "), 2,
     f"outercode.txt: q**k messages must stay below 2**63, got q=4, k={10**18}"),
    # construct refuses k = 13 at n = 64; a valid file of it would take seconds to validate
    ("outercode-k-cap", ENCODE, "outercode.txt", _sub(" q=4 n=32 k=4 ", " q=2 n=64 k=13 "), 2,
     "outercode.txt: 8192 codewords of 64 symbols take about 4.3e+09" + _PASS_CAP),
    # received strings that are not binary
    *[(f"decode-bits-{name}", ("decode", "--config", "scheme.txt", bits), None, None, 2,
       "received string must be binary")
      for name, bits in [("2", "2"), ("10a1", "10a1"), ("space", "1 0"), ("newline", "01\n"),
                         ("e-acute", "é"), ("arabic-one", "1١")]],
]


@pytest.mark.parametrize("command, file, edit, code, message",
                         [pytest.param(*row[1:], id=row[0]) for row in REFUSALS])
def test_cli_refuses_hostile_configs(tmp_path, monkeypatch, capsys, saved_desk,
                                     command, file, edit, code, message):
    # refused before any work they would make large: the exit code within a second,
    # one line on stderr and nothing on stdout, no --out written
    shutil.copytree(saved_desk, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)  # so each error names a file as the row does
    if callable(edit):
        (tmp_path / file).write_text(edit((tmp_path / file).read_text()))
    elif edit is not None:
        (tmp_path / file).write_text(edit)
    out = command[command.index("--out") + 1] if "--out" in command else "out"
    start = time.perf_counter()
    assert main([*command, "--out", out]) == code
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / out).exists()


def test_cli_simulate_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["simulate", "--trials", "15", "--seed", "7", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["config"]["trials"] == 15


def test_cli_error_exit_codes(tmp_path, capsys):
    # argparse's own usage errors
    assert main(["bogus-subcommand"]) == 2
    for command in ("simulate", "construct"):
        assert main([command, "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
        assert "argument --seed: invalid nonnegative value: '-1'" in capsys.readouterr().err
    # a message that is not an integer is refused before the scheme is read
    assert main(["encode", "--config", str(tmp_path / "missing.txt"), "1e3"]) == 2
    assert "argument message: invalid int value: '1e3'" in capsys.readouterr().err


def test_single_codeword_needs_two_trials(bdc_desk):
    # one trial has no sample variance; reports never hold NaN
    with pytest.raises(ValueError, match="at least 2 trials"):
        run_single_codeword(bdc_desk, 1, 0)
    with pytest.raises(ValueError):
        report_json({"x_var": float("nan")})


def test_simulate_rejects_an_unknown_desk():
    with pytest.raises(ValueError, match="^desk must be bdc or prc, got 'bcd'$"):
        desk_params("bcd")
    with pytest.raises(ValueError, match="desk must be bdc or prc"):
        ExperimentConfig(desk="BDC")


@pytest.mark.parametrize("key", ["desk=prc", "M_B=0.5"])
def test_simulate_rejects_desk_keys_next_to_a_scheme(tmp_path, bdc_desk, key):
    scheme_path = _saved_scheme(tmp_path, bdc_desk)
    config = tmp_path / "exp.cfg"
    config.write_text(f"mode=end_to_end\ntrials=2\nscheme={scheme_path}\n{key}\n")
    name = key.split("=")[0]
    with pytest.raises(ValueError, match=f"{name} is ignored when scheme is given"):
        load_config(config)
    config.write_text(f"mode=end_to_end\ntrials=2\nscheme={scheme_path}\n")
    assert main(["simulate", "--config", str(config)]) == 0


@pytest.mark.parametrize("runner", [run_end_to_end, run_transition])
def test_runs_need_a_trial(bdc_desk, runner):
    with pytest.raises(ValueError, match="^trials must be at least 1$"):
        runner(bdc_desk, 0, 0)


def test_descriptor_format(tmp_path, bdc_desk):
    path = _saved_scheme(tmp_path, bdc_desk)
    lines = path.read_text().splitlines()
    # comments, blank lines and spaces around "=" are allowed
    spaced = ["# desk BDC scheme", ""] + [line.replace("=", " = ", 1) for line in lines]
    path.write_text("\n".join(spaced) + "\n")
    assert load_scheme(path) == bdc_desk
    path.write_text("\n".join(line for line in lines if not line.startswith("codebook=")))
    with pytest.raises(ValueError, match="missing key 'codebook'"):
        load_scheme(path)


def test_desk_scheme_buffer_variant():
    tight = desk_scheme("bdc", M_B=0.5)
    assert tight.params.buffer_threshold == 6
    assert tight.B == 18
