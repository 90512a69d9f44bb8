"""Experiment runner and CLI: reproducibility, report structure, exit codes."""

import hashlib
import json
from dataclasses import replace
from math import exp

import numpy as np
import pytest

from delchan import harness as harness_module
from delchan import scheme as scheme_module
from delchan.analysis import presets, transition_probs
from delchan.cli import main
from delchan.harness import (
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


def test_load_config_rejects_unknown_keys_and_bad_numbers(tmp_path, capsys):
    # a mistyped key must not fall back to a default; a bad number names its key
    config = tmp_path / "exp.cfg"
    for command, text, message in [
        ("simulate", "mode=transition\ntrails=50\n", "unknown key 'trails'"),
        ("simulate", "mode=transition\ntrials=abc\n",
         "key 'trials': invalid literal for int() with base 10: 'abc'"),
        ("simulate", "seed=7\nM_B=wide\n",
         "key 'M_B': could not convert string to float: 'wide'"),
        ("construct", "M_b=0.5\nseeed=3\n", "unknown key 'M_b'"),
        ("construct", "seed=x\n", "key 'seed': invalid literal for int() with base 10: 'x'"),
        ("simulate", "seed=-1\n", "key 'seed': -1 is negative"),
        ("construct", "seed=-1\n", "key 'seed': -1 is negative"),
    ]:
        config.write_text(text)
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {config}: {message}\n"
    for command in ("simulate", "construct"):
        assert main([command, "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
        assert "argument --seed: invalid nonnegative value: '-1'" in capsys.readouterr().err


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


# sha256 of report_json(run_experiment(...)) at seed 7. M_B = 0.5 loses a
# buffer with the exact probability 0.00143, so its 3,000 trials (6,000
# buffers) see no loss with probability about 2e-4; 300 trials miss it 42% of the time.
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
     "0e722f108fc0c9d5a07b38f3f8ad5838fa2f84ff89c49ca7deec310dd193c725"),
    ("single_codeword", "prc", 2.5, 300,
     "6a3594b9088aff9f7afaf19189ff4ffd8ca1cf775464aebf5e431b9ba5e11aa7"),
    ("single_codeword", "prc", 2.5, 20000,  # 79 blocks; about 2,000 inner-memo misses
     "c0537e0ad3eaa88269b2c7d5e91e8cdaefb12438b7371e490336d227277be5e5"),
    ("single_codeword", "bdc", 0.5, 3000,
     "b118cabb7b8ee56333aad9a0b21dba24e7da5a6b92232b18f9f2f514fbde6974"),
    ("transition", "bdc", 2.5, 2000,
     "e41f7152986f63fd0f50a1c82f79bff778d0d440225e5786cb47f30202bd7531"),
    ("transition", "prc", 2.5, 2000,
     "b580057efc0d58069730c7ce910f5e7eda89253c4aa870a50602879a66ce939e"),
]


@pytest.mark.parametrize("mode,desk,M_B,trials,digest", PINNED_REPORTS)
def test_reports_are_pinned(mode, desk, M_B, trials, digest):
    config = ExperimentConfig(mode=mode, trials=trials, master_seed=7, desk=desk, M_B=M_B)
    text = report_json(run_experiment(config))
    if M_B == 0.5:
        assert json.loads(text)["error_events"]["deleted_buffer"] > 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
    assert out.read_text().startswith("preset,")
    monkeypatch.setattr("delchan.harness.presets", _published_p99)
    assert main(["analyze", "--out", str(out)]) == 1  # verification failure
    assert "1 parameter set(s) failed" in capsys.readouterr().err
    monkeypatch.undo()
    out2 = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out2)]) == 0
    assert len(out2.read_text().strip().splitlines()) == 111


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


def test_default_construct_output_is_pinned(tmp_path, capsys):
    assert main(["construct", "--out", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("codebook.txt", "outercode.txt")}
    assert digests == {
        "codebook.txt": "d5dc217beb8fc54f0c0c721283032e7469bba3669c2e1756846c5cd94543c03d",
        "outercode.txt": "ec24694990146500c331ebd369a5492950c1f797bda6bd79b4b24c0db30c56bf",
    }


def test_cli_construct_refuses_an_inner_codebook_smaller_than_q(tmp_path, capsys):
    config = tmp_path / "q100.cfg"
    config.write_text("q=100\nk=1\n")  # the desk profile has 77 codewords
    assert main(["construct", "--config", str(config), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: inner codebook has 77 codewords, need 100\n"
    assert not any((tmp_path / name).exists()
                   for name in ("codebook.txt", "outercode.txt", "scheme.txt"))


def test_cli_construct_refuses_runs_beyond_int32(tmp_path, capsys):
    config = tmp_path / "huge.cfg"
    config.write_text("param=0.9999999999\n")  # N2 = 1.35e11 bits
    assert main(["construct", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "must stay below 2**31" in capsys.readouterr().err
    assert not (tmp_path / "scheme.txt").exists()


@pytest.mark.parametrize("command, text, message", [
    ("construct", "M2=inf\n", "M2=inf must be positive and finite"),
    ("construct", "M_B=inf\n", "M_B=inf must be positive and finite"),
    ("construct", "M1=nan\n", "M1=nan must be positive and finite"),
    ("construct", "channel=prc\nparam=nan\n", "repeat mean nan must be positive and finite"),
    ("construct", "channel=prc\nparam=inf\n", "repeat mean inf must be positive and finite"),
    ("construct", "param=nan\n", "deletion probability nan outside [0, 1)"),
    ("simulate", "mode=transition\nM_B=inf\n", "M_B=inf must be positive and finite"),
], ids=["M2", "M_B", "M1", "prc-nan", "prc-inf", "bdc-nan", "simulate-M_B"])
def test_cli_refuses_non_finite_parameters(tmp_path, capsys, command, text, message):
    config = tmp_path / "exp.cfg"
    config.write_text(text)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_load_scheme_refuses_non_finite_parameters(tmp_path, capsys, bdc_desk):
    path = _saved_scheme(tmp_path, bdc_desk)
    lines = path.read_text().splitlines()
    for key in ("M2", "M_B"):
        path.write_text("".join(f"{key}=inf\n" if line.startswith(f"{key}=") else line + "\n"
                                for line in lines))
        assert main(["encode", "--config", str(path), "1"]) == 2
        assert capsys.readouterr().err == f"error: {path}: {key}=inf must be positive and finite\n"


def test_cli_simulate_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["simulate", "--trials", "15", "--seed", "7", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["config"]["trials"] == 15


def test_cli_error_exit_codes(tmp_path, capsys, bdc_desk):
    assert main(["decode", "--config", str(tmp_path / "missing.txt"), "1"]) == 2
    assert main(["decode", "--config", str(tmp_path / "missing.txt"), "abc"]) == 2
    assert main(["bogus-subcommand"]) == 2
    # hostile code files behind a valid descriptor
    scheme_path = str(_saved_scheme(tmp_path, bdc_desk))
    outer_text = (tmp_path / "outercode.txt").read_text()
    assert "dout_den=8" in outer_text
    for name, text in [
        ("codebook.txt", ""),
        ("outercode.txt", ""),
        ("outercode.txt", outer_text.replace("dout_den=8", "dout_den=0")),
    ]:
        _saved_scheme(tmp_path, bdc_desk)
        (tmp_path / name).write_text(text)
        assert main(["encode", "--config", scheme_path, "1"]) == 2, (name, text[:40])
    # malformed code-file headers, a codebook shorter than its count, code
    # files that fail validation, and a descriptor that disagrees with its
    # codebook's header name the file and the fault
    _saved_scheme(tmp_path, bdc_desk)
    header, *codewords = (tmp_path / "codebook.txt").read_text().splitlines()
    assert header == "innercode v1 m=25 r1=13 r2=6 d=2 count=4"
    outer_lines = outer_text.splitlines()
    descriptor = (tmp_path / "scheme.txt").read_text()
    assert "\nd=2\n" in descriptor and "\ndout=0.125\n" in descriptor
    # a 2 leaves the runs short and the ends 1, but it is not a bit
    non_binary = codewords[0][:-3] + "2" + codewords[0][-2:]
    for name, text, message in [
        ("codebook.txt", "\n".join([header.replace(" d=2", ""), *codewords]),
         "missing key 'd'"),
        ("codebook.txt", "\n".join([header.replace("d=2", "d2"), *codewords]),
         "expected key=value, got 'd2'"),
        ("codebook.txt", "\n".join([header, *codewords[:2]]),
         "header says count=4, found 2 lines"),
        ("codebook.txt", "\n".join([header.replace("d=2", "d=x"), *codewords]),
         "key 'd': invalid literal for int() with base 10: 'x'"),
        ("outercode.txt", outer_text.replace(" seed=2024", ""), "missing key 'seed'"),
        ("outercode.txt", "\n".join(outer_text.splitlines()[:5]),
         "header says q**k=256, found 4 lines"),
        ("outercode.txt", outer_text + outer_text.splitlines()[1],
         "header says q**k=256, found 257 lines"),
        ("outercode.txt", outer_text.replace("\n0 ", "\nx ", 1),
         "invalid literal for int() with base 10: 'x'"),
        ("codebook.txt", "\n".join([header, "x" + codewords[0][1:], *codewords[1:]]),
         f"'x{codewords[0][1:]}' is not in S"),
        ("codebook.txt", "\n".join([header, non_binary, *codewords[1:]]),
         f"{non_binary!r} is not in S"),
        ("outercode.txt", "\n".join([*outer_lines[:2], outer_lines[1], *outer_lines[3:]]),
         "codewords 0 and 1 too close"),
        ("scheme.txt", descriptor.replace("\nd=2\n", "\nd=5\n"),
         "inner codebook does not match the declared parameters"),
        ("scheme.txt", descriptor.replace("\ndout=0.125\n", "\ndout=0.25\n"),
         "outer code does not match the declared parameters"),
    ]:
        _saved_scheme(tmp_path, bdc_desk)
        (tmp_path / name).write_text(text)
        assert main(["encode", "--config", scheme_path, "1"]) == 2, message
        assert f"error: {tmp_path / name}: {message}\n" in capsys.readouterr().err


def test_single_codeword_needs_two_trials(tmp_path, bdc_desk):
    # one trial has no sample variance; reports never hold NaN
    with pytest.raises(ValueError, match="at least 2 trials"):
        run_single_codeword(bdc_desk, 1, 0)
    config = tmp_path / "exp.cfg"
    config.write_text("mode=single_codeword\n")
    assert main(["simulate", "--config", str(config), "--trials", "1"]) == 2
    with pytest.raises(ValueError):
        report_json({"x_var": float("nan")})


def test_simulate_rejects_an_unknown_desk(tmp_path, capsys):
    # a mistyped desk must not fall back to the PRC scheme
    with pytest.raises(ValueError, match="^desk must be bdc or prc, got 'bcd'$"):
        desk_params("bcd")
    with pytest.raises(ValueError, match="desk must be bdc or prc"):
        ExperimentConfig(desk="BDC")
    config = tmp_path / "exp.cfg"
    config.write_text("mode=single_codeword\ntrials=5\ndesk=bcd\n")
    assert main(["simulate", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: desk must be bdc or prc, got 'bcd'\n"


@pytest.mark.parametrize("key", ["desk=prc", "M_B=0.5"])
def test_simulate_rejects_desk_keys_next_to_a_scheme(tmp_path, capsys, bdc_desk, key):
    scheme_path = _saved_scheme(tmp_path, bdc_desk)
    config = tmp_path / "exp.cfg"
    config.write_text(f"mode=end_to_end\ntrials=2\nscheme={scheme_path}\n{key}\n")
    name = key.split("=")[0]
    with pytest.raises(ValueError, match=f"{name} is ignored when scheme is given"):
        load_config(config)
    assert main(["simulate", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {config}: {name} is ignored when scheme is given\n"
    config.write_text(f"mode=end_to_end\ntrials=2\nscheme={scheme_path}\n")
    assert main(["simulate", "--config", str(config)]) == 0


@pytest.mark.parametrize("runner", [run_end_to_end, run_transition])
def test_runs_need_a_trial(bdc_desk, runner):
    with pytest.raises(ValueError, match="^trials must be at least 1$"):
        runner(bdc_desk, 0, 0)


def test_descriptor_format(tmp_path, capsys, bdc_desk):
    path = _saved_scheme(tmp_path, bdc_desk)
    lines = path.read_text().splitlines()
    # comments, blank lines and spaces around "=" are allowed
    spaced = ["# desk BDC scheme", ""] + [line.replace("=", " = ", 1) for line in lines]
    path.write_text("\n".join(spaced) + "\n")
    assert load_scheme(path) == bdc_desk
    # a line without "=" and a missing key are configuration errors
    path.write_text("\n".join(lines + ["M1 4.0"]) + "\n")
    assert main(["encode", "--config", str(path), "1"]) == 2
    assert "expected key=value" in capsys.readouterr().err
    path.write_text("\n".join(line for line in lines if not line.startswith("M1=")) + "\n")
    assert main(["encode", "--config", str(path), "1"]) == 2
    assert f"error: {path}: missing key 'M1'" in capsys.readouterr().err
    path.write_text("\n".join(line for line in lines if not line.startswith("codebook=")))
    with pytest.raises(ValueError, match="missing key 'codebook'"):
        load_scheme(path)
    # a malformed value and an unknown key name the file and the key
    for text, message in [
        ("\n".join(lines).replace("M1=4.0", "M1=abc"),
         "key 'M1': could not convert string to float: 'abc'"),
        ("\n".join(lines + ["M_b=0.5"]), "unknown key 'M_b'"),
    ]:
        path.write_text(text + "\n")
        assert main(["encode", "--config", str(path), "1"]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_desk_scheme_buffer_variant():
    tight = desk_scheme("bdc", M_B=0.5)
    assert tight.params.buffer_threshold == 6
    assert tight.B == 18
