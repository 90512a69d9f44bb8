"""The benchmark's layer tracer wraps program functions by name; every name it
wraps must exist, or every traced benchmark run fails, and a wrapped function
must return what it returns unwrapped. These tests install the tracer around
a few harness trials, which is far quicker than `pytest perfbench`."""

from pathlib import Path

import pytest

from delchan import harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_layer_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench

    tracer = bench.layer_tracer()
    before = {(owner, attr): vars(owner)[attr] for owner, attr in tracer.targets()}
    with tracer.installed():
        for (owner, attr), original in before.items():
            assert vars(owner)[attr] is not original, f"{owner!r}.{attr} not wrapped"
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} not restored"


@pytest.mark.parametrize("runner,trials", [
    ("run_end_to_end", 3), ("run_single_codeword", 20), ("run_transition", 300),
])
@pytest.mark.parametrize("desk", ["bdc_desk", "prc_desk"])
def test_traced_reports_equal_untraced(monkeypatch, request, runner, trials, desk):
    # a hook that breaks on a new call signature fails here, not in a traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench

    scheme = request.getfixturevalue(desk)
    untraced = getattr(harness, runner)(scheme, trials, 5)
    tracer = bench.layer_tracer()
    with tracer.installed():
        traced = getattr(harness, runner)(scheme, trials, 5)
    assert traced == untraced
    assert tracer.calls[f"harness.{runner}"] == 1
