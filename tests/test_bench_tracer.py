"""The benchmark's layer tracer wraps program functions by name; every name it
wraps must exist, or every traced benchmark run fails. This installs and
removes the tracer once, which is far quicker than `pytest perfbench`."""

from pathlib import Path

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
