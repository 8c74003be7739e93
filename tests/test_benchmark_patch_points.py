"""The benchmark's tracer wraps renlab functions at the names their callers
look up; renaming one, or no longer calling one a workload exercises, must
fail here, not only in a traced benchmark run."""

from dataclasses import replace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    patches = tracing._patches()
    assert patches
    for owner, attr, span, _ in patches:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({span})"


def _shrink(name, wl):
    """Cut a workload's unit down to seconds through instance attributes."""
    if name == "sweep_default":
        wl.seeds = wl.seeds[:1]
        wl.STEPS = 4
        wl.cfg = replace(wl.cfg, total_steps=wl.STEPS)
    elif name == "gradcheck_suite":
        wl.seeds = wl.seeds[:1]
    else:
        wl.DATA = [*wl.DATA]
        wl.DATA[wl.DATA.index("--n") + 1] = "256"  # the unit trains with batch 256
        wl.STEPS = 4


@pytest.mark.parametrize("name", ["sweep_default", "gradcheck_suite", "cli_wide_blobs"])
def test_traced_unit_calls_every_exercised_name_and_keeps_digests(name, monkeypatch,
                                                                  tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name](0, tmp_path / name)
    _shrink(name, wl)
    if name == "sweep_default":
        assert "trainer.sweep" in wl.exercises  # the sweep driver itself is traced
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        wl.setup()
    plain_ops, _ = wl.unit(lambda: None)
    with tracing.traced(tracer):
        traced_ops, _ = wl.unit(lambda: None)
    uncalled = sorted(n for n in wl.exercises if not tracer.calls[n])
    assert not uncalled, f"traced names never called on {name}: {uncalled}"
    assert plain_ops and None not in plain_ops.values()
    assert traced_ops == plain_ops
