"""The benchmark's tracer wraps renlab functions at the names their callers
look up; renaming one must fail here, not only in a traced benchmark run."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    patches = tracing._patches()
    assert patches
    for owner, attr, span, _ in patches:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({span})"
