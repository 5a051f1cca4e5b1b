"""The benchmark tracer patches program functions by name; each name must
still resolve, or `perfbench/run.py --trace 1` breaks."""

import importlib.util
import sys

from conftest import REPO_ROOT


def test_tracer_targets_resolve_to_callables(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    names = [(path, attr) for _, path, attr in tracer.TARGETS + tracer.COUNTED]
    assert names
    missing = [
        f"{path}.{attr}" for path, attr in names if not callable(getattr(tracer._owner(path), attr, None))
    ]
    assert missing == []
