"""The benchmark's outside tracer still finds every function it wraps.

`perfbench/spans.py` patches fatkit's public functions by name, in every
module that holds them. Deleting or renaming one of them breaks
`perfbench/run.py --trace 1`; this test runs the same install/uninstall
cycle so the fast suite catches it first.
"""

import sys
from pathlib import Path

import fatkit.tensor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    return spans


def test_tracer_installs_and_restores_every_hook():
    spans = load_spans()
    targets = [(fatkit.tensor, name) for name in spans._FORWARD_OPS]
    targets += [(module, name) for module, name, _ in spans._LAYER_CALLS]
    originals = [getattr(module, name) for module, name in targets]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module, name in targets:
            assert hasattr(getattr(module, name), spans._MARK), f"{module.__name__}.{name} not wrapped"
    finally:
        restored = tracer.uninstall()
    assert restored >= len(targets)
    for (module, name), original in zip(targets, originals):
        assert getattr(module, name) is original
