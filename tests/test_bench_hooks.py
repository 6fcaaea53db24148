"""The benchmark still runs: its tracer finds every function it wraps, and
its workloads pass their own correctness gates.

`perfbench/spans.py` patches fatkit's public functions by name, in every
module that holds them. Deleting or renaming one of them breaks
`perfbench/run.py --trace 1`; the first test runs the same install/uninstall
cycle so the fast suite catches it first. The others run a few operations of
each workload in `perfbench/workloads.py` and check them against the stored
reference outputs, as a benchmark run does.
"""

import importlib
import sys
from pathlib import Path

import pytest

import fatkit.tensor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_installs_and_restores_every_hook():
    spans = load_perfbench("spans")
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


def test_apply_requests_match_the_benchmark_reference(tmp_path):
    workloads = load_perfbench("workloads")
    setup = workloads.apply_setup(tmp_path, 0)
    assert workloads.apply_fallback(setup, workloads.load_reference("apply"), 0) == []


@pytest.mark.parametrize("name", ["train-color", "train-spatial"])
def test_train_steps_match_the_benchmark_reference(tmp_path, name):
    workloads = load_perfbench("workloads")
    run = workloads.train_loop(workloads.train_setup(tmp_path, 0, name == "train-spatial"), 0, 0, steps=3)
    assert workloads.check_losses(run, workloads.load_reference(name), 0) == 3
    assert (run.attempted, run.failed) == (3, 0), run.problems


@pytest.mark.parametrize("name", ["train-color", "train-spatial"])
def test_traced_train_step_reads_the_training_path(tmp_path, name):
    # the per-layer attention and spatial figures come from the calls a
    # train step makes; each real face's reference side is built once per
    # step, outside the transfers that read it
    spans = load_perfbench("spans")
    workloads = load_perfbench("workloads")
    spatial = name == "train-spatial"
    setup = workloads.train_setup(tmp_path, 0, spatial)
    tracer = spans.Tracer()
    tracer.install()
    try:
        run = workloads.train_loop(setup, 0, 0, steps=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert (run.attempted, run.failed) == (1, 0), run.problems
    metrics = {key: value for key, (value, _) in spans.layer_metrics(tracer, [0]).items()}
    assert metrics["attention.fat_forward.calls"] > 0
    assert metrics["tensor.conv2d.calls"] == (82 if spatial else 70)
    # the attribute transfer runs inside the attention op, so it adds no
    # matmul to a pass
    assert metrics["tensor.matmul.calls"] == (18 if spatial else 6)
    step = [s for s in tracer.spans if s[2] == 0]
    parents = [tracer.spans[s[1]][0] for s in step if s[0] == "attention.estimate_attributes"]
    # the alignment block's reference is the query code, new in every pass
    assert parents.count("attention.fat_forward") == (4 if spatial else 0)
    assert len(parents) == (6 if spatial else 2)
    if spatial:
        assert sum(s[0] == "spatial.spatial_fat_forward" for s in step) == 4
        assert metrics["spatial.solved_ratio"] == 1.0
