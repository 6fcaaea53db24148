"""Span tracing of fatkit from the outside, and the per-layer metrics.

`Tracer.install` replaces fatkit's public functions with timing wrappers in
every fatkit module that holds a reference to them (`gan`, `attention` and
`spatial` import the tensor ops by name, so patching `fatkit.tensor` alone
would miss their calls), plus the operator methods of `Tensor`. Before each
`Tensor.backward` it wraps every graph node's `_backward` closure so the
backward time of each op is recorded under the node's `Tensor._op`.
`Tracer.uninstall` puts every original back and verifies that no wrapper is
left, so untraced runs measure the program unwrapped.

A span is (name, parent span, operation id, start, end). The operation id
is the train step or apply request the span belongs to, set by the
workload loop; spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import gzip
import time

import fatkit.attention
import fatkit.cli
import fatkit.data
import fatkit.gan
import fatkit.pseudo_gt
import fatkit.pyramid
import fatkit.spatial
import fatkit.tensor
import fatkit.tps
from fatkit.data import PART_LANDMARKS
from fatkit.tensor import Tensor

MODULES = (
    fatkit.tensor,
    fatkit.tps,
    fatkit.attention,
    fatkit.spatial,
    fatkit.pseudo_gt,
    fatkit.gan,
    fatkit.pyramid,
    fatkit.data,
    fatkit.cli,
)

# ops reported by name; every other op is folded into "other"
NAMED_OPS = (
    "conv2d", "deconv2d", "instance_norm", "matmul", "softmax",
    "relu", "grid_sample", "sqdist", "solve", "xlogx",
)

# tensor-module functions whose forward is timed, with the `Tensor._op`
# name of the node each one builds
_FORWARD_OPS = {
    "conv2d": "conv2d",
    "deconv2d": "deconv2d",
    "instance_norm": "instance_norm",
    "matmul": "matmul",
    "softmax": "softmax",
    "relu": "relu",
    "grid_sample": "grid_sample",
    "pairwise_sqdist": "sqdist",
    "linear_solve": "solve",
    "xlogx": "xlogx",
    "tanh": "other",
    "softplus": "other",
    "concat": "other",
    "reshape": "other",
    "transpose": "other",
    "avg_pool2d": "other",
    "bilinear_sample": "other",
    "tensor_sum": "other",
    "tensor_mean": "other",
    "l1_loss": "other",
    "mse_loss": "other",
}

_TENSOR_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__neg__", "__getitem__",
)

# (module, function, span name) of the layer calls outside the op engine
_LAYER_CALLS = (
    (fatkit.tensor, "adam_step", "tensor.adam_step"),
    (fatkit.tensor, "load_tensors", "tensor.load_tensors"),
    (fatkit.tensor, "save_tensors", "tensor.save_tensors"),
    (fatkit.gan, "train_step", "gan.train_step"),
    (fatkit.gan, "generator_forward", "gan.generator_forward"),
    (fatkit.gan, "loss_discriminators", "gan.loss_discriminators"),
    (fatkit.gan, "loss_generator", "gan.loss_generator"),
    (fatkit.gan, "prepare_pair", "gan.prepare_pair"),
    (fatkit.gan, "load_generator", "gan.load_generator"),
    (fatkit.attention, "fat_forward", "attention.fat_forward"),
    (fatkit.attention, "multi_head", "attention.multi_head"),
    (fatkit.attention, "estimate_attributes", "attention.estimate_attributes"),
    (fatkit.spatial, "spatial_fat_forward", "spatial.spatial_fat_forward"),
    (fatkit.spatial, "tps_grid_from_targets", "spatial.tps_grid_from_targets"),
    (fatkit.spatial, "masked_tps_warp", "spatial.masked_tps_warp"),
    (fatkit.tps, "tps_solve", "tps.tps_solve"),
    (fatkit.tps, "tps_grid", "tps.tps_grid"),
    (fatkit.tps, "warp_image", "tps.warp_image"),
    (fatkit.pseudo_gt, "color_pgt", "pseudo_gt.color_pgt"),
    (fatkit.pseudo_gt, "spatial_pgt", "pseudo_gt.spatial_pgt"),
    (fatkit.pyramid, "crop_and_resize", "pyramid.crop_and_resize"),
    (fatkit.pyramid, "pyramid_reconstruct", "pyramid.pyramid_reconstruct"),
    (fatkit.data, "make_corpus", "data.make_corpus"),
    (fatkit.data, "load_sample", "data.load_sample"),
    (fatkit.data, "read_ppm", "data.read_ppm"),
    (fatkit.data, "write_ppm", "data.write_ppm"),
    (fatkit.cli, "main", "cli.main"),
)

_MARK = "_perfbench_original"


class TraceError(RuntimeError):
    """Wrapping or unwrapping left fatkit in an unexpected state."""


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self):
        self.spans = []  # [name, parent index, operation id, start, end]
        self.counts = {}  # (operation id, counter) -> total
        self.operation = "setup"
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self._last_node = None  # id of the node counted since the last span began

    # -- recording --------------------------------------------------------

    def begin(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.operation, time.perf_counter(), 0.0])
        self._stack.append(index)
        self._last_node = None
        return index

    def end(self, index):
        self.spans[index][4] = time.perf_counter()
        self._stack.pop()

    def count(self, counter, amount=1):
        key = (self.operation, counter)
        self.counts[key] = self.counts.get(key, 0) + amount

    def write(self, path):
        """Spans as gzipped CSV: name, id, parent, operation, start_us, end_us."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("name,id,parent,operation,start_us,end_us\n")
            for i, (name, parent, op, start, end) in enumerate(self.spans):
                fh.write(f"{name},{i},{parent},{op},{start * 1e6:.1f},{end * 1e6:.1f}\n")

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(args, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _count_node(self, args, result):
        # a wrapped op that returns the node of a nested wrapped op (with no
        # span begun in between) is counted once
        if isinstance(result, Tensor) and result._backward is not None and id(result) != self._last_node:
            self._last_node = id(result)
            self.count("tensor.nodes")

    def _count_solved(self, args, result):
        self.count("spatial.warps")
        self.count("spatial.solved", int(bool(result[1])))

    def _count_color_parts(self, args, result):
        source = args[0]
        self.count("pseudo_gt.parts", sum(bool((source.mask == label).any()) for label in PART_LANDMARKS))
        self.count("pseudo_gt.refined", len(result.parts_refined))

    def _count_spatial_part(self, args, result):
        self.count("pseudo_gt.parts")
        self.count("pseudo_gt.refined", int(args[3] in result.parts_refined))

    def _timed_backward(self, back, op):
        name = "tensor.bwd." + (op if op in NAMED_OPS else "other")

        def run(g):
            index = self.begin(name)
            try:
                return back(g)
            finally:
                self.end(index)

        setattr(run, _MARK, back)
        return run

    def _traced_tensor_backward(self, original):
        tracer = self

        @functools.wraps(original)
        def backward(root):
            # wrap every node's closure first, outside the span, so the walk
            # is tracing overhead and not engine graph time
            stack, seen = [root], set()
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                back = node._backward
                if back is not None and not hasattr(back, _MARK):
                    node._backward = tracer._timed_backward(back, node._op)
                stack.extend(p for p in node._parents if p.requires_grad)
            index = tracer.begin("tensor.backward")
            try:
                return original(root)
            finally:
                tracer.end(index)

        setattr(backward, _MARK, original)
        return backward

    # -- patching -------------------------------------------------------------

    def install(self):
        if self._patched:
            raise TraceError("tracer is already installed")
        hooks = {
            "spatial.spatial_fat_forward": self._count_solved,
            "pseudo_gt.color_pgt": self._count_color_parts,
            "pseudo_gt.spatial_pgt": self._count_spatial_part,
        }
        wrappers = {}  # id(original) -> wrapper
        for fname, op in _FORWARD_OPS.items():
            fn = getattr(fatkit.tensor, fname)
            wrappers[id(fn)] = self._wrap(fn, "tensor.fwd." + op, self._count_node)
        for module, fname, span in _LAYER_CALLS:
            fn = getattr(module, fname)
            wrappers[id(fn)] = self._wrap(fn, span, hooks.get(span))
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and getattr(wrapper, _MARK) is value:
                    self._patch(module, attr, wrapper)
        for attr in _TENSOR_METHODS:
            fn = Tensor.__dict__[attr]
            self._patch(Tensor, attr, self._wrap(fn, "tensor.fwd.other", self._count_node))
        self._patch(Tensor, "backward", self._traced_tensor_backward(Tensor.__dict__["backward"]))

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Restore every original and prove that no wrapper is reachable."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        restored, self._patched = self._patched, []
        for owner, attr, original in restored:
            if vars(owner)[attr] is not original:
                raise TraceError(f"{owner.__name__}.{attr} was not restored")
        for owner in MODULES + (Tensor,):
            for attr, value in vars(owner).items():
                if hasattr(value, _MARK):
                    raise TraceError(f"{owner.__name__}.{attr} is still wrapped")
        return len(restored)


# -- per-layer metrics -----------------------------------------------------


def _durations(spans, operations):
    """Per span name: (inclusive seconds, self seconds, calls) over operations."""
    child_time = [0.0] * len(spans)
    for name, parent, op, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for i, (name, parent, op, start, end) in enumerate(spans):
        if op not in operations:
            continue
        incl, own, calls = totals.get(name, (0.0, 0.0, 0))
        totals[name] = (incl + end - start, own + end - start - child_time[i], calls + 1)
    return totals


def _nth_backward(spans, operations):
    """Inclusive seconds of the first and second backward of each operation:
    in a train step the first is the discriminator update, the second the
    generator update."""
    seen, first, second = {}, 0.0, 0.0
    for name, parent, op, start, end in spans:
        if name != "tensor.backward" or op not in operations:
            continue
        k = seen.get(op, 0)
        seen[op] = k + 1
        if k == 0:
            first += end - start
        elif k == 1:
            second += end - start
    return first, second


def layer_metrics(tracer, operations):
    """Per-layer metrics per operation (train step or apply request).

    `operations` are the ids of the timed operations; set-up metrics use the
    spans recorded under the "setup" id instead. Times ending in `.ms` or
    `.s` are inclusive span time except where the name says `self`, and the
    tensor op `fwd_ms`/`bwd_ms` figures, which are self time so nested ops
    are not counted twice.
    """
    ops = set(operations)
    n = len(ops)
    tot = _durations(tracer.spans, ops)
    setup = _durations(tracer.spans, {"setup"})

    def incl(name):
        return tot.get(name, (0.0, 0.0, 0))[0] * 1e3 / n

    def own(name):
        return tot.get(name, (0.0, 0.0, 0))[1] * 1e3 / n

    def calls(name):
        return tot.get(name, (0.0, 0.0, 0))[2] / n

    def counter(key):
        return sum(v for (op, k), v in tracer.counts.items() if k == key and op in ops)

    def ratio(num, den):
        d = counter(den)
        return counter(num) / d if d else 0.0

    out = {}
    for op in NAMED_OPS + ("other",):
        out[f"tensor.{op}.fwd_ms"] = (own(f"tensor.fwd.{op}"), "ms")
        out[f"tensor.{op}.bwd_ms"] = (own(f"tensor.bwd.{op}"), "ms")
        out[f"tensor.{op}.calls"] = (calls(f"tensor.fwd.{op}"), "count")
    out["tensor.nodes"] = (counter("tensor.nodes") / n, "count")
    out["tensor.backward.graph_ms"] = (own("tensor.backward"), "ms")
    for name in ("adam_step", "load_tensors"):
        out[f"tensor.{name}.ms"] = (incl(f"tensor.{name}"), "ms")
    out["tensor.save_tensors.ms"] = (setup.get("tensor.save_tensors", (0.0,))[0] * 1e3, "ms")

    d_bwd, g_bwd = _nth_backward(tracer.spans, ops)
    out["gan.generator_forward.ms"] = (incl("gan.generator_forward"), "ms")
    out["gan.generator_forward.calls"] = (calls("gan.generator_forward"), "count")
    out["gan.loss_discriminators.ms"] = (incl("gan.loss_discriminators"), "ms")
    out["gan.loss_generator.ms"] = (incl("gan.loss_generator"), "ms")
    out["gan.d_backward.ms"] = (d_bwd * 1e3 / n if calls("gan.train_step") else 0.0, "ms")
    out["gan.g_backward.ms"] = (g_bwd * 1e3 / n if calls("gan.train_step") else 0.0, "ms")
    out["gan.prepare_pair.ms"] = (setup.get("gan.prepare_pair", (0.0,))[0] * 1e3, "ms")
    out["gan.load_generator.ms"] = (incl("gan.load_generator"), "ms")

    out["attention.fat_forward.ms"] = (incl("attention.fat_forward"), "ms")
    out["attention.fat_forward.calls"] = (calls("attention.fat_forward"), "count")
    out["attention.multi_head.ms"] = (incl("attention.multi_head"), "ms")
    out["attention.estimate_attributes.ms"] = (incl("attention.estimate_attributes"), "ms")

    for name in ("spatial_fat_forward", "tps_grid_from_targets", "masked_tps_warp"):
        out[f"spatial.{name}.ms"] = (incl(f"spatial.{name}"), "ms")
    out["spatial.solved_ratio"] = (ratio("spatial.solved", "spatial.warps"), "ratio")

    out["tps.tps_solve.ms"] = (incl("tps.tps_solve"), "ms")
    out["tps.tps_solve.calls"] = (calls("tps.tps_solve"), "count")
    out["tps.tps_grid.ms"] = (incl("tps.tps_grid"), "ms")
    out["tps.warp_image.ms"] = (incl("tps.warp_image"), "ms")

    out["pseudo_gt.color_pgt.ms"] = (incl("pseudo_gt.color_pgt"), "ms")
    out["pseudo_gt.spatial_pgt.ms"] = (incl("pseudo_gt.spatial_pgt"), "ms")
    out["pseudo_gt.parts_refined_ratio"] = (ratio("pseudo_gt.refined", "pseudo_gt.parts"), "ratio")

    out["pyramid.crop_and_resize.ms"] = (incl("pyramid.crop_and_resize"), "ms")
    out["pyramid.pyramid_reconstruct.ms"] = (incl("pyramid.pyramid_reconstruct"), "ms")

    out["data.make_corpus.s"] = (setup.get("data.make_corpus", (0.0,))[0], "s")
    for name in ("load_sample", "read_ppm", "write_ppm"):
        out[f"data.{name}.ms"] = (incl(f"data.{name}"), "ms")
    out["cli.main.self_ms"] = (own("cli.main"), "ms")
    return out
