"""fatkit benchmark: one workload per process, closed loop, outputs checked.

Usage, from the root of a fatkit checkout:

    python3 perfbench/run.py --workload train-color --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

`--trace 0` measures the end-to-end metrics with fatkit unwrapped. `--trace 1`
runs the workload untraced, with span tracing, and untraced again, checks
that all three give bit-identical results, and reports the per-layer metrics
plus the tracing overhead. Metric names and units are those of BENCHMARK.json. The
last line of standard output is one JSON object: correct, attempted, failed,
metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("FAT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # one BLAS thread per process, pinned before numpy loads
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-color", "train-spatial", "apply")
SETUP_REPEATS = 5
SETUP_PROBES = 3  # speed probes just before and just after each set-up
FALLBACK_STEPS = 4  # train steps checked on a documented seed when --seed has no reference
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile


def _import_program():
    """Import fatkit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fatkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fatkit sources at {src / 'fatkit'}; run from a fatkit checkout")
    sys.path.insert(0, str(src))
    import fatkit

    if Path(fatkit.__file__).resolve().parent != (src / "fatkit").resolve():
        raise SystemExit(f"perfbench: imported fatkit from {fatkit.__file__}, not from {src}")


# -- statistics -------------------------------------------------------------------


def tail(values):
    """(percentile, value): the highest whole percentile with at least
    TAIL_BEYOND samples above it, by the nearest-rank rule."""
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = -(-pct * n // 100)
    return pct, sorted(values)[rank - 1]


def timing_metrics(prefix, seconds_list):
    ms = [s * 1e3 for s in seconds_list]
    pct, value = tail(ms)
    return {
        f"{prefix}_ms_p50": (statistics.median(ms), "ms"),
        f"{prefix}_ms_tail": (value, "ms"),
    }, {f"{prefix}_ms_tail": {"percentile": pct, "samples": len(ms)}}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def machine_metadata(args):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# -- workloads -----------------------------------------------------------------------


def _setups(make, work, repeats, same):
    """Run set-up `repeats` times; returns (last set-up, wall seconds each,
    seconds each on the reference machine).

    Every set-up must equal the first: set-up is deterministic in the seed.
    """
    from workloads import PROBE_REF_MS, SpeedProbe

    probe = SpeedProbe()
    wall, ref, first, last = [], [], None, None
    for k in range(repeats):
        path = work / f"setup{k}"
        path.mkdir()
        probes = [probe() for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        last = make(path)
        wall.append(time.perf_counter() - t0)
        probes += [probe() for _ in range(SETUP_PROBES)]
        ref.append(wall[-1] * PROBE_REF_MS * 1e-3 / statistics.median(probes))
        if first is None:
            first = last
        elif not same(first, last):
            raise RuntimeError("set-up is not deterministic: two set-ups of one seed differ")
    return last, wall, ref


def _same_pairs(a, b):
    import numpy as np

    return len(a.pairs) == len(b.pairs) and all(
        np.array_equal(p.pgt_xy, q.pgt_xy) and np.array_equal(p.pgt_yx, q.pgt_yx)
        and np.array_equal(p.feat_x, q.feat_x) and np.array_equal(p.x.image, q.x.image)
        for p, q in zip(a.pairs, b.pairs)
    )


def _same_inputs(a, b):
    return a.input_digest() == b.input_digest()


class Bench:
    """One workload in one process: set-up, loop, checks, metrics."""

    def __init__(self, args, work):
        import workloads

        self.w = workloads
        self.args = args
        self.work = work
        self.train = args.workload != "apply"
        self.spatial = args.workload == "train-spatial"
        self.same = _same_pairs if self.train else _same_inputs
        self.reference = workloads.load_reference(args.workload)
        self.problems = []
        self.info = {}

    def make_setup(self, path, seed):
        if self.train:
            return self.w.train_setup(path, seed, self.spatial)
        return self.w.apply_setup(path, seed)

    def loop(self, setup, seconds, count=None, tracer=None):
        seed = self.args.seed
        if self.train:
            return self.w.train_loop(setup, seed, seconds, steps=count, tracer=tracer)
        return self.w.apply_loop(setup, seed, seconds, self.reference, rounds=count, tracer=tracer)

    def count_of(self, run):
        """How many operations to replay so a second run repeats `run`."""
        if self.train:
            return len(run.history)
        return len(run.times) + 1  # plus the warm-up round

    def check(self, run):
        """Reference check for this seed; documented seed as a fallback."""
        seed = self.args.seed
        if self.train:
            compared = self.w.check_losses(run, self.reference, seed)
            self.info["reference_steps_compared"] = compared
        documented = self.reference["seeds"]
        if str(seed) in documented:
            self.info["reference_seed"] = seed
            return
        fallback_seed = int(next(iter(documented)))
        self.info["reference_seed"] = fallback_seed
        path = self.work / "fallback"
        path.mkdir()
        setup = self.make_setup(path, fallback_seed)
        if self.train:
            fallback = self.w.train_loop(setup, fallback_seed, 0.0, steps=FALLBACK_STEPS)
            self.w.check_losses(fallback, self.reference, fallback_seed)
            found = fallback.problems if fallback.failed else []
        else:
            found = self.w.apply_fallback(setup, self.reference, fallback_seed)
        self.problems += [f"reference check on seed {fallback_seed}: {p}" for p in found]

    def end_to_end(self):
        args = self.args
        setup, setup_wall, setup_ref = _setups(
            lambda p: self.make_setup(p, args.seed), self.work, SETUP_REPEATS, self.same)
        run = self.loop(setup, args.seconds)
        rss = peak_rss_mb()  # before the checks, which may set up a second seed
        self.check(run)
        metrics, tails = timing_metrics("op_ref", self.w.ref_times(run.times, run.probes))
        metrics["setup_s"] = (statistics.median(setup_ref), "s")
        metrics["peak_rss_mb"] = (rss, "MB")
        # wall-clock figures, printed for reading but not gated: see README
        named, wall_tails = timing_metrics("op", run.times)
        tails.update(wall_tails)
        if self.train:
            m, t = timing_metrics("train_step", run.times)
            named.update(m)
            tails.update(t)
        else:
            for kind in self.w.KINDS:
                m, t = timing_metrics(kind, [t for k, t in zip(run.kinds, run.kind_times) if k == kind])
                named.update(m)
                tails.update(t)
        named["setup_wall_s"] = (statistics.median(setup_wall), "s")
        named["fail_ratio"] = (run.failed / run.attempted, "ratio")
        self.info["tails"] = tails
        self.info["setup_wall_s_each"] = setup_wall
        self.info["probe_ms_median"] = statistics.median(run.probes) * 1e3
        return run, metrics, named

    def traced(self):
        """Untraced, traced and untraced again, the same operations each time.

        The traced phase runs from a fresh set-up of the same seed. The
        overhead is taken against the mean of the two untraced phases, so
        that the allocator warming up over the run cancels out.
        """
        from spans import Tracer, layer_metrics

        args = self.args
        setup, _, _ = _setups(lambda p: self.make_setup(p, args.seed), self.work, 1, None)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        plain = self.loop(setup, args.seconds / 3.0)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        self.check(plain)
        count = self.count_of(plain)
        tracer = Tracer()
        tracer.install()
        try:
            path = self.work / "traced"
            path.mkdir()
            traced_setup = self.make_setup(path, args.seed)
            traced_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run = self.loop(traced_setup, None, count=count, tracer=tracer)
            traced_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - traced_faults
        finally:
            restored = tracer.uninstall()
        after_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        after = self.loop(setup, None, count=count)
        after_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - after_faults
        self.info["wrappers_installed_and_removed"] = restored
        if not self.same(setup, traced_setup):
            self.problems.append("traced set-up differs from the untraced one")
        what = "loss history" if self.train else "output bytes"
        if run.history != plain.history:
            self.problems.append(f"traced {what} is not bit-identical to the untraced run")
        if after.history != plain.history:
            self.problems.append(f"{what} of the second untraced run differs from the first")
        self.info["bit_identical"] = run.history == plain.history == after.history
        if self.train:
            self.info["final_J_G"] = plain.history[-1][1]
        self.info["minor_faults_per_op"] = {"untraced": faults / plain.attempted,
                                            "traced": traced_faults / run.attempted,
                                            "untraced_after": after_faults / after.attempted}
        for other in (plain, after):
            run.failed += other.failed
            run.problems += other.problems
            run.attempted += other.attempted
        metrics = layer_metrics(tracer, run.timed_ops)
        phases = {"untraced": plain, "traced": run, "untraced_after": after}
        ref_p50 = {k: statistics.median(self.w.ref_times(r.times, r.probes)) * 1e3 for k, r in phases.items()}
        untraced = (ref_p50["untraced"] + ref_p50["untraced_after"]) / 2.0
        metrics["trace.op_ref_ms_p50_untraced"] = (untraced, "ms")
        metrics["trace.op_ref_ms_p50_traced"] = (ref_p50["traced"], "ms")
        metrics["trace.overhead_ms"] = (ref_p50["traced"] - untraced, "ms")
        metrics["process.minor_faults"] = (faults / plain.attempted, "count")
        timed = set(run.timed_ops)
        metrics["trace.spans_per_op"] = (sum(1 for s in tracer.spans if s[2] in timed) / len(timed), "count")
        out = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(out)
        self.info["trace_file"] = str(out.relative_to(ROOT))
        self.info["samples"] = {k: len(r.times) for k, r in phases.items()}
        self.info["op_ref_ms_p50"] = ref_p50
        self.info["wall_ms_p50"] = {k: statistics.median(r.times) * 1e3 for k, r in phases.items()}
        self.info["probe_ms_median"] = {k: statistics.median(r.probes) * 1e3 for k, r in phases.items()}
        return run, metrics, {}


def run_workload(args, names):
    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        bench = Bench(args, work)
        run, metrics, named = bench.traced() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = machine_metadata(args)
    meta.update(bench.info)
    meta["attempted"], meta["failed"] = run.attempted, run.failed
    problems = run.problems + bench.problems
    for problem in problems:
        print(f"FAIL {problem}")
    for name, (value, unit) in {**named, **metrics}.items():
        extra = meta.get("tails", {}).get(name)
        note = f"  (p{extra['percentile']} of {extra['samples']} samples)" if extra else ""
        print(f"{args.workload:14s} {name:34s} {value:14.6f} {unit}{note}")
    print("meta " + json.dumps(meta, sort_keys=True))

    missing = [n for n, _ in names if n not in metrics]
    wrong_unit = [n for n, u in names if n in metrics and metrics[n][1] != u]
    if missing or wrong_unit:
        raise SystemExit(f"perfbench: metrics missing {missing}, wrong unit {wrong_unit}")
    result = {
        "correct": run.failed == 0 and not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": u} for n, u in names},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {workload} exited {proc.returncode}")
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None):
    with open(ROOT / "BENCHMARK.json", "r", encoding="ascii") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_program()
    if args.workload == "all":
        return run_all(args)
    key = "per_layer" if args.trace else "end_to_end"
    names = [(m["name"], m["unit"]) for m in spec[key]]
    return run_workload(args, names)


if __name__ == "__main__":
    sys.exit(main())
