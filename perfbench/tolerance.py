"""Measure what the reference tolerances must absorb and what they must catch.

    python3 perfbench/tolerance.py --workload train-color --seed 0 --steps 64
    python3 perfbench/tolerance.py --workload apply --seed 0

Runs a workload unchanged, then under three perturbations of the tensor
kernels, patched in from outside like the tracer's wrappers:

- `ulp`: every conv2d/deconv2d output, and every gradient (gx, gw, gb)
  their backward returns, moves by one ulp in a seeded random direction.
  This is the size of change a different summation order leaves, in the
  forward and backward sums of a rewritten im2col or in the gradient
  accumulation of encoding each image once, and must stay within
  tolerance.
- `conv-grad`: each conv2d weight-gradient entry is off by +-1%, a
  direction error that Adam's per-parameter scaling does not hide. Must
  be caught.
- `norm-eps`: instance_norm uses eps 1e-3 instead of 1e-5. Must be caught.

For train workloads it prints the largest relative loss deviation and, per
perturbation, the first step whose row misses the stored tolerance; for
apply it prints the largest change of an 8x8-block mean, in 0-255 levels.
"""

from __future__ import annotations

import argparse
import contextlib
import shutil
import sys

import run  # pins BLAS threads before numpy loads


@contextlib.contextmanager
def patched(name, make):
    """Replace fatkit.tensor.<name> wherever a fatkit module holds it."""
    import fatkit.tensor
    from spans import MODULES

    original = getattr(fatkit.tensor, name)
    replacement = make(original)
    sites = [(m, a) for m in MODULES for a, v in vars(m).items() if v is original]
    for module, attr in sites:
        setattr(module, attr, replacement)
    try:
        yield
    finally:
        for module, attr in sites:
            setattr(module, attr, original)


def ulp_noise(original):
    import numpy as np

    rng = np.random.default_rng(1234)

    def nudge(a):
        up = rng.random(a.shape) < 0.5
        return np.where(up, np.nextafter(a, np.inf), np.nextafter(a, -np.inf))

    def op(*args, **kwargs):
        out = original(*args, **kwargs)
        out.data[...] = nudge(out.data)
        back = out._backward
        if back is not None:
            out._backward = lambda g: tuple(nudge(v) for v in back(g))
        return out

    return op


def conv_grad_error(original):
    import numpy as np

    rng = np.random.default_rng(4321)

    def op(*args, **kwargs):
        out = original(*args, **kwargs)
        back = out._backward
        if back is not None:
            def skewed(g):
                gx, gw, gb = back(g)
                return gx, gw * (1.0 + 0.01 * rng.choice((-1.0, 1.0), size=gw.shape)), gb
            out._backward = skewed
        return out

    return op


def norm_eps(original):
    def op(x, eps=1e-5):
        return original(x, eps=1e-3)

    return op


PERTURBATIONS = {
    "ulp": [("conv2d", ulp_noise), ("deconv2d", ulp_noise)],
    "conv-grad": [("conv2d", conv_grad_error)],
    "norm-eps": [("instance_norm", norm_eps)],
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--steps", type=int, default=64)
    args = parser.parse_args(argv)
    run._import_program()
    import numpy as np

    import workloads

    reference = workloads.load_reference(args.workload)
    work = run.ROOT / ".perfbench" / f"tolerance-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "apply":
            setup = workloads.apply_setup(work, args.seed)

            def outputs():
                results = workloads.run_each_request(setup)
                problems = [problem for _, problem in results.values() if problem]
                if problems:
                    raise SystemExit(f"seed {args.seed}: {problems[0]}")
                return {key: fp for key, (fp, _) in results.items()}

            base = outputs()
        else:
            setup = workloads.train_setup(work, args.seed, args.workload == "train-spatial")

            def outputs():
                return workloads.train_loop(setup, args.seed, 0.0, steps=args.steps)

            base = outputs()
            base_rows = np.asarray(base.history)
        for label, patches in PERTURBATIONS.items():
            with contextlib.ExitStack() as stack:
                for name, make in patches:
                    stack.enter_context(patched(name, make))
                got = outputs()
            if args.workload == "apply":
                worst = 0.0
                for key, fp in got.items():
                    c, h, w = fp["shape"]
                    per_block = (h // workloads.FINGERPRINT_BLOCKS) * (w // workloads.FINGERPRINT_BLOCKS)
                    diff = np.abs(np.asarray(fp["block_sums"]) - np.asarray(base[key]["block_sums"]))
                    worst = max(worst, float(diff.max()) / per_block)
                print(f"{args.workload} {label}: largest block-mean change {worst:.4f} levels "
                      f"(tolerance {reference['tolerance_levels']})")
            else:
                rows = np.asarray([r if r is not None else [np.nan] * 6 for r in got.history])
                rel = np.abs(rows - base_rows) / np.maximum(np.abs(base_rows), 1e-300)
                per_step = np.nanmax(rel, axis=1)
                bad = ~np.isclose(rows, base_rows, rtol=reference["rtol"], atol=0.0).all(axis=1)
                first = int(np.argmax(bad)) + 1 if bad.any() else None
                curve = ", ".join(f"step {k}: {np.nanmax(per_step[:k]):.2g}"
                                  for k in (1, 2, 4, 8, 16, 32, 48, 64, 96) if k <= len(per_step))
                print(f"{args.workload} {label}: largest relative loss deviation up to {curve}; "
                      f"first step outside rtol={reference['rtol']}: {first}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
