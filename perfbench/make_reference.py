"""Write the stored references that perfbench/run.py checks outputs against.

    python3 perfbench/make_reference.py --workload train-color --seeds 0-15
    python3 perfbench/make_reference.py --workload apply --seeds 0-15

Train references hold the loss row of each of the first TRAIN_STEPS steps
per seed; apply references hold a fingerprint (SHA-256 and 8x8 block sums)
of every distinct request's output per seed. Tolerances are written beside
them; perfbench/tolerance.py measures what they must absorb. Seeds already
in the file are kept unless regenerated. Run this only on a commit whose
outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run  # pins BLAS threads before numpy loads

# Loss rows, measured with tolerance.py on seed 0: one-ulp noise on every
# conv/deconv output and gradient (the size of a summation-order change)
# moves them by at most 3.4e-14 (train-color) and 9.6e-11 (train-spatial)
# relative within 32 steps, but by 2.8e-3 by step 64, as adversarial
# training amplifies it; wrong kernels move them by at least 1.6e-4 from
# step 1. So 32 steps are stored and compared at a relative tolerance
# between the two.
TRAIN_STEPS = 32
TRAIN_RTOL = 1e-7
# Output images in 0-255 levels: one-ulp noise leaves them bit-identical and
# instance_norm with a wrong eps moves a block mean by 0.375 levels. The
# tolerance admits one single-level pixel flip per 64-pixel block.
APPLY_TOLERANCE_LEVELS = 0.02


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seeds", required=True, help="inclusive range such as 0-9")
    args = parser.parse_args(argv)
    run._import_program()
    import workloads

    path = workloads.REFERENCE_DIR / f"{args.workload}.json"
    seeds = workloads.load_reference(args.workload)["seeds"] if path.exists() else {}
    if args.workload == "apply":
        ref = {"tolerance_levels": APPLY_TOLERANCE_LEVELS, "seeds": seeds}
    else:
        ref = {"rtol": TRAIN_RTOL, "seeds": seeds}
    work = run.ROOT / ".perfbench" / f"reference-{args.workload}"
    for seed in parse_seeds(args.seeds):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        if args.workload == "apply":
            setup = workloads.apply_setup(work, seed)
            entry = {}
            for key, (fp, problem) in workloads.run_each_request(setup).items():
                if problem:
                    raise SystemExit(f"seed {seed}: {problem}")
                entry[f"{key[0]}{key[1]}"] = fp
        else:
            setup = workloads.train_setup(work, seed, args.workload == "train-spatial")
            result = workloads.train_loop(setup, seed, 0.0, steps=TRAIN_STEPS)
            if result.failed:
                raise SystemExit(f"seed {seed}: {result.problems}")
            entry = result.history
        seeds[str(seed)] = entry
        print(f"{args.workload} seed {seed} done", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(ref, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
