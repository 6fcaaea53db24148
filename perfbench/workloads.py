"""The three benchmark workloads, driven through fatkit's public functions.

Each workload is a closed loop with one client: an operation starts when
the previous one returns. `train-color` and `train-spatial` time one
`train_step` (discriminator plus generator update) on a synthetic corpus;
`apply` times rounds of in-process `fatkit.cli.main` requests (`transfer`,
`transfer --highres`, `pgt`) in a seeded order. Inputs come only from the
workload seed. Every operation's output is checked; a failed check counts
the operation as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fatkit import cli, data, gan

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

SIZE = 64
LR = 2e-4
WARP_LABELS = (2, 3)  # eyebrows
CORPUS_SAMPLES = 16  # 8 plain/makeup training pairs
TRAIN_WARMUP = 2
APPLY_PAIRS = 3
FRAME_PX = 256
FACE_PX = 192  # face box inside each high-resolution frame
FINGERPRINT_BLOCKS = 8  # outputs are compared as 8x8 grids of block sums
MIN_SAMPLES = 20  # timed operations per run, whatever --seconds says
LOSS_COLUMNS = ("J_D", "J_G", "adv", "cyc", "per", "make")
PROBE_REF_MS = 5.0  # probe time of the reference machine that ref-ms are quoted in
PROBE_WINDOW = 2  # an operation is scaled by the median probe within this many neighbours


class SpeedProbe:
    """A fixed slice of numpy and Python work that times the machine itself.

    A shared virtual machine runs the same code at a speed that changes from
    second to second with its neighbours' load (on a 2-vCPU Xeon VM at
    2.1 GHz: two levels about 40% apart). Timing this probe next to every
    operation measures that factor; an operation's wall time times
    PROBE_REF_MS over the probe time is its time on a machine where the probe
    takes PROBE_REF_MS. The mix (a BLAS product of a conv layer's shape,
    elementwise passes, an interpreter loop) follows fatkit's profile.

    The probe shares no code with fatkit and writes only into arrays made
    here, so it allocates no array and takes no page fault however fatkit
    leaves the allocator. What fatkit can still move is the cache state the
    probe meets; a speed claim shows that `probe_ms_median` in `meta` did
    not move between parent and change.
    """

    def __init__(self):
        rng = np.random.default_rng(0x9B0BE)
        self.a = rng.standard_normal((64, 576))
        self.b = rng.standard_normal((576, 1024))
        self.c = rng.standard_normal((64, 1024))
        self.d = np.empty((64, 1024))
        self.e = np.empty((64, 1024))

    def __call__(self):
        d, e = self.d, self.e
        t0 = time.perf_counter()
        for _ in range(2):
            np.matmul(self.a, self.b, out=d)
            np.maximum(d, 0.0, out=e)
            e *= self.c
            e += d
            e.sum()
        acc = 0
        for i in range(10000):
            acc += i * i
        return time.perf_counter() - t0


def ref_times(times, probes):
    """Each wall time scaled to the reference machine (see SpeedProbe)."""
    out = []
    for i, t in enumerate(times):
        near = probes[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW + 1]
        out.append(t * PROBE_REF_MS * 1e-3 / float(np.median(near)))
    return out


@dataclass
class Run:
    """What one phase of a workload measured and checked."""

    times: list = field(default_factory=list)  # seconds per timed operation
    probes: list = field(default_factory=list)  # SpeedProbe seconds per timed operation
    kinds: list = field(default_factory=list)  # request kind per timed round part
    kind_times: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    history: list = field(default_factory=list)  # loss rows (train) or output digests (apply)
    timed_ops: list = field(default_factory=list)  # operation ids of the timed operations

    def fail(self, message):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)


def load_reference(workload):
    path = REFERENCE_DIR / f"{workload}.json"
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def _set_operation(tracer, op):
    if tracer is not None:
        tracer.operation = op


# -- training workloads ---------------------------------------------------------


@dataclass
class TrainSetup:
    state: object
    pairs: list


def train_setup(work: Path, seed: int, spatial: bool) -> TrainSetup:
    """Corpus synthesis, loading, fresh state and pair preparation."""
    corpus = work / "corpus"
    manifest = data.make_corpus(str(corpus), count=CORPUS_SAMPLES, size=SIZE, seed=seed)
    plain, makeup = [], []
    for _, group, image, _, _ in data.read_manifest(manifest):
        sample = data.load_sample(str(corpus / image))
        (plain if group == "plain" else makeup).append(sample)
    config = gan.GeneratorConfig(size=SIZE, spatial=spatial, warp_labels=WARP_LABELS)
    state = gan.init_train_state(config, seed=seed)
    labels = WARP_LABELS if spatial else ()
    pairs = [gan.prepare_pair(x, y, state.percep, spatial_labels=labels) for x, y in zip(plain, makeup)]
    return TrainSetup(state, pairs)


def _pair_order(seed, count):
    """Pairs without replacement per epoch, as `fit` draws them."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0DE5]))
    while True:
        yield from rng.permutation(count)


def train_loop(setup: TrainSetup, seed: int, seconds: float, steps=None, tracer=None) -> Run:
    """Warm-up steps, then timed steps until `seconds` pass (or `steps` run).

    Each step's loss row is kept for the reference check; a step that
    raises counts as failed.
    """
    state = gan.init_train_state(setup.state.config, seed=seed)
    weights = gan.LossWeights()
    order = _pair_order(seed, len(setup.pairs))
    probe = SpeedProbe()
    run = Run()
    start = None
    for i in range(steps if steps is not None else 1 << 30):
        if steps is None and len(run.times) >= MIN_SAMPLES and time.perf_counter() - start >= seconds:
            break
        if i == TRAIN_WARMUP:
            start = time.perf_counter()
        pair = setup.pairs[next(order)]
        if i >= TRAIN_WARMUP:
            run.probes.append(probe())
        _set_operation(tracer, i)
        run.attempted += 1
        t0 = time.perf_counter()
        try:
            row = gan.train_step(state, pair, weights, LR)
        except (ArithmeticError, ValueError) as exc:
            row = None
            run.fail(f"step {i + 1}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        _set_operation(tracer, "check")
        if i >= TRAIN_WARMUP:
            run.times.append(t1 - t0)
            run.timed_ops.append(i)
        run.history.append(None if row is None else [row[c] for c in LOSS_COLUMNS])
    return run


def check_losses(run: Run, reference, seed: int):
    """Compare each step's loss row with the stored trace for this seed.

    Returns the number of reference steps compared; rows without a stored
    counterpart are only required to be finite. Mismatching rows count their
    step as failed.
    """
    rows = reference["seeds"].get(str(seed))
    rtol = reference["rtol"]
    compared = 0
    for i, row in enumerate(run.history):
        if row is None:
            continue
        got = np.asarray(row)
        if not np.all(np.isfinite(got)):
            run.fail(f"step {i + 1}: non-finite loss {row}")
            continue
        if rows is None or i >= len(rows):
            continue
        compared += 1
        want = np.asarray(rows[i])
        if not np.allclose(got, want, rtol=rtol, atol=0.0):
            worst = float(np.max(np.abs(got - want) / (rtol * np.abs(want))))
            run.fail(f"step {i + 1}: losses {row} differ from reference {rows[i]} ({worst:.3g}x tolerance)")
    return compared


# -- apply workload ----------------------------------------------------------------


@dataclass
class ApplySetup:
    requests: dict  # (kind, pair index) -> (argv, output path)
    work: Path

    def input_digest(self):
        """SHA-256 over every input file's name and bytes."""
        h = hashlib.sha256()
        for path in sorted(self.work.iterdir()):
            if not path.name.endswith("_out.ppm"):
                h.update(path.name.encode())
                h.update(path.read_bytes())
        return h.hexdigest()


def _frame(seed: int, index: int, work: Path):
    """A FACE_PX face on a plain background in a FRAME_PX frame, plus the
    same face at working size as the transfer source."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF4A3, index]))
    params = data.random_face_params(rng, "plain", seed=int(rng.integers(0, 2**31 - 1)))
    face = data.synth_face(params, FACE_PX)
    small = data.synth_face(params, SIZE)
    data.save_sample(str(work), f"frame{index}_src", small)
    frame = np.empty((3, FRAME_PX, FRAME_PX))
    frame[:] = rng.uniform(0.2, 0.8, size=(3, 1, 1))
    x0, y0 = (int(v) for v in rng.integers(0, FRAME_PX - FACE_PX + 1, size=2))
    frame[:, y0 : y0 + FACE_PX, x0 : x0 + FACE_PX] = face.image
    path = work / f"frame{index}.ppm"
    data.write_ppm(str(path), frame)
    return path, work / f"frame{index}_src.ppm", f"{x0},{y0},{FACE_PX},{FACE_PX}"


def apply_setup(work: Path, seed: int) -> ApplySetup:
    """Held-out corpus, high-resolution frames and an untrained checkpoint."""
    corpus_seed = int(np.random.SeedSequence([seed, 0x4E1D]).generate_state(1)[0])
    manifest = data.make_corpus(str(work), count=2 * APPLY_PAIRS, size=SIZE, seed=corpus_seed)
    rows = data.read_manifest(manifest)
    plain = [str(work / r[2]) for r in rows if r[1] == "plain"]
    makeup = [str(work / r[2]) for r in rows if r[1] == "makeup"]

    config = gan.GeneratorConfig(size=SIZE)
    model = str(work / "model.fatw")
    gan.save_state(model, gan.init_train_state(config, seed=seed))
    with open(model + ".cfg", "w", encoding="ascii") as fh:
        fh.write(gan.config_text({
            "size": config.size, "base_width": config.base_width, "heads": config.heads,
            "spatial": config.spatial, "warp_labels": "eyebrows",
        }))

    requests = {}
    for i in range(APPLY_PAIRS):
        frame, frame_src, box = _frame(seed, i, work)
        out = str(work / f"transfer{i}_out.ppm")
        requests[("transfer", i)] = (
            ["transfer", "--model", model, "--source", plain[i], "--ref", makeup[i], "--out", out], out)
        out = str(work / f"highres{i}_out.ppm")
        requests[("highres", i)] = (
            ["transfer", "--model", model, "--source", str(frame_src), "--ref", makeup[i],
             "--highres", str(frame), "--box", box, "--out", out], out)
        out = str(work / f"pgt{i}_out.ppm")
        requests[("pgt", i)] = (
            ["pgt", "--source", plain[i], "--ref", makeup[i], "--mode", "tps",
             "--spatial-part", "eyebrows", "--out", out], out)
    return ApplySetup(requests, work)


KINDS = ("transfer", "highres", "pgt")


def request_order(seed: int):
    """Rounds of one request of each kind, kinds shuffled, pair drawn per round."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA991]))
    while True:
        pair = int(rng.integers(APPLY_PAIRS))
        yield [(KINDS[k], pair) for k in rng.permutation(len(KINDS))]


def call_cli(argv):
    """One in-process `fatkit` request: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def fingerprint(path):
    """SHA-256 of the file plus 8x8 block sums of the parsed image in 0-255 levels."""
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    img = np.rint(data.read_ppm(path) * 255.0)
    c, h, w = img.shape
    b = FINGERPRINT_BLOCKS
    if h % b or w % b:
        raise ValueError(f"{path}: extent {h}x{w} not divisible into {b}x{b} blocks")
    blocks = img.reshape(c, b, h // b, b, w // b).sum(axis=(2, 4))
    return {"sha256": digest, "shape": [c, h, w], "block_sums": [int(v) for v in blocks.ravel()]}


def check_output(key, fp, reference, seed):
    """Problem text if the output misses its stored reference, else None.

    The tolerance bounds the change of each block's mean level. Seeds
    without a stored reference pass; `run.py` then checks the program on a
    documented seed as well.
    """
    rows = reference["seeds"].get(str(seed))
    if rows is None:
        return None
    want = rows[f"{key[0]}{key[1]}"]
    if fp["shape"] != want["shape"]:
        return f"{key}: shape {fp['shape']} differs from reference {want['shape']}"
    c, h, w = fp["shape"]
    per_block = (h // FINGERPRINT_BLOCKS) * (w // FINGERPRINT_BLOCKS)
    diff = np.max(np.abs(np.asarray(fp["block_sums"]) - np.asarray(want["block_sums"]))) / per_block
    if diff > reference["tolerance_levels"]:
        return f"{key}: a block mean differs from reference by {diff:.4f} levels"
    return None


def run_request(setup: ApplySetup, key):
    """Time one request: (seconds, problem text or None)."""
    argv, out = setup.requests[key]
    t0 = time.perf_counter()
    try:
        code, stdout, stderr = call_cli(argv)
    except Exception as exc:  # an uncaught error is a failed request
        code, stdout, stderr = None, "", f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if code != 0:
        return elapsed, f"{key}: exit {code}: {stderr.strip()}"
    if stdout != out + "\n":
        return elapsed, f"{key}: printed {stdout!r}"
    return elapsed, None


def read_output(setup: ApplySetup, key):
    """(fingerprint, None) of a request's output, or (None, problem text)."""
    try:
        return fingerprint(setup.requests[key][1]), None
    except (OSError, ValueError) as exc:
        return None, f"{key}: output does not parse: {exc}"


def apply_loop(setup: ApplySetup, seed: int, seconds: float, reference, rounds=None, tracer=None) -> Run:
    """A warm-up round, then timed rounds until `seconds` pass (or `rounds` run).

    Each request must exit 0, print its output path, write a PPM that
    `read_ppm` parses, match the stored reference for this seed, and repeat
    the bytes of every earlier request with the same arguments.
    """
    order = request_order(seed)
    probe = SpeedProbe()
    run = Run()
    first_digest = {}
    start = None
    op = 0
    for r in range(rounds if rounds is not None else 1 << 30):
        if rounds is None and len(run.times) >= MIN_SAMPLES and time.perf_counter() - start >= seconds:
            break
        timed = r >= 1
        if timed and start is None:
            start = time.perf_counter()
        round_time = 0.0
        round_probe = 0.0
        for key in next(order):
            if timed:
                round_probe += probe()
            _set_operation(tracer, op)
            elapsed, problem = run_request(setup, key)
            _set_operation(tracer, "check")
            run.attempted += 1
            fp = None
            if problem is None:
                fp, problem = read_output(setup, key)
            if fp is not None:
                if first_digest.setdefault(key, fp["sha256"]) != fp["sha256"]:
                    problem = f"{key}: output bytes changed between identical requests"
                else:
                    problem = check_output(key, fp, reference, seed)
                run.history.append((key, fp["sha256"]))
            if problem:
                run.fail(problem)
            if timed:
                run.kinds.append(key[0])
                run.kind_times.append(elapsed)
                run.timed_ops.append(op)
            round_time += elapsed
            op += 1
        if timed:
            run.times.append(round_time)
            run.probes.append(round_probe / len(KINDS))
    return run


def run_each_request(setup: ApplySetup):
    """Run each distinct request once: {key: (fingerprint, problem text)},
    one of the two None."""
    results = {}
    for key in sorted(setup.requests):
        _, problem = run_request(setup, key)
        results[key] = (None, problem) if problem else read_output(setup, key)
    return results


def apply_fallback(setup: ApplySetup, reference, seed):
    """Run each distinct request once and check it against the reference."""
    problems = [problem or check_output(key, fp, reference, seed)
                for key, (fp, problem) in run_each_request(setup).items()]
    return [p for p in problems if p]
