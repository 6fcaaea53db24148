"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each criterion prints a single PASS/FAIL line (run with -s to see them
live). The training-based criteria share one module-scoped run so the
10-minute budget is paid once.
"""

import contextlib
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import brow_shape, brow_shape_pair, check_grads, leaf
from fatkit.attention import (
    FatParams,
    fat_forward,
    landmark_embedding,
    multi_head,
    static_attention,
    transfer_attributes,
)
from fatkit.data import make_corpus, load_sample, random_face_params, read_manifest, synth_face
from fatkit.gan import (
    GeneratorConfig,
    LossWeights,
    encode,
    fit,
    generator_forward,
    history_csv,
    init_train_state,
    loss_discriminators,
    loss_generator,
    prepare_pair,
)
from fatkit.tensor import Tensor
from fatkit.pseudo_gt import color_pgt, spatial_pgt
from fatkit.pyramid import bilinear_resize, crop_and_resize, pyramid_reconstruct
from fatkit.spatial import SpatialFatParams, spatial_fat_forward
from fatkit.tps import (
    DegenerateGeometryError,
    identity_grid,
    min_shift,
    tps_apply,
    tps_grid,
    tps_solve,
)


@contextlib.contextmanager
def criterion(number, title, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {title}")
        raise
    elapsed = time.monotonic() - start
    if elapsed > budget_s:
        print(f"[criterion {number:2d}] FAIL  {title} (runtime {elapsed:.1f}s over {budget_s}s budget)")
        raise AssertionError(f"criterion {number} exceeded its {budget_s}s runtime budget: {elapsed:.1f}s")
    print(f"[criterion {number:2d}] PASS  {title} ({elapsed:.1f}s)")


def solvable_points(rng, k):
    while True:
        pts = rng.uniform(-0.9, 0.9, size=(k, 2))
        try:
            tps_solve(pts, pts)
            return pts
        except DegenerateGeometryError:
            continue


# -- criterion 1: TPS correctness ---------------------------------------------------


def test_criterion_1_tps_suite():
    with criterion(1, "TPS solve: interpolation, boundary, identity, affine", budget_s=5.0):
        rng = np.random.default_rng(1001)
        for trial in range(100):
            k = int(rng.integers(4, 33))
            src = solvable_points(rng, k)
            dst = rng.uniform(-0.9, 0.9, size=(k, 2))
            t = tps_solve(src, dst)
            assert np.max(np.linalg.norm(tps_apply(t, src) - dst, axis=1)) <= 1e-6
            u, v = t.kernel_weights
            for residual in (u.sum(), v.sum(), u @ src[:, 0], v @ src[:, 1]):
                assert abs(residual) <= 1e-8
            ident = tps_solve(src, src)
            assert np.max(np.abs(tps_grid(ident, 8, 8) - identity_grid(8, 8))) <= 1e-9
            aff = rng.uniform(-0.1, 0.1, size=(2, 2)) + np.eye(2)
            offset = rng.uniform(-0.05, 0.05, size=2)
            t_aff = tps_solve(src, src @ aff.T + offset)
            assert np.max(np.abs(t_aff.kernel_weights)) <= 1e-7


# -- criterion 2: gradient suite ------------------------------------------------------


def test_criterion_2_gradient_suite():
    from fatkit.tensor import (
        avg_pool2d, concat, conv2d, deconv2d, grid_sample, instance_norm, l1_loss,
        linear_solve, matmul, mse_loss, pairwise_sqdist, relu, softmax, softplus,
        tanh, transpose, xlogx,
    )

    with criterion(2, "finite-difference checks for every differentiable op and both full passes", budget_s=60.0):
        for trial in range(5):
            r = np.random.default_rng(2000 + trial)

            def t(*shape, scale=1.0):
                return leaf(r, *shape, scale=scale)

            def probe(*shape):
                return Tensor(r.normal(size=shape))

            p34 = probe(3, 4)
            check_grads(lambda a, b: matmul(a, b).sum(), [t(3, 5), t(5, 4)])
            p = probe(2, 3, 3)
            check_grads(lambda a, b: (matmul(a, b) * p).sum(), [t(2, 3, 4), t(2, 4, 3)])
            p = probe(2, 3, 3)
            check_grads(lambda x, w, b: (conv2d(x, w, b, stride=2) * p).sum(),
                        [t(1, 5, 5), t(2, 1, 3, 3), t(2)])
            p = probe(1, 8, 8)
            check_grads(lambda x, w, b: (deconv2d(x, w, b, stride=2) * p).sum(),
                        [t(2, 4, 4), t(2, 1, 3, 3), t(1)])
            p = probe(2, 4, 4)
            check_grads(lambda x: (instance_norm(x) * p).sum(), [t(2, 4, 4)])
            check_grads(lambda x: (softmax(x, axis=1) * p34).sum(), [t(3, 4)])
            check_grads(lambda x: (tanh(x) * p34).sum(), [t(3, 4)])
            check_grads(lambda x: (softplus(x) * p34).sum(), [t(3, 4)])
            check_grads(lambda x: (relu(x + 0.4) * p34).sum(), [t(3, 4, scale=0.3)])
            p = probe(2, 2, 2)
            check_grads(lambda x: (avg_pool2d(x, 2) * p).sum(), [t(2, 4, 4)])
            check_grads(lambda a, b: mse_loss(a, b), [t(3, 4), t(3, 4)])
            check_grads(lambda a, b: l1_loss(a, b), [t(3, 4), t(3, 4)])
            p = probe(3, 9)
            check_grads(lambda a, b: (concat([a, b], axis=1) * p).sum(), [t(3, 4), t(3, 5)])
            p = probe(4, 3)
            check_grads(lambda x: (transpose(x) * p).sum(), [t(3, 4)])
            p = probe(2, 2)
            check_grads(lambda x: (x[1:, :2] * p).sum(), [t(3, 4)])
            check_grads(lambda x: (xlogx(x) * p34).sum(),
                        [Tensor(r.uniform(0.5, 1.5, size=(3, 4)), requires_grad=True)])
            p = probe(4, 3)
            check_grads(lambda a, b: (pairwise_sqdist(a, b) * p).sum(), [t(4, 2), t(3, 2)])
            a_mat = Tensor(r.normal(size=(4, 4)) + 4.0 * np.eye(4), requires_grad=True)
            p = probe(4, 2)
            check_grads(lambda a, b: (linear_solve(a, b) * p).sum(), [a_mat, t(4, 2)])
            gx = leaf(r, 1, 6, 6)
            grid = Tensor(identity_grid(6, 6) + r.uniform(-0.4, 0.4, size=(6, 6, 2)) / 6.0,
                          requires_grad=True)
            p = probe(1, 6, 6)
            check_grads(lambda x, g: (grid_sample(x, g) * p).sum(), [gx, grid])

            # end-to-end: plain and spatial attribute-transfer passes
            d, n = 3, 2
            le_x = landmark_embedding(4, 4, r.uniform(0.2, 0.8, size=(n, 2)))
            le_y = landmark_embedding(4, 4, r.uniform(0.2, 0.8, size=(n, 2)))
            fat = FatParams(d=d, heads=2, n_landmarks=n, rng=r, estimator="random")
            xm = leaf(r, d, 4, 4)
            ym = leaf(r, d, 4, 4)
            p = probe(d, 4, 4)
            check_grads(
                lambda a, b, *_: (fat_forward(a, b, le_x, le_y, fat) * p).sum(),
                [xm, ym] + fat.parameters(),
            )
            spatial = SpatialFatParams(d=d, heads=2, n_landmarks=n, rng=r, grid_size=4,
                                       estimator="random", ctrl_init="random")
            mask = np.full((4, 4), 2, dtype=np.uint8)
            xs = leaf(r, d, 4, 4)
            ys = leaf(r, d, 4, 4)
            p = probe(d, 4, 4)

            def spatial_loss(a, b, *_):
                out, solved = spatial_fat_forward(a, b, le_x, le_y, mask, spatial)
                assert solved
                return (out * p).sum()

            check_grads(spatial_loss, [xs, ys] + spatial.parameters())


# -- criterion 3: attention invariants --------------------------------------------------


def test_criterion_3_attention_invariants():
    with criterion(3, "row-stochasticity, permutation equivariance, convex hull", budget_s=5.0):
        rng = np.random.default_rng(3001)
        for _ in range(100):
            m, mp, d, n = 6, 7, 4, 3
            params = FatParams(d=d, heads=2, n_landmarks=n, rng=rng, estimator="random")
            xf = Tensor(rng.normal(size=(m, d)))
            yf = Tensor(rng.normal(size=(mp, d)))
            le_x = rng.normal(size=(m, 2 * n))
            le_y = rng.normal(size=(mp, 2 * n))
            attn = multi_head(xf, yf, le_x, le_y, params)
            stat = static_attention(xf, yf, Tensor(le_x), Tensor(le_y))
            assert np.max(np.abs(attn.data.sum(axis=1) - 1.0)) <= 1e-9
            assert np.max(np.abs(stat.data.sum(axis=1) - 1.0)) <= 1e-9
            gamma = Tensor(rng.normal(size=(mp, 2 * d)))
            moved = transfer_attributes(attn, gamma).data
            perm = rng.permutation(mp)
            moved_p = transfer_attributes(
                multi_head(xf, Tensor(yf.data[perm]), le_x, le_y[perm], params),
                Tensor(gamma.data[perm]),
            ).data
            assert np.max(np.abs(moved - moved_p)) <= 1e-9
            lo = gamma.data.min(axis=0) - 1e-12
            hi = gamma.data.max(axis=0) + 1e-12
            assert np.all(moved >= lo) and np.all(moved <= hi)


# -- criterion 4: min-shift optimality ----------------------------------------------------


def test_criterion_4_min_shift_optimality():
    with criterion(4, "analytic shift beats a 41x41 brute-force grid", budget_s=2.0):
        rng = np.random.default_rng(4001)
        offsets = np.linspace(-1.0, 1.0, 41)
        grid = np.stack(np.meshgrid(offsets, offsets, indexing="ij"), axis=-1).reshape(-1, 2)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            p = rng.normal(size=(n, 2))
            q = rng.normal(size=(n, 2))
            shift = min_shift(p, q)
            best = np.sum((p - (q - shift)) ** 2)
            candidates = shift + grid
            costs = np.sum(
                (p[None] - (q[None] - candidates[:, None, :])) ** 2, axis=(1, 2)
            )
            assert best <= costs.min() + 1e-12


# -- criterion 5: pyramid reconstruction ---------------------------------------------------


def test_criterion_5_pyramid():
    with criterion(5, "identity recovery and linearity of detail reconstruction", budget_s=2.0):
        rng = np.random.default_rng(5001)
        for _ in range(10):
            hi = int(rng.integers(24, 64))
            lo = int(rng.integers(8, hi // 2 + 1))
            frame = rng.uniform(size=(3, hi, hi))
            pair = crop_and_resize(frame, (0, 0, hi, hi), low_size=lo)
            recon = pyramid_reconstruct(pair, pair.low, clamp=False)
            assert np.max(np.abs(recon - pair.orig)) <= 1e-6
            z1 = rng.uniform(size=(3, lo, lo))
            z2 = rng.uniform(size=(3, lo, lo))
            delta = pyramid_reconstruct(pair, z1 + z2, clamp=False) - pyramid_reconstruct(
                pair, z1, clamp=False
            )
            assert np.max(np.abs(delta - bilinear_resize(z2, hi, hi))) <= 1e-9


# -- criterion 6: pseudo-GT oracles ---------------------------------------------------------


def test_criterion_6_pseudo_gt_oracles():
    with criterion(6, "self-pair identity, lip color agreement, brow shape transfer", budget_s=30.0):
        rng = np.random.default_rng(6001)
        sample = synth_face(random_face_params(rng, "makeup", seed=61), 64)
        self_gt = color_pgt(sample, sample)
        assert np.max(np.abs(self_gt.image - sample.image)) <= 1e-3

        for trial in range(5):
            r = np.random.default_rng(6100 + trial)
            src = synth_face(random_face_params(r, "plain", seed=6200 + trial), 64)
            ref = synth_face(random_face_params(r, "makeup", seed=6300 + trial), 64)
            gt = color_pgt(src, ref)
            got = gt.image[:, src.mask == 6].mean(axis=1)
            want = ref.image[:, ref.mask == 6].mean(axis=1)
            assert np.max(np.abs(got - want)) <= 0.05

        for trial in range(20):
            src, ref = brow_shape_pair(seed=6400 + trial)
            gt = spatial_pgt(color_pgt(src, ref), src, ref, 2)
            gt = spatial_pgt(gt, src, ref, 3)
            for label in (2, 3):
                sag_src, cen_src = brow_shape(src.image, src.mask, label)
                sag_ref, _ = brow_shape(ref.image, ref.mask, label)
                sag_out, cen_out = brow_shape(gt.image, src.mask, label)
                assert abs(sag_out - sag_ref) <= 0.2 * abs(sag_src - sag_ref)
                assert np.linalg.norm(cen_out - cen_src) <= 2.0


# -- criteria 7 and 8: toy training run -------------------------------------------------------


@pytest.fixture(scope="module")
def training_run(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("train_corpus")
    manifest = make_corpus(data_dir, count=400, size=64, seed=123)
    rows = read_manifest(manifest)
    import os

    plain = [load_sample(os.path.join(data_dir, r[2])) for r in rows if r[1] == "plain"]
    makeup = [load_sample(os.path.join(data_dir, r[2])) for r in rows if r[1] == "makeup"]
    config = GeneratorConfig(size=64, base_width=16, heads=2)

    def run():
        state = init_train_state(config, seed=42)
        pairs = [prepare_pair(x, y, state.percep) for x, y in zip(plain, makeup)]
        fit(state, pairs, LossWeights(), lr=2e-4, steps=300)
        return state

    start = time.monotonic()
    first = run()
    second = run()
    elapsed = time.monotonic() - start
    return {"config": config, "first": first, "second": second, "elapsed": elapsed}


def test_criterion_7_training_convergence_and_determinism(training_run):
    with criterion(7, "300-step run: makeup and cycle losses halve, bit-identical replay", budget_s=1.0):
        # the runtime budget applies to the two training runs themselves
        assert training_run["elapsed"] <= 600.0, (
            f"two 300-step runs took {training_run['elapsed']:.0f}s, over the 10-minute budget"
        )
        history = training_run["first"].history
        assert len(history) == 300
        for key in ("J_D", "J_G", "adv", "cyc", "per", "make"):
            assert all(np.isfinite(row[key]) for row in history)
        for key in ("make", "cyc"):
            first10 = np.mean([row[key] for row in history[:10]])
            last10 = np.mean([row[key] for row in history[-10:]])
            assert last10 <= 0.5 * first10, f"{key}: {last10:.4f} vs half of {first10:.4f}"
        assert history_csv(history) == history_csv(training_run["second"].history)


def test_criterion_8_lip_fidelity(training_run):
    with criterion(8, "held-out lip regions land closer to the supervision than the source", budget_s=60.0):
        config = training_run["config"]
        state = training_run["first"]
        num, den = [], []
        for t in range(20):
            r = np.random.default_rng(10_000 + t)
            x = synth_face(random_face_params(r, "plain", seed=20_000 + t), 64)
            y = synth_face(random_face_params(r, "makeup", seed=30_000 + t), 64)
            pgt = color_pgt(x, y).image
            z = generator_forward(
                x.image, y.image, x.landmarks, y.landmarks, x.mask, state.gen, config
            ).data
            lips = x.mask == 6
            num.append(np.abs(z[:, lips] - pgt[:, lips]).mean())
            den.append(np.abs(x.image[:, lips] - pgt[:, lips]).mean())
        ratio = np.mean(num) / np.mean(den)
        assert ratio <= 0.7, f"lip-region ratio {ratio:.3f} exceeds 0.7"


# -- criterion 9: parallel attention beats the sequential baseline ------------------------------


def test_criterion_9_bench_parallel_advantage(tmp_path):
    with criterion(9, "batched attention is at least as fast as the sequential baseline", budget_s=120.0):
        result = subprocess.run(
            [sys.executable, "-m", "fatkit.cli", "bench", "--size", "64", "--heads", "2",
             "--iters", "100", "--csv", str(tmp_path / "bench.csv")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        values = dict(line.split("=") for line in result.stdout.strip().splitlines())
        assert float(values["fat_ms"]) <= float(values["sequential_ms"]), result.stdout


# -- criterion 10: identity initialization -------------------------------------------------------


def test_criterion_10_identity_init_equivalence():
    with criterion(10, "spatial branch at identity init matches the plain generator", budget_s=60.0):
        r = np.random.default_rng(77)
        x = synth_face(random_face_params(r, "plain", seed=710), 64)
        y = synth_face(random_face_params(r, "makeup", seed=720), 64)
        cfg_off = GeneratorConfig(size=64, base_width=16, heads=2, spatial=False)
        cfg_on = GeneratorConfig(size=64, base_width=16, heads=2, spatial=True)
        plain = init_train_state(cfg_off, seed=31337)
        spatial = init_train_state(cfg_on, seed=31337)
        args = (x.image, y.image, x.landmarks, y.landmarks, x.mask)
        z_off = generator_forward(*args, plain.gen, cfg_off)
        z_on = generator_forward(*args, spatial.gen, cfg_on)
        assert np.max(np.abs(z_on.data - z_off.data)) <= 1e-6

        losses = []
        for state, cfg, z in ((plain, cfg_off, z_off), (spatial, cfg_on, z_on)):
            pair = prepare_pair(x, y, state.percep)
            z_yx = generator_forward(
                y.image, x.image, y.landmarks, x.landmarks, y.mask, state.gen, cfg
            )
            j_d = loss_discriminators(
                Tensor(x.image), Tensor(y.image), z.detach(), z_yx.detach(),
                state.disc_x, state.disc_y,
            ).item()
            ex, ey = encode(x.image, state.gen), encode(y.image, state.gen)
            j_g, parts = loss_generator(
                pair, z, z_yx, ex, ey, state.gen, state.disc_x, state.disc_y, state.percep,
                LossWeights(), cfg,
            )
            losses.append((j_d, j_g.item(), parts))
        (jd0, jg0, p0), (jd1, jg1, p1) = losses
        assert abs(jd0 - jd1) <= 1e-6 and abs(jg0 - jg1) <= 1e-6
        for key in p0:
            assert abs(p0[key] - p1[key]) <= 1e-6
