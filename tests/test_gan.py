"""Generator/discriminator assembly, loss stack, and training loop."""

import functools
from itertools import islice

import numpy as np
import pytest

import fatkit.gan as gan
from fatkit.attention import FatReference
from fatkit.data import synth_face, random_face_params
from fatkit.gan import (
    SETTINGS,
    GeneratorConfig,
    LossWeights,
    NonFiniteLossError,
    bce_with_logits,
    config_text,
    configs_from_settings,
    encode,
    face_reference,
    fit,
    generator_forward,
    history_csv,
    init_train_state,
    load_generator,
    loss_discriminators,
    loss_generator,
    pair_order,
    prepare_pair,
    read_config,
    run_blocks,
    save_state,
    state_tensors,
    train_step,
    transfer_decode,
)
from fatkit.tensor import (
    FormatError,
    ParameterError,
    Tensor,
    adam_step,
    l1_loss,
    load_tensors,
    mse_loss,
    named_tensors,
    save_tensors,
    zero_grads,
)


# smallest extent that keeps every stride-2 stack above the 3x3 kernel minimum
SIZE = 48


def tiny_config(**kw):
    kw.setdefault("size", SIZE)
    kw.setdefault("base_width", 4)
    kw.setdefault("heads", 2)
    kw.setdefault("control_grid", 4)
    return GeneratorConfig(**kw)


def faces(seed_a=1, seed_b=2, size=SIZE):
    a = synth_face(random_face_params(np.random.default_rng(seed_a), "plain", seed=seed_a), size)
    b = synth_face(random_face_params(np.random.default_rng(seed_b), "makeup", seed=seed_b), size)
    return a, b


@pytest.fixture(scope="module")
def setup():
    cfg = tiny_config()
    state = init_train_state(cfg, seed=5)
    x, y = faces()
    pair = prepare_pair(x, y, state.percep)
    return cfg, state, pair


# -- configuration ------------------------------------------------------------------


def test_config_size_must_divide():
    for size in (30, 0, -8):
        with pytest.raises(ParameterError, match="positive multiple of 4"):
            GeneratorConfig(size=size)
    assert GeneratorConfig(size=4).bottleneck == 1


def test_spatial_config_control_grid_must_fit_bottleneck():
    # 48 px gives a 12x12 bottleneck: the default 8x8 lattice does not divide it
    with pytest.raises(ParameterError, match="control grid 8"):
        GeneratorConfig(size=48, spatial=True)
    GeneratorConfig(size=48, spatial=True, control_grid=4)
    GeneratorConfig(size=48, spatial=False)
    with pytest.raises(ParameterError, match="at least 2"):
        GeneratorConfig(size=4, spatial=True)


def test_settings_table_defaults_are_the_dataclass_defaults():
    config, weights = configs_from_settings(SETTINGS)
    assert config == GeneratorConfig()
    assert weights == LossWeights()


def test_weights_validation():
    with pytest.raises(ParameterError):
        LossWeights(adv=-1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError, match="finite and nonnegative"):
            LossWeights(cyc=bad)
    with pytest.raises(ParameterError):
        LossWeights(adv=0.0, cyc=0.0, per=0.0, make=0.0)


def test_read_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(config_text({"size": 32, "spatial": True, "lr": 0.0002, "warp_labels": "eyebrows"}))
    values = read_config(path)
    assert values == {"size": 32, "spatial": True, "lr": 2e-4, "warp_labels": "eyebrows"}


def test_parse_config_unknown_key_is_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("sizee = 32\n")
    with pytest.raises(FormatError, match="unknown configuration key"):
        read_config(path)
    path.write_text("spatial = maybe\n")
    with pytest.raises(FormatError):
        read_config(path)
    path.write_text("steps = 2.5\n")
    with pytest.raises(FormatError, match="bad value for steps"):
        read_config(path)


# -- forward passes -----------------------------------------------------------------


def test_generator_output_shape_and_range(setup):
    cfg, state, pair = setup
    z = generator_forward(
        pair.x.image, pair.y.image, pair.x.landmarks, pair.y.landmarks, pair.x.mask,
        state.gen, cfg,
    )
    assert z.shape == (3, SIZE, SIZE)
    assert z.data.min() >= 0.0 and z.data.max() <= 1.0


def test_generator_rejects_wrong_size(setup):
    cfg, state, pair = setup
    with pytest.raises(ParameterError):
        generator_forward(
            np.zeros((3, 8, 8)), pair.y.image, pair.x.landmarks, pair.y.landmarks,
            pair.x.mask, state.gen, cfg,
        )


def test_spatial_identity_init_matches_plain(setup):
    # same seed, spatial on/off: shared parameters are identical draws and the
    # warp starts at the identity, so step-0 outputs agree
    _, _, pair = setup
    cfg_off = tiny_config(spatial=False)
    cfg_on = tiny_config(spatial=True)
    plain = init_train_state(cfg_off, seed=9)
    spatial = init_train_state(cfg_on, seed=9)
    args = (pair.x.image, pair.y.image, pair.x.landmarks, pair.y.landmarks, pair.x.mask)
    z_off = generator_forward(*args, plain.gen, cfg_off)
    z_on = generator_forward(*args, spatial.gen, cfg_on)
    np.testing.assert_allclose(z_on.data, z_off.data, atol=1e-6)


def test_discriminator_patch_extent(setup):
    cfg, state, pair = setup
    logits = run_blocks(state.disc_x.blocks, pair.x.image)
    assert logits.shape == (1, SIZE // 16, SIZE // 16)
    assert np.all(np.isfinite(logits.data))
    again = run_blocks(state.disc_x.blocks, pair.x.image)
    assert np.array_equal(logits.data, again.data)


# -- losses -------------------------------------------------------------------------


def test_bce_limits():
    strong = Tensor(np.full((1, 2, 2), 50.0))
    assert bce_with_logits(strong, 1.0).item() < 1e-9
    assert bce_with_logits(-strong, 0.0).item() < 1e-9
    assert bce_with_logits(strong, 0.0).item() > 10.0


def test_chance_discriminator_anchor(setup):
    # all-zero logits: every of the four terms is exactly ln 2
    cfg, state, pair = setup
    for disc in (state.disc_x, state.disc_y):
        for block in disc.blocks:
            block.w.data[...] = 0.0
            if block.b is not None:
                block.b.data[...] = 0.0
    j_d = loss_discriminators(
        Tensor(pair.x.image), Tensor(pair.y.image),
        Tensor(pair.y.image), Tensor(pair.x.image),
        state.disc_x, state.disc_y,
    )
    assert abs(j_d.item() - 4.0 * np.log(2.0)) < 1e-12


def test_discriminator_loss_symmetry(setup):
    cfg, state, pair = setup
    x, y = Tensor(pair.x.image), Tensor(pair.y.image)
    zx, zy = Tensor(pair.pgt_yx), Tensor(pair.pgt_xy)
    a = loss_discriminators(x, y, zy, zx, state.disc_x, state.disc_y).item()
    b = loss_discriminators(y, x, zx, zy, state.disc_y, state.disc_x).item()
    assert abs(a - b) < 1e-12


def test_perfect_cycle_with_identity_stub(setup, monkeypatch):
    # identity encoder, and a decoder that returns the source code: every
    # cycle pass gives back its input, and no reference side is read
    cfg, state, pair = setup
    monkeypatch.setattr(gan, "encode", lambda img, gen: img if isinstance(img, Tensor) else Tensor(img))
    monkeypatch.setattr(gan, "face_reference", lambda *a: FatReference(None, None, None))
    monkeypatch.setattr(gan, "transfer_decode", lambda xb, *a, **k: (xb, True))
    z_xy = Tensor(pair.x.image)
    z_yx = Tensor(pair.y.image)
    ex, ey = Tensor(pair.x.image), Tensor(pair.y.image)
    weights = LossWeights(adv=0.0, cyc=1.0, per=0.0, make=0.0)
    total, parts = loss_generator(
        pair, z_xy, z_yx, ex, ey, state.gen, state.disc_x, state.disc_y, state.percep, weights, cfg
    )
    assert parts["cyc"] == 0.0
    assert total.item() == 0.0


def test_make_term_zero_when_output_equals_pgt(setup):
    cfg, state, pair = setup
    ex, ey = encode(pair.x.image, state.gen), encode(pair.y.image, state.gen)
    total, parts = loss_generator(
        pair, Tensor(pair.pgt_xy), Tensor(pair.pgt_yx), ex, ey, state.gen,
        state.disc_x, state.disc_y, state.percep, LossWeights(), cfg,
    )
    assert parts["make"] == 0.0


def test_loss_components_match_numpy_recomputation(setup):
    # independent scalar recomputation of every component from raw arrays
    cfg, state, pair = setup
    z_xy = generator_forward(
        pair.x.image, pair.y.image, pair.x.landmarks, pair.y.landmarks, pair.x.mask,
        state.gen, cfg,
    )
    z_yx = generator_forward(
        pair.y.image, pair.x.image, pair.y.landmarks, pair.x.landmarks, pair.y.mask,
        state.gen, cfg,
    )
    weights = LossWeights(adv=0.5, cyc=3.0, per=0.25, make=2.0)
    ex, ey = encode(pair.x.image, state.gen), encode(pair.y.image, state.gen)
    total, parts = loss_generator(
        pair, z_xy, z_yx, ex, ey, state.gen, state.disc_x, state.disc_y, state.percep, weights, cfg
    )

    def np_bce_real(logits):
        return float(np.mean(np.logaddexp(0.0, logits) - logits))

    adv = np_bce_real(run_blocks(state.disc_x.blocks, z_yx.detach()).data) + np_bce_real(
        run_blocks(state.disc_y.blocks, z_xy.detach()).data
    )
    back_x = generator_forward(
        z_xy.detach(), pair.x.image, pair.x.landmarks, pair.x.landmarks, pair.x.mask,
        state.gen, cfg,
    )
    back_y = generator_forward(
        z_yx.detach(), pair.y.image, pair.y.landmarks, pair.y.landmarks, pair.y.mask,
        state.gen, cfg,
    )
    cyc = float(np.mean(np.abs(back_x.data - pair.x.image)) + np.mean(np.abs(back_y.data - pair.y.image)))
    per = float(
        np.mean((run_blocks(state.percep.blocks, z_xy.detach()).data - pair.feat_x) ** 2)
        + np.mean((run_blocks(state.percep.blocks, z_yx.detach()).data - pair.feat_y) ** 2)
    )
    make = float(np.mean((z_xy.data - pair.pgt_xy) ** 2) + np.mean((z_yx.data - pair.pgt_yx) ** 2))
    assert abs(parts["adv"] - adv) < 1e-10
    assert abs(parts["cyc"] - cyc) < 1e-10
    assert abs(parts["per"] - per) < 1e-10
    assert abs(parts["make"] - make) < 1e-10
    expected_total = 0.5 * adv + 3.0 * cyc + 0.25 * per + 2.0 * make
    assert abs(total.item() - expected_total) < 1e-9


# -- training loop -------------------------------------------------------------------


def test_train_step_increments_and_changes_parameters():
    cfg = tiny_config()
    state = init_train_state(cfg, seed=11)
    x, y = faces(3, 4)
    pair = prepare_pair(x, y, state.percep)
    before = {k: v.data.copy() for k, v in state.gen.tensors().items()}
    row = train_step(state, pair, LossWeights(), lr=1e-3)
    assert state.iteration == 1 and row["iter"] == 1
    changed = sum(
        0 if np.array_equal(before[k], v.data) else 1 for k, v in state.gen.tensors().items()
    )
    assert changed > len(before) * 0.5


@functools.cache
def second_step_peak(spatial, size=64):
    """The tracemalloc peak of the second `train_step` on the default config,
    64 px unless `size` says otherwise, colour or spatial, at seed 5. The
    set-up is deterministic, so each config is measured once and every bound
    below reads that measurement."""
    import tracemalloc

    cfg = GeneratorConfig(spatial=spatial, size=size)
    state = init_train_state(cfg, seed=5)
    x, y = faces(size=cfg.size)
    pair = prepare_pair(x, y, state.percep, spatial_labels=cfg.warp_labels if spatial else ())
    train_step(state, pair, LossWeights(), lr=2e-4)
    tracemalloc.start()
    try:
        train_step(state, pair, LossWeights(), lr=2e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_train_step_memory_peak():
    # a graph node keeps no value, so an activation that no backward reads
    # (a conv output feeding instance_norm, attention logits feeding softmax)
    # is freed in the forward. The second step of the default 64 px colour
    # config peaked at 55.3 MB under tracemalloc while every interior value
    # lived until the step ended, and at 36.0 MB since; the bound is midway
    assert second_step_peak(spatial=False) < 45.7e6


def test_spatial_train_step_memory_peak():
    # the spatial twin of the test above, on the default spatial config. A
    # ReLU output that a conv's weight gradient reads is rebuilt from the
    # ReLU's input, which the instance norm's backward holds anyway; the
    # second step peaked at 53.0 MB under tracemalloc while the ReLU and the
    # conv kept the output, and at 47.2 MB since; the bound is midway
    assert second_step_peak(spatial=True) < 50.1e6


def test_spatial_train_step_memory_peak_without_attention_scores():
    # the test above's set-up. Each attention op keeps its projections and
    # recomputes its (heads, M, M') scores in the backward; the second step
    # peaked at 47.2 MB under tracemalloc while the graph kept the scores of
    # all 8 attention passes, and at 39.9 MB since; the bound is midway
    assert second_step_peak(spatial=True) < 43.5e6


@pytest.mark.parametrize("spatial, bound", [(False, 26.4e6), (True, 38.1e6)])
def test_train_step_memory_peak_without_attention_matrix(spatial, bound):
    # the attention op takes the attribute rows as its values and rebuilds
    # the (M, M') matrix in its backward, so no attention pass keeps it. The
    # second step peaked at 27.2 MB (colour) and 39.9 MB (spatial) under
    # tracemalloc while the transfer's matmul kept it, and at 25.5 and 36.3
    # MB since; each bound is midway
    assert second_step_peak(spatial=spatial) < bound


@pytest.mark.parametrize("spatial, bound", [(False, 23.3e6), (True, 33.4e6)])
def test_train_step_memory_peak_with_graph_freed_as_walked(spatial, bound):
    # each node drops its backward closure, parents and rebuild recipe once
    # the backward has run it, so a train step's arrays die as the walk passes
    # them, not when train_step returns. The second step peaked at 25.5 MB
    # (colour) and 36.3 MB (spatial) under tracemalloc while the graph lived
    # to the end of the step, and at 20.6 and 29.9 MB since; each bound sits
    # midway between the old peak and 21.1 / 30.5 MB, the peaks of a walk
    # whose loop variables kept a node's last parent and gradients one node
    # longer
    assert second_step_peak(spatial=spatial) < bound


@pytest.mark.parametrize("spatial, bound", [(False, 19.8e6), (True, 27.8e6)])
def test_train_step_memory_peak_with_concat_recipes_and_kept_sampler_input(spatial, bound):
    # a projection's matmul keeps the concat's recipe over the features and
    # the landmark embedding, not the augmented rows, and grid_sample keeps
    # its input, not four corner arrays. The second step peaked at 20.6 MB
    # (colour) and 29.9 MB (spatial) under tracemalloc before, and at 19.1
    # and 25.7 MB since; each bound is midway
    assert second_step_peak(spatial=spatial) < bound


def test_128px_train_step_memory_peak_with_attention_in_query_blocks():
    # at 128 px attention runs over M = M' = 1024 rows, so each head's scores
    # take 8.4 MB; in blocks of 256 query rows the forward and the backward
    # hold one block's scores at a time. The second colour step peaked at
    # 121.7 MB under tracemalloc before the blocks and the changes above,
    # and at 72.7 MB since; the bound is midway
    assert second_step_peak(spatial=False, size=128) < 97.2e6


def test_train_bit_identical_across_runs():
    def run():
        cfg = tiny_config()
        state = init_train_state(cfg, seed=21)
        x, y = faces(5, 6)
        pairs = [prepare_pair(x, y, state.percep)]
        fit(state, pairs, LossWeights(), lr=2e-4, steps=3)
        return history_csv(state.history)

    assert run() == run()


def test_fit_step_count_and_log_columns():
    cfg = tiny_config()
    state = init_train_state(cfg, seed=31)
    x, y = faces(7, 8)
    pairs = [prepare_pair(x, y, state.percep), prepare_pair(y, x, state.percep)]
    fit(state, pairs, LossWeights(), lr=2e-4, steps=4)
    csv = history_csv(state.history)
    lines = csv.strip().splitlines()
    assert lines[0] == "iter,J_D,J_G,adv,cyc,per,make"
    assert len(lines) == 5
    assert lines[1].startswith("1,")


def test_pair_order_is_one_stream_of_per_epoch_permutations():
    n, seed = 3, 17
    order = list(islice(pair_order(seed, n), 12))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    assert order == list(np.concatenate([rng.permutation(n) for _ in range(4)]))
    for start in (1, 2, 3, 4, 6, 8, 11):  # inside an epoch, at and across its ends
        assert list(islice(pair_order(seed, n, start), 12 - start)) == order[start:]


def test_fit_split_over_calls_replays_one_call():
    def run(*splits):
        state = init_train_state(tiny_config(size=16, control_grid=8), seed=61)
        a, b = faces(11, 12, size=16)
        c, _ = faces(13, 14, size=16)
        pairs = [prepare_pair(x, y, state.percep) for x, y in ((a, b), (b, c), (c, a))]
        for steps in splits:
            fit(state, pairs, LossWeights(), lr=1e-3, steps=steps)
        tensors = {k: v.data.tobytes() for k, v in state_tensors(state).items()}
        return history_csv(state.history), tensors

    whole = run(5)
    assert run(2, 3) == whole
    assert run(2, 3, 2) == run(7)


def test_non_finite_loss_aborts_with_component_name():
    cfg = tiny_config()
    state = init_train_state(cfg, seed=41)
    x, y = faces(9, 10)
    pair = prepare_pair(x, y, state.percep)
    state.gen.dec[-1].b.data[0] = np.nan  # final layer: no relu to mask the NaN
    with pytest.raises(NonFiniteLossError, match="J_D|J_G|adv|cyc|per|make"):
        train_step(state, pair, LossWeights(), lr=2e-4)


def _four_pass_step(state, pair, weights, lr):
    """Reference training step: four full `generator_forward` passes, each
    encoding both of its images, and the loss stack written out inline."""
    cfg, gen = state.config, state.gen
    x, y = pair.x, pair.y
    z_xy = generator_forward(x.image, y.image, x.landmarks, y.landmarks, x.mask, gen, cfg)
    z_yx = generator_forward(y.image, x.image, y.landmarks, x.landmarks, y.mask, gen, cfg)
    params = state.adam_d.params + state.adam_g.params
    zero_grads(params)
    j_d = loss_discriminators(
        Tensor(x.image), Tensor(y.image), z_xy.detach(), z_yx.detach(), state.disc_x, state.disc_y
    )
    j_d.backward()
    adam_step(state.adam_d, lr)
    zero_grads(params)
    adv = bce_with_logits(run_blocks(state.disc_x.blocks, z_yx), 1.0) + bce_with_logits(
        run_blocks(state.disc_y.blocks, z_xy), 1.0
    )
    back_x = generator_forward(z_xy, x.image, x.landmarks, x.landmarks, x.mask, gen, cfg)
    back_y = generator_forward(z_yx, y.image, y.landmarks, y.landmarks, y.mask, gen, cfg)
    cyc = l1_loss(back_x, Tensor(x.image)) + l1_loss(back_y, Tensor(y.image))
    per = mse_loss(run_blocks(state.percep.blocks, z_xy), Tensor(pair.feat_x)) + mse_loss(
        run_blocks(state.percep.blocks, z_yx), Tensor(pair.feat_y)
    )
    make = mse_loss(z_xy, Tensor(pair.pgt_xy)) + mse_loss(z_yx, Tensor(pair.pgt_yx))
    j_g = weights.adv * adv + weights.cyc * cyc + weights.per * per + weights.make * make
    j_g.backward()
    adam_step(state.adam_g, lr)
    zero_grads(params)
    parts = {"adv": adv, "cyc": cyc, "per": per, "make": make}
    return {"J_D": j_d.item(), "J_G": j_g.item(), **{k: v.item() for k, v in parts.items()}}


@pytest.mark.parametrize("spatial", [False, True])
def test_encode_once_step_matches_four_pass_reference(spatial):
    # encode-once only reorders floating-point sums: the loss rows and the
    # parameters track the four-pass step to rounding over several steps
    cfg = GeneratorConfig(size=32, base_width=4, heads=2, spatial=spatial)
    fast = init_train_state(cfg, seed=17)
    ref = init_train_state(cfg, seed=17)
    x, y = faces(19, 20, size=32)
    pair = prepare_pair(x, y, fast.percep, spatial_labels=cfg.warp_labels if spatial else ())
    weights = LossWeights()
    for _ in range(3):
        row = train_step(fast, pair, weights, lr=1e-3)
        expected = _four_pass_step(ref, pair, weights, lr=1e-3)
        for name, value in expected.items():
            np.testing.assert_allclose(row[name], value, rtol=1e-12, atol=0, err_msg=name)
    # every parameter agrees; the 1e-12 floor covers entries near zero, where
    # Adam's per-entry scaling enlarges the relative rounding differences
    want = state_tensors(ref)
    assert list(want) == list(state_tensors(fast))
    for name, tensor in state_tensors(fast).items():
        np.testing.assert_allclose(tensor.data, want[name].data, rtol=1e-12, atol=1e-12, err_msg=name)


def test_train_step_convolution_count(monkeypatch):
    # one default color step runs the four passes' encoders only for the two
    # real faces and the two generated ones: 66 conv blocks (4 encodes x 6,
    # 4 decodes x 3, 24 discriminator and 6 perceptual layers) plus the two
    # attribute-estimator convolutions of each real face's reference side,
    # which its transfer and its cycle pass share
    import fatkit.attention

    cfg = GeneratorConfig()
    state = init_train_state(cfg, seed=3)
    x, y = faces(21, 22, size=cfg.size)
    pair = prepare_pair(x, y, state.percep)
    calls = {}
    for module in (gan, fatkit.attention):
        def counted(*args, _name=module.__name__, _conv=module.conv2d, **kw):
            calls[_name] = calls.get(_name, 0) + 1
            return _conv(*args, **kw)

        monkeypatch.setattr(module, "conv2d", counted)
    train_step(state, pair, LossWeights(), lr=2e-4)
    assert calls == {"fatkit.gan": 66, "fatkit.attention": 4}
    assert sum(calls.values()) == 70


def _shared_transfers(state, pair, cfg):
    """The two transfers of a train step, each reading the reference side
    that `face_reference` built once per real face."""
    x, y = pair.x, pair.y
    ex, ey = encode(x.image, state.gen), encode(y.image, state.gen)
    ref_x = face_reference(ex, x.landmarks, state.gen, cfg)
    ref_y = face_reference(ey, y.landmarks, state.gen, cfg)
    z_xy, _ = transfer_decode(ex, ref_x.embedding, ey, ref_y, x.mask, state.gen)
    z_yx, _ = transfer_decode(ey, ref_y.embedding, ex, ref_x, y.mask, state.gen)
    return ex, ey, ref_x, ref_y, z_xy, z_yx


@pytest.mark.parametrize("spatial", [False, True])
def test_shared_reference_transfers_equal_generator_forward(spatial):
    cfg = tiny_config(spatial=spatial)
    state = init_train_state(cfg, seed=71)
    x, y = faces(23, 24)
    pair = prepare_pair(x, y, state.percep)
    *_, z_xy, z_yx = _shared_transfers(state, pair, cfg)
    want_xy = generator_forward(x.image, y.image, x.landmarks, y.landmarks, x.mask, state.gen, cfg)
    want_yx = generator_forward(y.image, x.image, y.landmarks, x.landmarks, y.mask, state.gen, cfg)
    assert z_xy.data.tobytes() == want_xy.data.tobytes()
    assert z_yx.data.tobytes() == want_yx.data.tobytes()


@pytest.mark.parametrize("spatial", [False, True])
def test_train_step_builds_each_reference_side_once(monkeypatch, spatial):
    # the colour block estimates attributes once per real face; the spatial
    # alignment block reads the query code, a new reference in each of the
    # four passes
    import fatkit.attention

    cfg = GeneratorConfig(spatial=spatial)
    state = init_train_state(cfg, seed=3)
    x, y = faces(21, 22, size=cfg.size)
    pair = prepare_pair(x, y, state.percep, spatial_labels=cfg.warp_labels if spatial else ())
    blocks = {id(state.gen.fat): "fat"}
    if spatial:
        blocks[id(state.gen.spatial.align)] = "align"
    calls = {}
    estimate = fatkit.attention.estimate_attributes

    def counted(y_map, params):
        calls[blocks[id(params)]] = calls.get(blocks[id(params)], 0) + 1
        return estimate(y_map, params)

    monkeypatch.setattr(fatkit.attention, "estimate_attributes", counted)
    train_step(state, pair, LossWeights(), lr=2e-4)
    assert calls == ({"fat": 2, "align": 4} if spatial else {"fat": 2})


@pytest.mark.parametrize("spatial", [False, True])
def test_train_step_embeds_each_face_once(monkeypatch, spatial):
    # a real face's reference embedding is also its query embedding, in its
    # transfer onto the other face and in its cycle pass
    cfg = tiny_config(spatial=spatial)
    state = init_train_state(cfg, seed=3)
    x, y = faces(21, 22)
    pair = prepare_pair(x, y, state.percep, spatial_labels=cfg.warp_labels if spatial else ())
    calls = []
    embed = gan.landmark_embedding

    def counted(h, w, landmarks):
        calls.append(landmarks)
        return embed(h, w, landmarks)

    monkeypatch.setattr(gan, "landmark_embedding", counted)
    train_step(state, pair, LossWeights(), lr=2e-4)
    assert [id(lm) for lm in calls] == [id(x.landmarks), id(y.landmarks)]


@pytest.mark.parametrize("spatial", [False, True])
def test_gradient_free_forward_frees_the_reference_side_before_the_decoder(monkeypatch, spatial):
    import weakref

    cfg = tiny_config(spatial=spatial)
    gen = init_train_state(cfg, seed=5).gen
    for tensor in gen.tensors().values():
        tensor.requires_grad = False
    attributes, alive = [], []
    build, run = gan.face_reference, gan.run_blocks

    def recorded(*args):
        ref = build(*args)
        attributes.append(weakref.ref(ref.attributes.data))
        return ref

    def traced(blocks, x):
        if blocks[0] is gen.post[0]:
            alive.append(attributes[0]() is not None)
        return run(blocks, x)

    monkeypatch.setattr(gan, "face_reference", recorded)
    monkeypatch.setattr(gan, "run_blocks", traced)
    x, y = faces(27, 28)
    generator_forward(x.image, y.image, x.landmarks, y.landmarks, x.mask, gen, cfg)
    assert alive == [False]


@pytest.mark.parametrize("spatial", [False, True])
def test_shared_reference_gradients_match_per_call_composition(spatial):
    # sharing a reference side only reorders the sums of the gradients that
    # reach it from its two readers
    cfg = tiny_config(spatial=spatial)
    state = init_train_state(cfg, seed=73)
    x, y = faces(25, 26)
    pair = prepare_pair(x, y, state.percep, spatial_labels=cfg.warp_labels if spatial else ())
    weights = LossWeights()

    def generator_grads(shared):
        if shared:
            ex, ey, ref_x, ref_y, z_xy, z_yx = _shared_transfers(state, pair, cfg)
        else:
            ex, ey = encode(x.image, state.gen), encode(y.image, state.gen)
            z_xy = generator_forward(x.image, y.image, x.landmarks, y.landmarks, x.mask, state.gen, cfg)
            z_yx = generator_forward(y.image, x.image, y.landmarks, x.landmarks, y.mask, state.gen, cfg)
            ref_x = ref_y = None
        j_g, _ = loss_generator(pair, z_xy, z_yx, ex, ey, state.gen, state.disc_x, state.disc_y,
                                state.percep, weights, cfg, ref_x=ref_x, ref_y=ref_y)
        zero_grads(state.adam_g.params)
        j_g.backward()
        grads = {name: t.grad for name, t in state.gen.tensors().items()}
        zero_grads(state.adam_g.params)
        return j_g.item(), grads

    j_shared, shared = generator_grads(True)
    j_plain, plain = generator_grads(False)
    assert j_shared == j_plain
    assert list(shared) == list(plain)
    assert any(grad is not None and np.any(grad) for grad in plain.values())
    for name, grad in shared.items():
        assert (grad is None) == (plain[name] is None), name
        if grad is not None:
            scale = np.max(np.abs(plain[name]))
            assert np.max(np.abs(grad - plain[name])) <= 1e-12 * scale, name


def test_empty_dataset_rejected():
    cfg = tiny_config()
    state = init_train_state(cfg, seed=51)
    with pytest.raises(ParameterError):
        fit(state, [], LossWeights(), lr=2e-4, steps=1)


# -- persistence ---------------------------------------------------------------------


def test_checkpoint_round_trip_reproduces_outputs(tmp_path):
    cfg = tiny_config(spatial=True)
    state = init_train_state(cfg, seed=61)
    x, y = faces(11, 12)
    pair = prepare_pair(x, y, state.percep)
    train_step(state, pair, LossWeights(), lr=1e-3)
    path = tmp_path / "model.fatw"
    save_state(path, state)
    restored = load_generator(path, cfg)
    args = (x.image, y.image, x.landmarks, y.landmarks, x.mask)
    a = generator_forward(*args, state.gen, cfg).data
    b = generator_forward(*args, restored, cfg).data
    np.testing.assert_allclose(a, b, atol=1e-7)  # float32 storage rounding


@pytest.mark.parametrize("spatial", [False, True])
def test_load_generator_restores_every_stored_tensor(tmp_path, spatial):
    cfg = tiny_config(spatial=spatial)
    state = init_train_state(cfg, seed=67)
    path = tmp_path / "model.fatw"
    save_state(path, state)
    stored = load_tensors(path)
    restored = named_tensors([("gen", load_generator(path, cfg))])
    assert list(restored) == [name for name in stored if name.startswith("gen.")]
    for name, tensor in restored.items():
        assert tensor.data.dtype == np.float64 and not tensor.requires_grad
        np.testing.assert_array_equal(tensor.data, stored[name], err_msg=name)
    stored["gen.dec1.w"] = stored["gen.dec1.w"][:, :-1]
    save_tensors(tmp_path / "bad.fatw", stored)
    with pytest.raises(FormatError, match="gen.dec1.w.*shape"):
        load_generator(tmp_path / "bad.fatw", cfg)


def test_checkpoint_missing_tensor(tmp_path):
    cfg = tiny_config()
    state = init_train_state(cfg, seed=71)
    save_tensors(tmp_path / "bad.fatw", {"gen.enc0.w": np.zeros((4, 3, 3, 3), dtype=np.float32)})
    with pytest.raises(FormatError, match="missing"):
        load_generator(tmp_path / "bad.fatw", cfg)


def test_checkpoint_missing_tensor_names_the_file(tmp_path):
    path = tmp_path / "bad.fatw"
    save_tensors(path, {"gen.enc0.w": np.zeros((4, 3, 3, 3))})
    with pytest.raises(FormatError) as info:
        load_generator(path, tiny_config())
    assert str(info.value).startswith(f"{path}: checkpoint is missing tensor 'gen.")


def test_state_tensor_names_and_order():
    # the checkpoint layout is this name list, in this order; blocks with
    # instance norm and the frozen perceptual blocks store no bias
    def blocks(prefix, count, bias=True):
        return [f"{prefix}{i}.{t}" for i in range(count) for t in (("w", "b") if bias else ("w",))]

    def fat(prefix):
        return [f"{prefix}.{t}" for t in ("w_query", "w_ref", "w_mix", "est1_w", "est1_b", "est2_w", "est2_b")]

    def disc(prefix):
        # only the first and the last block skip instance norm
        return [f"{prefix}.{t}" for t in ("b0.w", "b0.b", "b1.w", "b2.w", "b3.w", "b3.b")]

    expected = (
        blocks("gen.enc", 3, bias=False) + blocks("gen.pre", 3, bias=False) + fat("gen.fat")
        + blocks("gen.post", 2, bias=False) + blocks("gen.dec", 3) + fat("gen.spatial.align")
        + ["gen.spatial.ctrl_w", "gen.spatial.ctrl_b", "gen.spatial.ctrl_pos"]
        + disc("disc_x") + disc("disc_y") + blocks("percep.b", 3, bias=False)
    )
    state = init_train_state(tiny_config(spatial=True), seed=0)
    assert list(state_tensors(state)) == expected
    assert len(expected) == 46
    assert len(state_tensors(init_train_state(tiny_config(), seed=0))) == 36


@pytest.mark.parametrize("spatial", [False, True])
def test_adam_lists_partition_the_learnable_state(spatial):
    # Adam steps the generator and the discriminators under their checkpoint
    # names and order; the frozen perceptual stack is in neither list
    state = init_train_state(tiny_config(spatial=spatial), seed=0)
    named = state_tensors(state)

    def ids(prefixes):
        return [id(t) for name, t in named.items() if name.startswith(prefixes)]

    assert [id(p) for p in state.adam_g.params] == ids("gen.")
    assert [id(p) for p in state.adam_d.params] == ids(("disc_x.", "disc_y."))
    adam = {id(p) for p in state.adam_g.params + state.adam_d.params}
    assert ids("percep.") and adam.isdisjoint(ids("percep."))


def test_prepare_pair_spatial_labels_change_pgt():
    cfg = tiny_config()
    state = init_train_state(cfg, seed=81)
    x, y = faces(13, 14, size=64)
    flat = prepare_pair(x, y, state.percep)
    shaped = prepare_pair(x, y, state.percep, spatial_labels=(2, 3))
    assert not np.array_equal(flat.pgt_xy, shaped.pgt_xy)
