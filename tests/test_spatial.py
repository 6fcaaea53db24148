"""Spatial transfer: control-point prediction, gated TPS warp, full pass."""

import numpy as np
import pytest

from conftest import base_buffer, check_grads, graph_held
from fatkit.attention import fat_forward, landmark_embedding
from fatkit.spatial import (
    SpatialFatParams,
    masked_tps_warp,
    predict_control_points,
    spatial_fat_forward,
    tps_grid_from_targets,
)
from fatkit.tensor import ShapeError, Tensor
from fatkit.tps import identity_grid, pixel_lattice


def make_case(rng, d=4, n=3, h=8, w=8):
    x = Tensor(rng.normal(size=(d, h, w)))
    y = Tensor(rng.normal(size=(d, h, w)))
    le_x = landmark_embedding(h, w, rng.uniform(0.2, 0.8, size=(n, 2)))
    le_y = landmark_embedding(h, w, rng.uniform(0.2, 0.8, size=(n, 2)))
    return x, y, le_x, le_y


def make_params(rng, d=4, n=3, grid=4, **kw):
    return SpatialFatParams(d=d, heads=2, n_landmarks=n, rng=rng, grid_size=grid, **kw)


# -- control-point prediction ----------------------------------------------------------


def test_zero_head_collapses_targets_to_center(rng):
    params = make_params(rng)
    params.ctrl_pos = Tensor(np.zeros((2, 4, 4)), requires_grad=True)
    aligned = Tensor(rng.normal(size=(4, 8, 8)))
    targets = predict_control_points(aligned, params)
    np.testing.assert_allclose(targets.data, 0.0, atol=1e-12)


def test_identity_init_reproduces_lattice(rng):
    params = make_params(rng)
    targets = predict_control_points(Tensor(rng.normal(size=(4, 8, 8))), params)
    np.testing.assert_allclose(targets.data, pixel_lattice(4, 4), atol=1e-12)


def test_targets_strictly_inside_unit_box(rng):
    params = make_params(rng, ctrl_init="random")
    params.ctrl_pos = Tensor(rng.normal(0, 3.0, size=(2, 4, 4)), requires_grad=True)
    targets = predict_control_points(Tensor(rng.normal(size=(4, 8, 8))), params)
    assert np.all(np.abs(targets.data) < 1.0)


def test_grid_larger_than_features_is_shape_error(rng):
    # the lattice is never shrunk to fit the map; GeneratorConfig.grid_size
    # caps it at the bottleneck before the parameters are built
    params = make_params(rng, grid=8)
    with pytest.raises(ShapeError):
        predict_control_points(Tensor(rng.normal(size=(4, 4, 4))), params)


# -- differentiable grid -----------------------------------------------------------------


def test_identity_targets_identity_grid(rng):
    grid, solved = tps_grid_from_targets(Tensor(pixel_lattice(4, 4)), 8, 8)
    assert solved
    np.testing.assert_allclose(grid.data, identity_grid(8, 8), atol=1e-9)


def test_translated_targets_shift_grid(rng):
    lattice = pixel_lattice(4, 4)
    offset = np.array([0.125, -0.0625])
    # content at the lattice should land at lattice+offset: sampling pulls from -offset
    grid, solved = tps_grid_from_targets(Tensor(lattice + offset), 8, 8)
    assert solved
    np.testing.assert_allclose(grid.data, identity_grid(8, 8) - offset, atol=1e-8)


def test_collinear_targets_fall_back(rng):
    collinear = np.stack([np.linspace(-0.8, 0.8, 16), np.linspace(-0.8, 0.8, 16)], axis=1)
    grid, solved = tps_grid_from_targets(Tensor(collinear), 8, 8)
    assert not solved
    np.testing.assert_array_equal(grid.data, identity_grid(8, 8))


@pytest.mark.parametrize("shape", [(12, 2), (15, 2), (16, 3), (16,)])
def test_targets_off_a_square_lattice_are_shape_error(shape):
    # the source lattice is pixel_lattice(n, n), so K must be a perfect square
    with pytest.raises(ShapeError, match="square lattice"):
        tps_grid_from_targets(Tensor(np.zeros(shape)), 8, 8)


def test_grid_matches_plain_solver(rng):
    from fatkit.tps import tps_grid, tps_solve

    lattice = pixel_lattice(3, 3)
    targets = lattice + rng.uniform(-0.08, 0.08, size=lattice.shape)
    grid, solved = tps_grid_from_targets(Tensor(targets), 10, 10)
    assert solved
    plain = tps_grid(tps_solve(targets, lattice), 10, 10)
    np.testing.assert_allclose(grid.data, plain, atol=1e-10)


def test_grid_differentiable_in_targets(rng):
    lattice = pixel_lattice(3, 3)
    targets = Tensor(lattice + rng.uniform(-0.1, 0.1, size=lattice.shape), requires_grad=True)
    probe = Tensor(rng.normal(size=(6, 6, 2)))

    def f(t):
        grid, solved = tps_grid_from_targets(t, 6, 6)
        assert solved
        return (grid * probe).sum()

    check_grads(f, [targets], tol=1e-4)


# -- masked warp ----------------------------------------------------------------------


def warp_setup(rng, h=8):
    lattice = pixel_lattice(4, 4)
    targets = lattice + rng.uniform(-0.1, 0.1, size=lattice.shape)
    img = Tensor(rng.uniform(size=(3, h, h)))
    mask = np.zeros((h, h), dtype=np.uint8)
    mask[:, : h // 2] = 2  # "eyebrow" left half
    mask[:, h // 2 :] = 6  # "lip" right half
    return img, Tensor(targets), mask


def test_empty_active_set_is_identity(rng):
    img, targets, mask = warp_setup(rng)
    out, solved = masked_tps_warp(img, targets, mask, active_labels=())
    assert solved
    np.testing.assert_array_equal(out.data, img.data)


def test_all_labels_equals_pure_warp(rng):
    img, targets, mask = warp_setup(rng)
    gated, _ = masked_tps_warp(img, targets, mask, active_labels=(0, 1, 2, 3, 4, 5, 6, 7))
    grid, _ = tps_grid_from_targets(targets, 8, 8)
    from fatkit.tensor import grid_sample

    np.testing.assert_array_equal(gated.data, grid_sample(img, grid).data)


def test_inactive_region_bit_identical(rng):
    img, targets, mask = warp_setup(rng)
    out, _ = masked_tps_warp(img, targets, mask, active_labels=(2,))
    lips = mask == 6
    assert np.array_equal(out.data[:, lips], img.data[:, lips])
    brows = mask == 2
    assert not np.array_equal(out.data[:, brows], img.data[:, brows])


def test_mask_downsampled_when_finer(rng):
    img, targets, _ = warp_setup(rng, h=8)
    fine = np.zeros((32, 32), dtype=np.uint8)
    fine[:, :16] = 2
    out, solved = masked_tps_warp(img, targets, fine, active_labels=(6,))
    assert solved
    np.testing.assert_array_equal(out.data, img.data)  # no lip labels anywhere


# -- full pass --------------------------------------------------------------------------


def test_identity_init_matches_plain_fat(rng):
    x, y, le_x, le_y = make_case(rng)
    params = make_params(rng, estimator="random")
    mask = np.full((8, 8), 2, dtype=np.uint8)
    spatial, solved = spatial_fat_forward(x, y, le_x, le_y, mask, params)
    assert solved
    plain = fat_forward(x, y, le_x, le_y, params.fat)
    np.testing.assert_allclose(spatial.data, plain.data, atol=1e-6)


def test_spatial_forward_aligns_with_swapped_pass(rng):
    # the control points come from the reference aligned to the query layout:
    # the transfer pass with the roles swapped, run by the alignment block
    x, y, le_x, le_y = make_case(rng)
    params = make_params(rng, estimator="random", ctrl_init="random")
    mask = np.full((8, 8), 2, dtype=np.uint8)
    out, solved = spatial_fat_forward(x, y, le_x, le_y, mask, params)
    aligned = fat_forward(y, x, le_y, le_x, params.align)
    assert aligned.shape == y.shape
    colored = fat_forward(x, y, le_x, le_y, params.fat)
    targets = predict_control_points(aligned, params)
    expected, expected_solved = masked_tps_warp(colored, targets, mask, params.active_labels)
    assert solved and expected_solved
    np.testing.assert_array_equal(out.data, expected.data)


def test_spatial_forward_output_shape_and_fallback(rng):
    x, y, le_x, le_y = make_case(rng)
    params = make_params(rng)
    params.ctrl_pos = Tensor(np.zeros((2, 4, 4)), requires_grad=True)  # all targets collapse
    mask = np.full((8, 8), 2, dtype=np.uint8)
    out, solved = spatial_fat_forward(x, y, le_x, le_y, mask, params)
    assert not solved
    assert out.shape == x.shape


def test_spatial_forward_end_to_end_gradients(rng):
    x, y, le_x, le_y = make_case(rng, d=2, n=2, h=4, w=4)
    params = make_params(rng, d=2, n=2, grid=4, estimator="random", ctrl_init="random")
    mask = np.full((4, 4), 2, dtype=np.uint8)
    xl = Tensor(x.data, requires_grad=True)
    yl = Tensor(y.data, requires_grad=True)
    leaves = [xl, yl] + params.parameters()
    probe = Tensor(np.random.default_rng(0).normal(size=(2, 4, 4)))

    def f(xv, yv, *_):
        out, solved = spatial_fat_forward(xv, yv, le_x, le_y, mask, params)
        assert solved
        return (out * probe).sum()

    check_grads(f, leaves, tol=1e-4)
    assert xl.grad is not None and np.any(xl.grad != 0.0)
    assert yl.grad is not None and np.any(yl.grad != 0.0)
    assert params.ctrl_w.grad is not None and np.any(params.ctrl_w.grad != 0.0)


def test_align_pass_output_read_only_by_pooling_is_freed(rng, monkeypatch):
    # the align pass's output is read only by avg_pool2d, whose backward
    # keeps no array, so once spatial_fat_forward drops it nothing holds the
    # colour-transform product under its reshape and transpose: no recipe
    # outlives a tensor that no backward reads. The colour pass's product
    # stays, rebuilt through the same recipes by grid_sample's backward
    import weakref

    import fatkit.attention as attention

    products, transform = [], attention.color_transform

    def recorded(x_flat, gamma):
        out = transform(x_flat, gamma)
        products.append(out.data)
        return out

    monkeypatch.setattr(attention, "color_transform", recorded)
    x, y, le_x, le_y = make_case(rng)
    params = make_params(rng, estimator="random", ctrl_init="random")
    out, solved = spatial_fat_forward(x, y, le_x, le_y, np.full((8, 8), 2, dtype=np.uint8), params)
    assert solved
    colour, align = products
    held = {id(b) for arrays in graph_held(out).values() for b in arrays}
    assert id(base_buffer(colour)) in held and id(base_buffer(align)) not in held
    align, products = weakref.ref(align), None
    assert align() is None
