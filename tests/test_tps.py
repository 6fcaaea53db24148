"""Thin-plate-spline solver, grids, warps, and the min-distance shift."""

import re

import numpy as np
import pytest

from fatkit.data import write_point_text
from fatkit.tensor import FormatError, ParameterError, Tensor, grid_sample
from fatkit.tps import (
    DegenerateGeometryError,
    identity_grid,
    min_shift,
    read_points,
    tps_apply,
    tps_grid,
    tps_solve,
    tps_system,
    warp_image,
)


def random_control(rng, k, spread=0.9):
    # rejection-sample until the solver accepts (random points are almost never degenerate)
    while True:
        pts = rng.uniform(-spread, spread, size=(k, 2))
        try:
            tps_solve(pts, pts)
        except DegenerateGeometryError:
            continue
        return pts


# -- kernel ----------------------------------------------------------------------


def test_system_kernel_values():
    # phi(r) = r^2 log r, read off the assembled system at distances 0, 1 and e
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, np.e], [1.0, 1.0]])
    system = tps_system(Tensor(pts)).data
    assert system.shape == (7, 7)
    phi = system[:4, 3:]
    assert phi[0, 0] == 0.0
    assert phi[0, 1] == 0.0
    np.testing.assert_allclose(phi[0, 2], np.e**2)
    np.testing.assert_array_equal(phi, phi.T)
    np.testing.assert_array_equal(system[:4, :3], np.column_stack([np.ones(4), pts]))
    np.testing.assert_array_equal(system[4:], np.column_stack([np.zeros((3, 3)), system[:4, :3].T]))


# -- solve -----------------------------------------------------------------------


def test_identity_solve_recovers_identity_affine(rng):
    c = random_control(rng, 9)
    t = tps_solve(c, c)
    np.testing.assert_allclose(t.affine, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], atol=1e-9)
    np.testing.assert_allclose(t.kernel_weights, 0.0, atol=1e-9)


def test_translation_solve_recovers_offset(rng):
    c = random_control(rng, 8, spread=0.7)
    offset = np.array([0.15, -0.1])
    t = tps_solve(c, c + offset)
    np.testing.assert_allclose(t.affine[:, 0], offset, atol=1e-9)
    np.testing.assert_allclose(t.affine[:, 1:], np.eye(2), atol=1e-9)
    np.testing.assert_allclose(t.kernel_weights, 0.0, atol=1e-8)


def test_interpolation_property_random_k9(rng):
    c = random_control(rng, 9)
    cp = rng.uniform(-0.9, 0.9, size=(9, 2))
    t = tps_solve(c, cp)
    mapped = tps_apply(t, c)
    assert np.max(np.linalg.norm(mapped - cp, axis=1)) <= 1e-6


def test_boundary_conditions_hold(rng):
    for k in (4, 7, 16):
        c = random_control(rng, k)
        cp = rng.uniform(-0.9, 0.9, size=(k, 2))
        t = tps_solve(c, cp)
        u, v = t.kernel_weights
        for residual in (u.sum(), v.sum(), u @ c[:, 0], v @ c[:, 1]):
            assert abs(residual) <= 1e-8


def test_affine_subsumption(rng):
    a = np.array([[0.9, 0.2], [-0.1, 1.1]])
    b = np.array([0.05, -0.08])
    c = random_control(rng, 12, spread=0.6)
    t = tps_solve(c, c @ a.T + b)
    assert np.max(np.abs(t.kernel_weights)) <= 1e-7


def test_degenerate_collinear_points():
    line = np.stack([np.linspace(-0.8, 0.8, 6), np.linspace(-0.8, 0.8, 6)], axis=1)
    with pytest.raises(DegenerateGeometryError, match="collinear"):
        tps_solve(line, line)


def test_duplicate_points_degenerate():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.5], [-0.5, 0.5]])
    with pytest.raises(DegenerateGeometryError):
        tps_solve(pts, pts)


def test_too_few_points():
    with pytest.raises(ParameterError):
        tps_solve(np.zeros((3, 2)), np.zeros((3, 2)))


# -- apply -----------------------------------------------------------------------


def test_apply_identity_and_control_points(rng):
    c = random_control(rng, 6)
    t = tps_solve(c, c)
    p = rng.uniform(-1, 1, size=(20, 2))
    np.testing.assert_allclose(tps_apply(t, p), p, atol=1e-9)


def test_apply_translation_midpoint(rng):
    c = random_control(rng, 5, spread=0.5)
    offset = np.array([0.1, 0.05])
    t = tps_solve(c, c + offset)
    mid = 0.5 * (c[:1] + c[1:2])
    np.testing.assert_allclose(tps_apply(t, mid)[0], mid[0] + offset, atol=1e-8)


def test_apply_clamps_to_unit_box():
    c = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    t = tps_solve(c, c + np.array([0.6, 0.0]))
    out = tps_apply(t, np.array([[0.9, 0.0]]))
    assert out[0, 0] == 1.0


# -- grids -----------------------------------------------------------------------


def test_identity_grid_exact(rng):
    c = random_control(rng, 7)
    t = tps_solve(c, c)
    grid = tps_grid(t, 16, 16)
    np.testing.assert_allclose(grid, identity_grid(16, 16), atol=1e-9)
    assert grid.shape == (16, 16, 2)


def test_translation_grid_uniform_shift(rng):
    c = random_control(rng, 6, spread=0.5)
    offset = np.array([0.125, -0.0625])
    t = tps_solve(c, c + offset)
    grid = tps_grid(t, 8, 8)
    base = identity_grid(8, 8)
    interior = (np.abs(base + offset) <= 1.0).all(axis=2)
    np.testing.assert_allclose(grid[interior], (base + offset)[interior], atol=1e-8)


def test_grid_extent_validation(rng):
    c = random_control(rng, 5)
    with pytest.raises(ParameterError):
        tps_grid(tps_solve(c, c), 1, 8)


# -- warps -----------------------------------------------------------------------


def test_warp_identity(rng):
    img = rng.uniform(size=(3, 12, 12))
    out = warp_image(img, identity_grid(12, 12))
    np.testing.assert_allclose(out, img, atol=1e-6)


def test_warp_mirror_grid(rng):
    img = rng.uniform(size=(1, 8, 8))
    grid = identity_grid(8, 8)
    grid[..., 0] = -grid[..., 0]
    out = warp_image(img, grid)
    np.testing.assert_allclose(out, img[:, :, ::-1], atol=1e-12)


def test_warp_constant_image_invariant(rng):
    img = np.full((3, 10, 10), 0.42)
    c = random_control(rng, 6)
    grid = tps_grid(tps_solve(c, rng.uniform(-0.8, 0.8, size=(6, 2))), 10, 10)
    np.testing.assert_allclose(warp_image(img, grid), img, atol=1e-12)


def test_warp_image_matches_grid_sample(rng):
    # a fractional TPS grid reaching past the border: both run one kernel
    img = rng.uniform(size=(3, 7, 9))
    c = random_control(rng, 6)
    grid = 1.3 * tps_grid(tps_solve(c, c + rng.uniform(-0.2, 0.2, size=c.shape)), 5, 8)
    assert np.abs(grid).max() > 1.0
    tensor_out = grid_sample(Tensor(img, requires_grad=True), Tensor(grid, requires_grad=True))
    np.testing.assert_array_equal(tensor_out.data, warp_image(img, grid))


# -- min-distance shift -----------------------------------------------------------


def test_min_shift_zero_for_equal_sets(rng):
    p = rng.uniform(size=(5, 2))
    np.testing.assert_array_equal(min_shift(p, p.copy()), [0.0, 0.0])


def test_min_shift_hand_case_vs_brute_force():
    p = np.array([[0.0, 0.0], [2.0, 0.0]])
    q = np.array([[1.0, 1.0], [3.0, 1.0]])
    shift = min_shift(p, q)
    np.testing.assert_allclose(shift, [1.0, 1.0])
    # brute-force grid around the analytic optimum confirms it is the minimizer
    best = np.inf
    for dx in np.linspace(0, 2, 41):
        for dy in np.linspace(0, 2, 41):
            cost = np.sum((p - (q - np.array([dx, dy]))) ** 2)
            best = min(best, cost)
    analytic = np.sum((p - (q - shift)) ** 2)
    assert analytic <= best + 1e-12


def test_min_shift_scales_linearly(rng):
    p = rng.normal(size=(6, 2))
    q = rng.normal(size=(6, 2))
    np.testing.assert_allclose(min_shift(3.0 * p, 3.0 * q), 3.0 * min_shift(p, q), rtol=1e-12)


def test_min_shift_count_mismatch():
    with pytest.raises(ParameterError):
        min_shift(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ParameterError):
        min_shift(np.zeros((0, 2)), np.zeros((0, 2)))


# -- point file format --------------------------------------------------------------


def test_points_round_trip(tmp_path, rng):
    pts = rng.uniform(-1, 1, size=(9, 2))
    path = tmp_path / "pts.txt"
    write_point_text(path, "FATPTS", pts)
    assert path.read_text().splitlines()[0] == "FATPTS 1 9"
    np.testing.assert_allclose(read_points(path), pts, atol=1e-6)


def test_points_bad_header(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("NOTPTS 1 2\n0 0\n1 1\n")
    with pytest.raises(FormatError):
        read_points(path)


def test_points_reject_non_ascii_byte(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_bytes(b"FATPTS 1 1\n0.0 0.0\xff\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}: byte 18 is 0xff, not ASCII text")):
        read_points(path)


@pytest.mark.parametrize("text, where, message", [
    ("FATPTS 1 1000000000\n0 0\n", ":1", "header says '1000000000' points, the file holds 1 point lines"),
    ("FATPTS 1 3\n0 0\n0 0\n", ":1", "header says '3' points, the file holds 2 point lines"),
    ("FATPTS 1 2.5\n0 0\n0 0\n0 0\n", ":1", "header says '2.5' points, the file holds 3 point lines"),
    ("FATPTS 1 -1\n0 0\n", ":1", "header says '-1' points, the file holds 1 point lines"),
    (f"FATPTS 1 {'9' * 5000}\n0 0\n", ":1", f"header says '{'9' * 39} points, the file holds 1 point lines"),
    ("FATPTS 1 2\n0 0\n0 0 0\n", ":3", "expected two numbers 'x y', got '0 0 0'"),
    ("FATPTS 1 2\n0.5\n0 0\n", ":2", "expected two numbers 'x y', got '0.5'"),
    ("FATPTS 1 1\nx 0\n", ":2", "expected two numbers 'x y', got 'x 0'"),
    ("FATPTS 1 3\n0 0\n0 0\n0 1.5\n", ":4", "coordinates must be finite and lie in [-1,1], got 0 1.5"),
    ("FATPTS 1 2\n0 0\nnan 0\n", ":3", "coordinates must be finite and lie in [-1,1], got nan 0"),
], ids=["huge-count", "short-file", "fractional-count", "negative-count", "count-of-5000-digits",
        "three-fields", "one-field", "not-a-number", "out-of-range", "nan"])
def test_points_errors_name_the_count_or_the_line(tmp_path, text, where, message):
    # the header count is checked against the lines present before any is
    # read, so a huge count fails at once; a bad point names its line
    path = tmp_path / "pts.txt"
    path.write_text(text)
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}{where}: {message}')}$"):
        read_points(path)


def test_points_ignore_lines_after_the_count(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("FATPTS 1 1\n0.5 -0.5\nnot a point\n")
    np.testing.assert_array_equal(read_points(path), [[0.5, -0.5]])


def test_points_out_of_range(tmp_path):
    path = tmp_path / "pts.txt"
    for bad in ("2.0 0.0", "nan 0.0", "0.0 nan", "-inf 0.0"):
        path.write_text(f"FATPTS 1 1\n{bad}\n")
        with pytest.raises(FormatError, match="finite and lie in"):
            read_points(path)
