"""Thin-plate-spline solving, dense sampling grids, and image warps.

A TPS is fixed by K control-point pairs (C -> C') in normalized [-1,1]^2
coordinates. Its 2x(K+3) coefficient matrix has a closed form: assemble the
square system from the r^2*log(r) kernel, a ones column and the raw
coordinates, then solve with partially pivoted LU. The solved transform
interpolates its control points exactly and degenerates to the affine map
whenever one explains the data, leaving the kernel weights at zero.

The kernel, the system and the basis rows are built from tensor-engine
operations. Here they run on gradient-free Tensors, so they cost no graph;
`fatkit.spatial` calls the same functions on trainable targets to make its
sampling grid differentiable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import read_point_text
from .tensor import (
    ParameterError,
    ShapeError,
    Tensor,
    bilinear_sample,
    concat,
    linear_solve,
    pairwise_sqdist,
    transpose,
    xlogx,
)

__all__ = [
    "DegenerateGeometryError",
    "TpsTransform",
    "tps_system",
    "tps_basis",
    "tps_coefficients",
    "tps_solve",
    "tps_apply",
    "tps_grid",
    "identity_grid",
    "pixel_lattice",
    "warp_image",
    "min_shift",
    "read_points",
    "CONDITION_LIMIT",
]

CONDITION_LIMIT = 1e12


class DegenerateGeometryError(ArithmeticError):
    """Control-point geometry leaves the TPS system (near-)singular."""


def _kernel(points: Tensor, centers: Tensor) -> Tensor:
    """phi(|p - c|) = r^2 log r for every pair, as 0.5 * xlogx(r^2), so phi(0) = 0."""
    return xlogx(pairwise_sqdist(points, centers)) * 0.5


def tps_basis(points: Tensor, control: Tensor) -> Tensor:
    """Basis rows [1, x, y, phi(|p-c_1|), ..., phi(|p-c_K|)], one per point."""
    ones = Tensor(np.ones((points.shape[0], 1)))
    return concat([ones, points, _kernel(points, control)], axis=1)


def tps_system(control: Tensor) -> Tensor:
    """The (K+3)x(K+3) TPS system over K source control points.

    The first K rows are the basis rows of the control points, one
    interpolation condition each; the last three say the kernel weights are
    orthogonal to 1, x and y. Raises DegenerateGeometryError when the system
    is ill conditioned, e.g. for duplicated or collinear control points.
    """
    basis = tps_basis(control, control)
    side = concat([Tensor(np.zeros((3, 3))), transpose(basis[:, :3])], axis=1)
    system = concat([basis, side], axis=0)
    cond = np.linalg.cond(system.data)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise DegenerateGeometryError(
            f"TPS system condition {cond:.3e} exceeds {CONDITION_LIMIT:.0e}; source points "
            f"are duplicated or collinear: {np.array2string(control.data, precision=4)}"
        )
    return system


def tps_coefficients(src: Tensor, dst: np.ndarray) -> Tensor:
    """(K+3, 2) coefficients, over the `tps_basis` columns, of the TPS taking
    src to dst; differentiable in src. Solved by LU, never by inversion."""
    rhs = np.concatenate([dst, np.zeros((3, 2))], axis=0)
    return linear_solve(tps_system(src), Tensor(rhs))


@dataclass(frozen=True)
class TpsTransform:
    """Solved TPS coefficients together with their source control points.

    matrix rows are (x', y') coefficients over the basis
    [1, x, y, phi(|p-c_1|), ..., phi(|p-c_K|)].
    """

    matrix: np.ndarray  # 2 x (K+3)
    control: np.ndarray  # K x 2 source points

    @property
    def affine(self) -> np.ndarray:
        return self.matrix[:, :3]

    @property
    def kernel_weights(self) -> np.ndarray:
        return self.matrix[:, 3:]


def tps_solve(src: np.ndarray, dst: np.ndarray) -> TpsTransform:
    """Closed-form TPS interpolating src -> dst.

    The boundary conditions (kernel weights orthogonal to 1 and to the
    source coordinates) are rows of the system, so they hold to solver
    precision. Raises DegenerateGeometryError when the system is ill
    conditioned, e.g. duplicate or collinear source points.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.ndim != 2 or src.shape[1] != 2 or src.shape != dst.shape:
        raise ShapeError(f"control points must be matching (K,2) arrays, got {src.shape} and {dst.shape}")
    if src.shape[0] < 4:
        raise ParameterError(f"need at least 4 control points, got {src.shape[0]}")
    coefficients = tps_coefficients(Tensor(src), dst)
    return TpsTransform(matrix=coefficients.data.T, control=src.copy())


def tps_apply(transform: TpsTransform, points: np.ndarray) -> np.ndarray:
    """Map (N,2) points through the transform; results clamp into [-1,1]^2."""
    basis = tps_basis(Tensor(np.asarray(points, dtype=np.float64)), Tensor(transform.control))
    return np.clip(basis.data @ transform.matrix.T, -1.0, 1.0)


def _pixel_centers(n: int) -> np.ndarray:
    """The n pixel-center coordinates of one axis, in [-1,1]."""
    return (2.0 * np.arange(n) + 1.0) / n - 1.0


def pixel_lattice(h: int, w: int) -> np.ndarray:
    """Pixel-center coordinates in [-1,1]^2, row-major, as an (h*w, 2) array."""
    out = np.empty((h * w, 2))
    out[:, 0] = np.tile(_pixel_centers(w), h)
    out[:, 1] = np.repeat(_pixel_centers(h), w)
    return out


def identity_grid(h: int, w: int) -> np.ndarray:
    """The sampling grid that reproduces an image exactly."""
    return pixel_lattice(h, w).reshape(h, w, 2)


def tps_grid(transform: TpsTransform, h: int, w: int) -> np.ndarray:
    """Dense h x w sampling grid: every output pixel mapped through the TPS."""
    if h < 2 or w < 2:
        raise ParameterError(f"grid extents must be >= 2, got {h}x{w}")
    return tps_apply(transform, pixel_lattice(h, w)).reshape(h, w, 2)


def warp_image(image, grid):
    """Resample an image (C,H,W) at a sampling grid, clamping at the border.

    The numpy twin of `tensor.grid_sample`: both run one bilinear kernel.
    """
    return bilinear_sample(np.asarray(image, dtype=np.float64), np.asarray(grid, dtype=np.float64))


def min_shift(src_points: np.ndarray, ref_points: np.ndarray) -> np.ndarray:
    """Translation minimizing sum |P_i - (Q_i - shift)|^2: the mean of Q - P.

    src_points and ref_points must be matched by index.
    """
    p = np.asarray(src_points, dtype=np.float64)
    q = np.asarray(ref_points, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 2 or p.shape[1] != 2:
        raise ParameterError(f"point sets must be matching (N,2) arrays, got {p.shape} and {q.shape}")
    if p.shape[0] == 0:
        raise ParameterError("point sets must be nonempty")
    return (q - p).mean(axis=0)


# -- point-set file format ------------------------------------------------------


def read_points(path) -> np.ndarray:
    """Read a FATPTS control-point set of any size; coordinates lie in [-1,1]."""
    return read_point_text(path, "FATPTS", None, -1.0, 1.0)
