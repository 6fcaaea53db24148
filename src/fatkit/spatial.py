"""Attention-predicted thin-plate-spline warping gated by parsing masks.

Extends the color-only attribute transfer with a spatial stage: a reversed
attention pass aligns the reference features to the query layout, a small
head predicts TPS target control points over a coarse lattice, and the
color-transformed features are warped through the resulting sampling grid.
Grid entries outside the active part labels are pinned to the identity, so
unselected regions pass through bit-exactly and receive no warp gradients.

The TPS solve is the one in `fatkit.tps`, built from tensor operations
(kernel matrix, linear solve, basis projection), so gradients reach the
control-point predictor through the sampling grid. Geometry where the
predicted targets are duplicated or collinear makes the solve singular;
the warp then falls back to the identity grid and reports it instead of
failing.
"""

from __future__ import annotations

import math

import numpy as np

from .attention import FatParams, FatReference, fat_forward
from .tensor import (
    ParameterError,
    ShapeError,
    Tensor,
    avg_pool2d,
    conv2d,
    grid_sample,
    matmul,
    named_tensors,
    reshape,
    tanh,
    transpose,
)
from .tps import (
    DegenerateGeometryError,
    identity_grid,
    pixel_lattice,
    tps_basis,
    tps_coefficients,
)

__all__ = [
    "SpatialFatParams",
    "predict_control_points",
    "tps_grid_from_targets",
    "masked_tps_warp",
    "spatial_fat_forward",
]


class SpatialFatParams:
    """Color-transfer block, alignment block, and the control-point head.

    With `ctrl_init='identity'` the head starts at zero weights and an
    atanh-of-lattice positional bias, which makes the predicted targets equal
    the lattice: the warp is the identity and the whole module reduces to the
    plain color transfer until training moves the head.
    """

    def __init__(
        self,
        d: int,
        heads: int,
        n_landmarks: int,
        rng,
        grid_size: int = 8,
        active_labels=(2, 3),
        estimator: str = "identity",
        ctrl_init: str = "identity",
        color_block: FatParams = None,
    ):
        if ctrl_init not in ("identity", "random"):
            raise ParameterError(f"ctrl_init must be 'identity' or 'random', got {ctrl_init!r}")
        # the color block may be shared with a surrounding model; only the
        # alignment block and control head are owned here in that case
        self.owns_color = color_block is None
        self.fat = color_block if color_block is not None else FatParams(
            d, heads, n_landmarks, rng, estimator=estimator
        )
        self.align = FatParams(d, heads, n_landmarks, rng, estimator=estimator)
        self.grid_size = grid_size
        self.active_labels = tuple(active_labels)
        lattice_map = (
            pixel_lattice(grid_size, grid_size).reshape(grid_size, grid_size, 2).transpose(2, 0, 1)
        )
        if ctrl_init == "identity":
            self.ctrl_w = Tensor(np.zeros((2, d, 3, 3)), requires_grad=True)
        else:
            self.ctrl_w = Tensor(rng.normal(0.0, 0.05 / d, size=(2, d, 3, 3)), requires_grad=True)
        self.ctrl_b = Tensor(np.zeros(2), requires_grad=True)
        self.ctrl_pos = Tensor(np.arctanh(lattice_map), requires_grad=True)

    def tensors(self) -> dict:
        parts = [("fat", self.fat)] if self.owns_color else []
        named = named_tensors(parts + [("align", self.align)])
        named.update({"ctrl_w": self.ctrl_w, "ctrl_b": self.ctrl_b, "ctrl_pos": self.ctrl_pos})
        return named

    def parameters(self) -> list:
        return list(self.tensors().values())


def predict_control_points(aligned: Tensor, params: SpatialFatParams) -> Tensor:
    """Predict the (K, 2) tanh-bounded targets of the K-point coarse lattice.

    The aligned features are stride-pooled down to the lattice resolution,
    a 3x3 convolution maps them to 2 coordinate channels, and a per-position
    bias (the atanh of the lattice at identity initialization) recenters the
    tanh output.
    """
    d, h, w = aligned.shape
    hs = params.grid_size
    if h % hs or w % hs:
        raise ShapeError(f"feature extent {h}x{w} not divisible by control grid {hs}")
    pre = conv2d(avg_pool2d(aligned, h // hs), params.ctrl_w, params.ctrl_b, stride=1) + params.ctrl_pos
    return transpose(reshape(tanh(pre), (2, hs * hs)))


def tps_grid_from_targets(targets: Tensor, h: int, w: int):
    """Dense sampling grid carrying lattice content onto the targets.

    The source of the (K, 2) targets is the square `pixel_lattice(n, n)`
    with n*n = K, as in the TPS spatial transformer (Jaderberg et al.,
    2015); any other target shape is a ShapeError. Solves the TPS that maps
    targets back to the lattice (the sampling direction) with the shared
    `fatkit.tps` solve, so the grid is differentiable in the targets.
    Returns (grid, solved); when the target geometry is degenerate the
    identity grid is returned with solved=False.
    """
    side = math.isqrt(targets.shape[0])
    if targets.shape != (side * side, 2):
        raise ShapeError(f"targets {targets.shape} are not the (x, y) points of a square lattice")
    try:
        coefficients = tps_coefficients(targets, pixel_lattice(side, side))
    except DegenerateGeometryError:
        return Tensor(identity_grid(h, w)), False
    basis = tps_basis(Tensor(pixel_lattice(h, w)), targets)
    return reshape(matmul(basis, coefficients), (h, w, 2)), True


def _nearest_mask(mask: np.ndarray, h: int, w: int) -> np.ndarray:
    """Down-sample a label grid by taking the cell-center label."""
    mh, mw = mask.shape
    if mh % h or mw % w:
        raise ShapeError(f"mask {mask.shape} not reducible to {h}x{w}")
    sy, sx = mh // h, mw // w
    return mask[sy // 2 :: sy, sx // 2 :: sx]


def masked_tps_warp(x, targets: Tensor, mask: np.ndarray, active_labels):
    """Warp only the regions whose parsing label is active.

    The sampling grid equals the TPS grid inside active labels and the
    identity grid elsewhere, then one bilinear pass resamples the input.
    Returns (warped, solved); a degenerate TPS solve keeps the identity grid
    everywhere and reports solved=False.
    """
    _, h, w = x.shape
    grid, solved = tps_grid_from_targets(targets, h, w)
    ident = identity_grid(h, w)
    if solved:
        local = _nearest_mask(np.asarray(mask), h, w)
        gate = np.isin(local, np.asarray(list(active_labels))).astype(np.float64)
        gate3 = np.repeat(gate[:, :, None], 2, axis=2)
        grid = grid * Tensor(gate3) + Tensor(ident * (1.0 - gate3))
    return grid_sample(x, grid), solved


def spatial_fat_forward(
    x_map: Tensor, y_map: Tensor, le_x, le_y, mask: np.ndarray, params: SpatialFatParams,
    ref: FatReference = None,
):
    """Color transfer followed by the mask-gated predicted warp.

    `ref` is the colour block's `fat_reference(y_map, le_y, params.fat)`
    when the caller built it already. Returns (features, solved) where
    solved=False flags the identity-grid fallback after a degenerate
    control-point prediction.
    """
    colored = fat_forward(x_map, y_map, le_x, le_y, params.fat, ref=ref)
    # the reference corresponded to the query layout: the same transfer pass
    # with the roles swapped, so the query supplies the attributes
    aligned = fat_forward(y_map, x_map, le_y, le_x, params.align)
    targets = predict_control_points(aligned, params)
    return masked_tps_warp(colored, targets, mask, params.active_labels)
