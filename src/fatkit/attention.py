"""Cross-face attention and per-position attribute transfer.

One face supplies identity (the query side), the other supplies attributes
(the reference side). Each pixel's features are extended with a landmark
embedding, projected, and matched by scaled dot-product attention; the
resulting row-stochastic matrix resamples per-position scale/bias attribute
vectors from the reference layout onto the query layout, where they act as
a diagonal affine color transform on the query features.

Feature maps are (d, h, w) tensors; attention-side code works on row-major
flattened (h*w, d) views.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .tensor import (
    ParameterError,
    ShapeError,
    Tensor,
    concat,
    conv2d,
    matmul,
    mixed_attention,
    reshape,
    softmax,
    transpose,
)

__all__ = [
    "FatParams",
    "FatReference",
    "landmark_embedding",
    "flatten_map",
    "unflatten_map",
    "multi_head",
    "estimate_attributes",
    "fat_reference",
    "transfer_attributes",
    "color_transform",
    "fat_forward",
    "static_attention",
]


def landmark_embedding(h: int, w: int, landmarks: np.ndarray) -> np.ndarray:
    """Per-pixel offsets to every landmark, flattened and unit-normalized.

    Pixel centers and landmarks both live in [0,1]^2 (x right, y down); the
    row for a pixel concatenates (pixel - landmark_i) over all landmarks and
    is divided by its 2-norm. An all-zero row (pixel exactly on the only
    landmark) is kept at zero. Returns (h*w, 2N).
    """
    lm = np.asarray(landmarks, dtype=np.float64)
    if lm.ndim != 2 or lm.shape[1] != 2 or lm.shape[0] == 0:
        raise ParameterError(f"landmarks must be a nonempty (N,2) array, got {lm.shape}")
    if h < 1 or w < 1:
        raise ParameterError(f"embedding extents must be >= 1, got {h}x{w}")
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    pix = np.stack([(xs.ravel() + 0.5) / w, (ys.ravel() + 0.5) / h], axis=1)
    offsets = pix[:, None, :] - lm[None, :, :]  # (M, N, 2)
    flat = offsets.reshape(h * w, -1)
    norms = np.linalg.norm(flat, axis=1, keepdims=True)
    return np.where(norms > 0.0, flat / np.where(norms > 0.0, norms, 1.0), 0.0)


def flatten_map(x: Tensor) -> Tensor:
    """(d,h,w) feature map -> (h*w, d) rows in row-major pixel order."""
    d = x.shape[0]
    return transpose(reshape(x, (d, x.shape[1] * x.shape[2])))


def unflatten_map(x: Tensor, h: int, w: int) -> Tensor:
    """(h*w, d) rows -> (d,h,w) feature map."""
    return reshape(transpose(x), (x.shape[1], h, w))


class FatParams:
    """Learnable state of one attribute-transfer block.

    Per-head query/reference projections are packed side by side so all
    heads run in a single batched pass; head mixing goes through a softmax,
    keeping the combined attention row-stochastic. The attribute estimator
    is a 1x1 then 3x3 convolution pair producing d scale and d bias channels.
    """

    def __init__(self, d: int, heads: int, n_landmarks: int, rng, estimator: str = "identity"):
        if heads < 1:
            raise ParameterError(f"head count must be >= 1, got {heads}")
        if estimator not in ("identity", "random"):
            raise ParameterError(f"estimator must be 'identity' or 'random', got {estimator!r}")
        self.d = d
        self.heads = heads
        self.dk = max(d // heads, 1)
        width = d + 2 * n_landmarks
        scale = 1.0 / math.sqrt(width)
        self.w_query = Tensor(rng.normal(0.0, scale, size=(width, heads * self.dk)), requires_grad=True)
        self.w_ref = Tensor(rng.normal(0.0, scale, size=(width, heads * self.dk)), requires_grad=True)
        self.w_mix = Tensor(np.zeros(heads), requires_grad=True)
        est_scale = 1.0 / math.sqrt(d)
        self.est1_w = Tensor(rng.normal(0.0, est_scale, size=(d, d, 1, 1)), requires_grad=True)
        self.est1_b = Tensor(np.zeros(d), requires_grad=True)
        if estimator == "identity":
            # zero final weights with scale-one bias: attributes start as the
            # identity color transform regardless of the attention pattern
            self.est2_w = Tensor(np.zeros((2 * d, d, 3, 3)), requires_grad=True)
        else:
            self.est2_w = Tensor(rng.normal(0.0, est_scale / 3.0, size=(2 * d, d, 3, 3)), requires_grad=True)
        bias = np.concatenate([np.ones(d), np.zeros(d)])
        self.est2_b = Tensor(bias, requires_grad=True)

    def tensors(self) -> dict:
        return {
            "w_query": self.w_query,
            "w_ref": self.w_ref,
            "w_mix": self.w_mix,
            "est1_w": self.est1_w,
            "est1_b": self.est1_b,
            "est2_w": self.est2_w,
            "est2_b": self.est2_b,
        }

    def parameters(self) -> list:
        return list(self.tensors().values())


def _augment(features: Tensor, embedding) -> Tensor:
    if embedding.shape[0] != features.shape[0]:
        raise ShapeError(
            f"embedding rows {embedding.shape} do not match feature rows {features.shape}"
        )
    return concat([features, embedding], axis=1)


def _reference_keys(y_flat: Tensor, le_y, params: FatParams) -> Tensor:
    """Every head's projected reference rows, packed side by side: (M', k*dk)."""
    return matmul(_augment(y_flat, le_y), params.w_ref)


def _attend(x_flat: Tensor, le_x, keys: Tensor, params: FatParams, values: Tensor) -> Tensor:
    """The query side of `multi_head`, against prebuilt `_reference_keys`,
    times the (M', dv) values.

    The scaled query projection and the keys go to `mixed_attention`, which
    keeps their `matmul` recipes in place of the (k, M, M') per-head scores,
    rebuilds both projections and recomputes the scores in the backward,
    and returns the attention times the values, so no M x M' array, and no
    projection, outlives the op.
    """
    q = matmul(_augment(x_flat, le_x), params.w_query * (1.0 / math.sqrt(params.dk)))  # (M, k*dk)
    return mixed_attention(q, keys, params.w_mix, values)


def multi_head(x_flat: Tensor, y_flat: Tensor, le_x, le_y, params: FatParams) -> Tensor:
    """Softmax-weighted convex combination of all heads, computed batched.

    All heads run in one `mixed_attention` op, a single batched GEMM rather
    than a loop; their mixture stays row-stochastic by construction, and
    the graph keeps the projections, not the per-head scores. The op's
    values are the (M', M') identity, so it returns the attention itself:
    each row of A is finite in [0, 1] or all NaN, and A @ I is A bit for bit.
    """
    keys = _reference_keys(y_flat, le_y, params)
    return _attend(x_flat, le_x, keys, params, Tensor(np.eye(keys.shape[0])))


def estimate_attributes(y_map: Tensor, params: FatParams) -> Tensor:
    """Distill a (d,h,w) reference map into 2d attribute channels.

    A 1x1 then 3x3 convolution keeps the output spatially registered with
    its input: d scale channels followed by d bias channels.
    """
    hidden = conv2d(y_map, params.est1_w, params.est1_b, stride=1)
    return conv2d(hidden, params.est2_w, params.est2_b, stride=1)


def transfer_attributes(attn: Tensor, gamma_ref: Tensor) -> Tensor:
    """Resample reference attribute rows onto query positions: A @ gamma.

    For an attention matrix built on its own, such as `multi_head`'s or
    `static_attention`'s. `fat_forward` does not call it: `mixed_attention`
    takes the attribute rows as its values, so its graph keeps no A.
    """
    if attn.shape[1] != gamma_ref.shape[0]:
        raise ShapeError(f"attention {attn.shape} does not match attributes {gamma_ref.shape}")
    return matmul(attn, gamma_ref)


def color_transform(x_flat: Tensor, gamma: Tensor) -> Tensor:
    """Per-position diagonal affine map: out = scale * x + bias.

    gamma holds d scale coefficients then d bias coefficients per row.
    """
    d = x_flat.shape[1]
    if gamma.shape != (x_flat.shape[0], 2 * d):
        raise ShapeError(f"attributes {gamma.shape} do not match features {x_flat.shape}")
    return x_flat * gamma[:, :d] + gamma[:, d:]


class FatReference(NamedTuple):
    """The reference side of one attribute-transfer block.

    It depends only on the reference map, its landmark embedding and the
    block's weights, so one build serves every query of that reference, as
    a Transformer projects its keys and values once per source sequence.
    The embedding is also the face's query embedding, in a transfer onto it.
    Each query's `mixed_attention` node keeps the one `keys` and
    `attributes` recipes, not copies of their values, and rebuilds the
    keys, its per-head scores and its attention in the backward.
    """

    embedding: np.ndarray  # (M', 2N) landmark embedding of the reference
    keys: Tensor  # (M', k*dk) every head's projected reference rows
    attributes: Tensor  # (M', 2d) `estimate_attributes` rows


def fat_reference(y_map: Tensor, le_y, params: FatParams) -> FatReference:
    """Build the reference side of a (d,h,w) map for one block's weights."""
    keys = _reference_keys(flatten_map(y_map), le_y, params)
    return FatReference(le_y, keys, flatten_map(estimate_attributes(y_map, params)))


def fat_forward(x_map: Tensor, y_map: Tensor, le_x, le_y, params: FatParams,
                ref: FatReference = None) -> Tensor:
    """Full attribute-transfer pass; output matches the query map's shape.

    `ref` is `fat_reference(y_map, le_y, params)` when the caller built it
    already, to share it between the queries of one reference. The attribute
    rows are the attention op's values, so the transfer A @ gamma happens
    inside `mixed_attention` and the graph keeps no (M, M') matrix.
    """
    if ref is None:
        ref = fat_reference(y_map, le_y, params)
    _, h, w = x_map.shape
    x_flat = flatten_map(x_map)
    gamma = _attend(x_flat, le_x, ref.keys, params, ref.attributes)
    return unflatten_map(color_transform(x_flat, gamma), h, w)


STATIC_DILUTION = 0.01  # the feature weight beside the unit-norm landmark embedding


def static_attention(x_flat: Tensor, y_flat: Tensor, le_x, le_y) -> Tensor:
    """Parameter-free attention: landmark-embedding similarity with features
    diluted by `STATIC_DILUTION`. The ablation baseline and the per-part
    sequential benchmark reference.
    """
    a = _augment(x_flat * STATIC_DILUTION, le_x)
    b = _augment(y_flat * STATIC_DILUTION, le_y)
    return softmax(matmul(a, transpose(b)), axis=1)
