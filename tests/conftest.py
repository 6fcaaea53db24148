"""Shared test helpers: finite-difference gradient oracle and RNG fixtures."""

import numpy as np
import pytest

from fatkit.tensor import Tensor, matmul, reshape, softmax, transpose, zero_grads


def finite_diff_grads(fn, tensors, h=1e-5):
    """Central-difference gradients of a scalar-valued fn w.r.t. each tensor.

    `fn` receives the tensors and must return a scalar Tensor. The oracle
    never touches the autograd machinery: it re-evaluates fn at perturbed
    inputs, so it stays independent of the backward rules it checks.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        for idx in np.ndindex(t.data.shape):
            keep = t.data[idx]
            t.data[idx] = keep + h
            hi = fn(*tensors).item()
            t.data[idx] = keep - h
            lo = fn(*tensors).item()
            t.data[idx] = keep
            g[idx] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def check_grads(fn, tensors, h=1e-5, tol=1e-4):
    """Assert autograd and finite differences agree in relative error."""
    zero_grads(tensors)
    out = fn(*tensors)
    out.backward()
    expected = finite_diff_grads(fn, tensors, h=h)
    worst = 0.0
    for t, ref in zip(tensors, expected):
        got = t.grad if t.grad is not None else np.zeros_like(t.data)
        denom = np.maximum(np.maximum(np.abs(ref), np.abs(got)), 1.0)
        rel = np.max(np.abs(got - ref) / denom)
        worst = max(worst, rel)
    assert worst <= tol, f"max relative gradient error {worst:.3e} exceeds {tol:.1e}"
    return worst


def leaf(rng, *shape, scale=1.0):
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# -- synthetic-face oracles shared by the pseudo-GT and acceptance suites -----


def brow_shape(image, source_mask, label):
    """Sagitta (px) and centroid of one brow's centerline in an image.

    Brow pixels are detected as dark, low-blue pixels inside the brow
    neighbourhood whose source parsing label is skin or brow (this excludes
    hair, which shares the brow palette near the face rim). Per-column
    luminance-weighted centers are fit with a parabola after one outlier
    rejection pass; sagitta is the fitted rise over the half-span.
    """
    ys, xs = np.nonzero(source_mask == label)
    y0, y1 = max(ys.min() - 4, 0), ys.max() + 4
    x0, x1 = xs.min(), xs.max() + 1
    roi = image[:, y0:y1, x0:x1]
    allowed = np.isin(source_mask[y0:y1, x0:x1], (1, 2, 3))
    weight = np.clip(0.55 - roi.mean(axis=0), 0.0, None) * (roi[2] < 0.28) * allowed
    cols, centers = [], []
    for x in range(weight.shape[1]):
        wcol = weight[:, x]
        if wcol.sum() > 0.1:
            cols.append(x)
            centers.append((wcol * np.arange(wcol.size)).sum() / wcol.sum())
    cols = np.array(cols, dtype=float)
    centers = np.array(centers)
    keep = np.abs(centers - np.median(centers)) <= 3.5
    cols, centers = cols[keep], centers[keep]
    coeff = np.polyfit(cols, centers, 2)
    good = np.abs(np.polyval(coeff, cols) - centers) <= 1.5
    if good.sum() >= 6:
        cols, centers = cols[good], centers[good]
        coeff = np.polyfit(cols, centers, 2)
    half = (cols.max() - cols.min()) / 2.0
    sagitta = -coeff[0] * half * half
    return sagitta, np.array([centers.mean() + y0, cols.mean() + x0])


def brow_shape_pair(seed, size=64):
    """Crescent-brow source and straight-brow reference, front pose."""
    import dataclasses

    from fatkit.data import random_face_params, synth_face

    r = np.random.default_rng(seed)
    src = dataclasses.replace(
        random_face_params(r, "plain", seed=seed),
        brow_curvature=float(r.uniform(0.4, 0.5)),
        brow_thickness=float(r.uniform(0.032, 0.042)),
        rotation_deg=0.0, shift=(0.0, 0.0), shade_strength=0.0,
    )
    ref = dataclasses.replace(
        random_face_params(r, "makeup", seed=seed + 1000),
        brow_curvature=float(r.uniform(-0.03, 0.03)),
        brow_thickness=float(r.uniform(0.032, 0.042)),
        rotation_deg=0.0, shift=(0.0, 0.0), shade_strength=0.0,
    )
    return synth_face(src, size), synth_face(ref, size)


def composed_attention(q, keys, w_mix):
    """The attention A of `mixed_attention` built from the general ops: the
    reference graph."""
    k = w_mix.shape[0]
    (m, width), mp = q.shape, keys.shape[0]
    qh = transpose(reshape(q, (m, k, width // k)), (1, 0, 2))
    rh = transpose(reshape(keys, (mp, k, width // k)), (1, 2, 0))
    heads = softmax(matmul(qh, rh), axis=2)
    mix = reshape(softmax(w_mix, axis=0), (1, k))
    return reshape(matmul(mix, reshape(heads, (k, m * mp))), (m, mp))
