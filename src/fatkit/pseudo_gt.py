"""Pseudo ground truth for supervising attribute transfer.

The preferred generator warps the reference photo onto the source geometry
(coarse full-face TPS from landmark correspondence, then per-part refinement
for lips, eyebrows and eyes pasted back through the source parsing mask), so
the supervision keeps the reference's exact colors. A second stage can move
a part's shape: the reference contour is translated by the mean offset onto
the source location and the part region is warped from the source contour to
that target. `tps_pgt` runs the colour stage and then the shape stage of
each chosen part.

Histogram matching and alpha blending are included as the baseline
generators. All functions are pure numpy over FaceSample inputs and record
their provenance (mode, refined parts) on the result.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .data import ACTIVE_LABEL_SETS, PART_LANDMARKS, FaceSample
from .tensor import ParameterError
from .tps import (
    DegenerateGeometryError,
    identity_grid,
    min_shift,
    tps_apply,
    tps_grid,
    tps_solve,
    warp_image,
)

__all__ = [
    "PseudoGT",
    "color_pgt",
    "spatial_pgt",
    "tps_pgt",
    "histogram_pgt",
    "blend_pgt",
    "check_blend_alpha",
    "HISTOGRAM_REGIONS",
    "pgt_sidecar",
]

# anchor points stabilizing the small part-subset solves
_CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])

# label groups matched by the histogram baseline
HISTOGRAM_REGIONS = {"skin": (1,), **{k: v for k, v in ACTIVE_LABEL_SETS.items() if k != "all"}}

_FACE_LABELS = (1, 2, 3, 4, 5, 6)


@dataclass
class PseudoGT:
    """A generated supervision image plus how it was produced."""

    image: np.ndarray  # same shape as the source image, values in [0,1]
    mode: str  # tps-color | tps-spatial | histogram | blend
    parts_refined: tuple = ()

    def meta_text(self) -> str:
        """The one line of its `pgt_sidecar`: `mode=<mode>` and, when parts
        were refined, ` parts=<comma ids>`."""
        line = f"mode={self.mode}"
        if self.parts_refined:
            line += " parts=" + ",".join(str(p) for p in self.parts_refined)
        return line + "\n"


def _unit(landmarks: np.ndarray) -> np.ndarray:
    """[0,1] image coordinates -> [-1,1] warp coordinates."""
    return np.asarray(landmarks, dtype=np.float64) * 2.0 - 1.0


def _box_blur(mask: np.ndarray) -> np.ndarray:
    """3x3 box mean: a 1-pixel linear ramp at region edges."""
    padded = np.pad(mask.astype(np.float64), 1, mode="edge")
    acc = np.zeros_like(mask, dtype=np.float64)
    for dy in range(3):
        for dx in range(3):
            acc += padded[dy : dy + mask.shape[0], dx : dx + mask.shape[1]]
    return acc / 9.0


def _dilate(mask: np.ndarray, iterations: int) -> np.ndarray:
    """Grow a boolean region by one ring of 8-neighbours per iteration: with
    edge padding, a box sum is nonzero exactly where the pixel or a neighbour is set."""
    for _ in range(iterations):
        mask = _box_blur(mask) > 0.0
    return mask


def _window(region: np.ndarray):
    """(rows, cols) slices of the region's bounding box plus a 1-pixel ring,
    clipped to the image: outside them `_box_blur(region)` is exactly 0."""
    rows = np.flatnonzero(region.any(axis=1))
    cols = np.flatnonzero(region.any(axis=0))
    h, w = region.shape
    return (
        slice(max(rows[0] - 1, 0), min(rows[-1] + 2, h)),
        slice(max(cols[0] - 1, 0), min(cols[-1] + 2, w)),
    )


def _paste(base: np.ndarray, insert: np.ndarray, region: np.ndarray, window) -> np.ndarray:
    """Feathered paste of `insert`, which covers only `window`, over `base`
    inside a boolean region."""
    # the window's ring is False or the image edge, so blurring the window
    # alone gives the same weights as blurring the whole mask
    weight = _box_blur(region[window])[None, :, :]
    out = base.copy()
    out[:, window[0], window[1]] = weight * insert + (1.0 - weight) * base[:, window[0], window[1]]
    return out


def _coarse_warp(source: FaceSample, reference: FaceSample) -> np.ndarray:
    # sampling grids pull, so the spline runs from the source points to the reference's
    transform = tps_solve(_unit(source.landmarks), _unit(reference.landmarks))
    return warp_image(reference.image, tps_grid(transform, source.image.shape[1], source.image.shape[2]))


def color_pgt(source: FaceSample, reference: FaceSample) -> PseudoGT:
    """Reference colors on source geometry, coarse to fine.

    The whole reference image is warped so its landmarks meet the source's;
    then lips, eyebrows and eyes are re-warped from their own landmark
    subsets (plus corner anchors) and pasted back through the source parsing
    mask. Parts whose subset solve degenerates are skipped and left out of
    `parts_refined`. A part's TPS is evaluated, and the reference sampled,
    only on the window its paste can change.
    """
    if source.landmarks.shape != reference.landmarks.shape:
        raise ParameterError("source and reference landmark schemas differ")
    h, w = source.image.shape[1], source.image.shape[2]
    out = _coarse_warp(source, reference)
    lattice = identity_grid(h, w)
    refined = []
    for label, indices in PART_LANDMARKS.items():
        region = source.mask == label
        if not region.any():
            continue
        src_pts = np.concatenate([_unit(source.landmarks[list(indices)]), _CORNERS])
        ref_pts = np.concatenate([_unit(reference.landmarks[list(indices)]), _CORNERS])
        try:
            transform = tps_solve(src_pts, ref_pts)
        except DegenerateGeometryError:
            continue
        window = _window(region)
        points = lattice[window]
        grid = tps_apply(transform, points.reshape(-1, 2)).reshape(points.shape)
        out = _paste(out, warp_image(reference.image, grid), region, window)
        refined.append(label)
    return PseudoGT(image=np.clip(out, 0.0, 1.0), mode="tps-color", parts_refined=tuple(refined))


def _densify_open_contour(points: np.ndarray, count: int = 9) -> np.ndarray:
    """Resample an ordered open contour through a quadratic fit.

    Sparse pin points leave the warp under-constrained between them; fitting
    x(t), y(t) over the cumulative chord parameter and resampling adds
    interior correspondences that follow the part's arc.
    """
    chord = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(points, axis=0), axis=1))])
    if chord[-1] <= 0.0:
        return points
    t = chord / chord[-1]
    dense_t = np.linspace(0.0, 1.0, count)
    fit_x = np.polyfit(t, points[:, 0], 2)
    fit_y = np.polyfit(t, points[:, 1], 2)
    return np.stack([np.polyval(fit_x, dense_t), np.polyval(fit_y, dense_t)], axis=1)


def _spatial_skipped(color_gt: PseudoGT, reason: str) -> PseudoGT:
    """Warn why the spatial stage was skipped; keep the colour stage's output."""
    warnings.warn(f"{reason}; spatial stage skipped")
    return PseudoGT(image=color_gt.image.copy(), mode=color_gt.mode, parts_refined=color_gt.parts_refined)


def spatial_pgt(
    color_gt: PseudoGT, source: FaceSample, reference: FaceSample, part_label: int
) -> PseudoGT:
    """Give one part the reference's shape while keeping the source's place.

    The reference contour is shifted by the mean source-reference offset so
    it sits at the source location; the color-GT part region is warped from
    the source contour onto that target and pasted through the part mask
    (source plus landing region, dilated by 2 pixels). Eyebrow contours are
    densified along their arc before solving so mid-segments follow too.
    """
    if part_label not in PART_LANDMARKS:
        raise ParameterError(f"part label {part_label} has no landmark subset")
    region = source.mask == part_label
    if not region.any() or not (reference.mask == part_label).any():
        return _spatial_skipped(color_gt, f"part {part_label} absent from a parsing mask")
    indices = list(PART_LANDMARKS[part_label])
    src_contour = _unit(source.landmarks[indices])
    ref_contour = _unit(reference.landmarks[indices])
    if part_label in ACTIVE_LABEL_SETS["eyebrows"]:  # brows: open arcs with a meaningful interior
        src_contour = _densify_open_contour(src_contour)
        ref_contour = _densify_open_contour(ref_contour)
    shift = min_shift(src_contour, ref_contour)
    target = ref_contour - shift  # reference shape at the source location
    h, w = color_gt.image.shape[1], color_gt.image.shape[2]
    try:
        transform = tps_solve(np.concatenate([target, _CORNERS]), np.concatenate([src_contour, _CORNERS]))
    except DegenerateGeometryError:
        return _spatial_skipped(color_gt, f"degenerate contour for part {part_label}")
    grid = tps_grid(transform, h, w)
    landed = warp_image(region[None].astype(np.float64), grid)[0] >= 0.5
    paste_region = _dilate(region | landed, 2)
    window = _window(paste_region)
    out = _paste(color_gt.image, warp_image(color_gt.image, grid[window]), paste_region, window)
    return PseudoGT(
        image=np.clip(out, 0.0, 1.0),
        mode="tps-spatial",
        parts_refined=tuple(sorted(set(color_gt.parts_refined) | {part_label})),
    )


def tps_pgt(source: FaceSample, reference: FaceSample, labels) -> PseudoGT:
    """The warp-based pseudo ground truth: `color_pgt`, then `spatial_pgt`
    for each label of `labels` in order. Labels with no landmark contour
    (skin, hair) have no shape stage and are passed over."""
    result = color_pgt(source, reference)
    for label in labels:
        if label in PART_LANDMARKS:
            result = spatial_pgt(result, source, reference, label)
    return result


def _match_channel(src_vals: np.ndarray, ref_vals: np.ndarray, bins: int = 256) -> np.ndarray:
    """Monotone map of one channel's region values onto a reference CDF.

    Values quantize to 256 bins; each source bin's CDF height is pushed
    through the reference's inverse CDF (linear interpolation over the bins
    that actually carry mass, so CDF plateaus cannot smear the lookup).
    """
    centers = (np.arange(bins) + 0.5) / bins
    src_idx = np.clip((src_vals * bins).astype(np.int64), 0, bins - 1)
    ref_idx = np.clip((ref_vals * bins).astype(np.int64), 0, bins - 1)
    src_cdf = np.cumsum(np.bincount(src_idx, minlength=bins)) / src_vals.size
    ref_hist = np.bincount(ref_idx, minlength=bins)
    ref_cdf = np.cumsum(ref_hist) / ref_vals.size
    occupied = ref_hist > 0
    lut = np.interp(src_cdf, ref_cdf[occupied], centers[occupied])
    return lut[src_idx]


def histogram_pgt(source: FaceSample, reference: FaceSample) -> PseudoGT:
    """Per-region, per-channel monotone histogram matching onto the reference.

    Skin, lips, eyes and eyebrows are matched independently; regions empty on
    either side are skipped. Background and hair pass through untouched.
    """
    out = source.image.copy()
    matched = []
    for labels in HISTOGRAM_REGIONS.values():
        src_sel = np.isin(source.mask, labels)
        ref_sel = np.isin(reference.mask, labels)
        if not src_sel.any() or not ref_sel.any():
            continue
        for c in range(3):
            out[c][src_sel] = _match_channel(source.image[c][src_sel], reference.image[c][ref_sel])
        matched.extend(labels)
    return PseudoGT(
        image=np.clip(out, 0.0, 1.0), mode="histogram", parts_refined=tuple(sorted(matched))
    )


def check_blend_alpha(alpha: float):
    """Raise ParameterError unless `alpha` is a `blend_pgt` weight in [0,1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must lie in [0,1], got {alpha}")


def blend_pgt(source: FaceSample, reference: FaceSample, alpha: float = 0.8) -> PseudoGT:
    """Coarse-warped reference alpha-blended over the source's face region."""
    check_blend_alpha(alpha)
    warped = _coarse_warp(source, reference)
    face = np.isin(source.mask, _FACE_LABELS)[None, :, :]
    out = np.where(face, alpha * warped + (1.0 - alpha) * source.image, source.image)
    return PseudoGT(image=np.clip(out, 0.0, 1.0), mode="blend", parts_refined=())


def pgt_sidecar(path) -> str:
    """The .meta sidecar path of a pseudo-GT image written at `path`. It
    depends on `path` alone, so a command can check it before it builds the
    pseudo-GT; `PseudoGT.meta_text` gives the sidecar's text."""
    return os.path.splitext(str(path))[0] + ".meta"
