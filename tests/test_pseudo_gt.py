"""Pseudo-ground-truth generators: warp, shape transfer, histogram, blend."""

import dataclasses

import numpy as np
import pytest

from conftest import brow_shape, brow_shape_pair
from fatkit.data import LANDMARK_COUNT, PART_LANDMARKS, FaceSample, random_face_params, synth_face
from fatkit.pseudo_gt import (
    HISTOGRAM_REGIONS,
    _densify_open_contour,
    _dilate,
    blend_pgt,
    color_pgt,
    histogram_pgt,
    pgt_sidecar,
    spatial_pgt,
    tps_pgt,
)
from fatkit.tensor import ParameterError
from fatkit.tps import min_shift, tps_grid, tps_solve, warp_image


def face(seed, group="plain", **overrides):
    params = random_face_params(np.random.default_rng(seed), group, seed=seed)
    if overrides:
        params = dataclasses.replace(params, **overrides)
    return synth_face(params, 64)


@pytest.fixture(scope="module")
def plain_face():
    return face(3, "plain")


@pytest.fixture(scope="module")
def makeup_face():
    return face(4, "makeup")


# -- color PGT -------------------------------------------------------------------


def test_color_pgt_self_pair_identity(makeup_face):
    gt = color_pgt(makeup_face, makeup_face)
    assert np.abs(gt.image - makeup_face.image).max() <= 1e-3
    assert gt.mode == "tps-color"
    assert gt.parts_refined == (2, 3, 4, 5, 6)


def test_color_pgt_rigid_shift_realigns():
    base = random_face_params(np.random.default_rng(7), "makeup", seed=8)
    still = dataclasses.replace(base, shift=(0.0, 0.0), rotation_deg=0.0, shade_strength=0.0)
    moved = dataclasses.replace(base, shift=(1 / 64, -1 / 64), rotation_deg=0.0, shade_strength=0.0)
    src, ref = synth_face(still, 64), synth_face(moved, 64)
    gt = color_pgt(src, ref)
    interior = np.s_[:, 8:-8, 8:-8]
    assert np.abs(gt.image - src.image)[interior].mean() <= 2e-2


def test_color_pgt_lip_region_mean_matches_reference(plain_face, makeup_face):
    gt = color_pgt(plain_face, makeup_face)
    got = gt.image[:, plain_face.mask == 6].mean(axis=1)
    want = makeup_face.image[:, makeup_face.mask == 6].mean(axis=1)
    assert np.abs(got - want).max() <= 0.05


def test_color_pgt_output_contract(plain_face, makeup_face):
    gt = color_pgt(plain_face, makeup_face)
    assert gt.image.shape == plain_face.image.shape
    assert gt.image.min() >= 0.0 and gt.image.max() <= 1.0


def test_color_pgt_leaves_out_a_degenerate_part(plain_face, makeup_face):
    # a lip landmark on the (0, 0) corner anchor makes the lip solve singular
    landmarks = plain_face.landmarks.copy()
    landmarks[24] = 0.0
    source = dataclasses.replace(plain_face, landmarks=landmarks)
    assert color_pgt(source, makeup_face).parts_refined == (2, 3, 4, 5)


def test_color_pgt_schema_mismatch(plain_face):
    broken = FaceSample(
        image=plain_face.image, landmarks=plain_face.landmarks[:10], mask=plain_face.mask
    )
    with pytest.raises(ParameterError):
        color_pgt(plain_face, broken)


# -- spatial PGT -----------------------------------------------------------------


def test_spatial_pgt_same_shape_same_place_is_noop(makeup_face):
    gt = color_pgt(makeup_face, makeup_face)
    out = spatial_pgt(gt, makeup_face, makeup_face, 2)
    assert np.abs(out.image - gt.image).max() <= 1e-3
    assert out.mode == "tps-spatial"
    assert 2 in out.parts_refined


def test_spatial_pgt_translation_cancels():
    # same brow shape at a different place: the mean shift absorbs it all
    base = random_face_params(np.random.default_rng(9), "plain", seed=10)
    a = dataclasses.replace(base, rotation_deg=0.0, shade_strength=0.0, shift=(0.0, 0.0))
    b = dataclasses.replace(base, rotation_deg=0.0, shade_strength=0.0, shift=(0.02, -0.015))
    src, ref = synth_face(a, 64), synth_face(b, 64)
    gt = color_pgt(src, src)
    out = spatial_pgt(gt, src, ref, 3)
    assert np.abs(out.image - gt.image).max() <= 1e-3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spatial_pgt_transfers_brow_shape(seed):
    src, ref = brow_shape_pair(seed)
    gt = spatial_pgt(color_pgt(src, ref), src, ref, 2)
    gt = spatial_pgt(gt, src, ref, 3)
    for label in (2, 3):
        sag_src, cen_src = brow_shape(src.image, src.mask, label)
        sag_ref, _ = brow_shape(ref.image, ref.mask, label)
        sag_out, cen_out = brow_shape(gt.image, src.mask, label)
        gap = abs(sag_src - sag_ref)
        assert abs(sag_out - sag_ref) <= 0.2 * gap
        assert np.linalg.norm(cen_out - cen_src) <= 2.0


def test_spatial_pgt_missing_part_warns(makeup_face):
    gt = color_pgt(makeup_face, makeup_face)
    erased = FaceSample(
        image=makeup_face.image,
        landmarks=makeup_face.landmarks,
        mask=np.where(makeup_face.mask == 2, 1, makeup_face.mask).astype(np.uint8),
    )
    with pytest.warns(UserWarning, match="absent"):
        out = spatial_pgt(gt, erased, makeup_face, 2)
    np.testing.assert_array_equal(out.image, gt.image)
    assert out.parts_refined == gt.parts_refined
    assert out.mode == gt.mode


def test_spatial_pgt_degenerate_contour_keeps_color_stage(makeup_face):
    gt = color_pgt(makeup_face, makeup_face)
    landmarks = makeup_face.landmarks.copy()
    landmarks[list(PART_LANDMARKS[6])] = landmarks[PART_LANDMARKS[6][0]]
    collapsed = dataclasses.replace(makeup_face, landmarks=landmarks)
    with pytest.warns(UserWarning, match="degenerate contour"):
        out = spatial_pgt(gt, makeup_face, collapsed, 6)
    np.testing.assert_array_equal(out.image, gt.image)
    assert out.parts_refined == gt.parts_refined
    assert out.mode == gt.mode


def test_spatial_pgt_unknown_label(makeup_face):
    gt = color_pgt(makeup_face, makeup_face)
    with pytest.raises(ParameterError):
        spatial_pgt(gt, makeup_face, makeup_face, 9)


def test_tps_pgt_is_color_stage_then_shape_stages_in_order(plain_face, makeup_face):
    expected = color_pgt(plain_face, makeup_face)
    for label in (6, 2):
        expected = spatial_pgt(expected, plain_face, makeup_face, label)
    got = tps_pgt(plain_face, makeup_face, (6, 2))
    assert got.image.tobytes() == expected.image.tobytes()
    assert (got.mode, got.parts_refined) == (expected.mode, expected.parts_refined)
    flat = tps_pgt(plain_face, makeup_face, ())
    assert flat.image.tobytes() == color_pgt(plain_face, makeup_face).image.tobytes()
    assert flat.mode == "tps-color"


def test_tps_pgt_passes_over_labels_without_a_contour(plain_face, makeup_face):
    # skin (1) and hair (7) have no landmark subset, so the set 'all' runs
    # the shape stage of the five parts only
    every = tps_pgt(plain_face, makeup_face, (1, 2, 3, 4, 5, 6, 7))
    parts = tps_pgt(plain_face, makeup_face, (2, 3, 4, 5, 6))
    assert every.image.tobytes() == parts.image.tobytes()
    assert (every.mode, every.parts_refined) == ("tps-spatial", (2, 3, 4, 5, 6))


# -- part warps against a full-grid reference ---------------------------------------


CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


def _full_grid_warp(image, content_src, content_dst):
    h, w = image.shape[1:]
    return warp_image(image, tps_grid(tps_solve(content_dst, content_src), h, w))


def _full_paste(base, insert, region):
    padded = np.pad(region.astype(np.float64), 1, mode="edge")
    acc = np.zeros(region.shape)
    for dy in range(3):
        for dx in range(3):
            acc += padded[dy : dy + region.shape[0], dx : dx + region.shape[1]]
    weight = (acc / 9.0)[None]
    return weight * insert + (1.0 - weight) * base


def _full_grid_color_pgt(source, reference):
    # warp the whole reference for every part, then paste through the mask
    out = _full_grid_warp(reference.image, reference.landmarks * 2.0 - 1.0, source.landmarks * 2.0 - 1.0)
    for label, indices in PART_LANDMARKS.items():
        region = source.mask == label
        if region.any():
            ref_pts = np.concatenate([reference.landmarks[list(indices)] * 2.0 - 1.0, CORNERS])
            src_pts = np.concatenate([source.landmarks[list(indices)] * 2.0 - 1.0, CORNERS])
            out = _full_paste(out, _full_grid_warp(reference.image, ref_pts, src_pts), region)
    return np.clip(out, 0.0, 1.0)


def _full_grid_spatial_pgt(color_image, source, reference, label):
    indices = list(PART_LANDMARKS[label])
    src_contour = source.landmarks[indices] * 2.0 - 1.0
    ref_contour = reference.landmarks[indices] * 2.0 - 1.0
    if label in (2, 3):
        src_contour = _densify_open_contour(src_contour)
        ref_contour = _densify_open_contour(ref_contour)
    target = ref_contour - min_shift(src_contour, ref_contour)
    h, w = color_image.shape[1:]
    grid = tps_grid(tps_solve(np.concatenate([target, CORNERS]), np.concatenate([src_contour, CORNERS])), h, w)
    region = source.mask == label
    landed = warp_image(region[None].astype(np.float64), grid)[0] >= 0.5
    out = _full_paste(color_image, warp_image(color_image, grid), _dilate(region | landed, 2))
    return np.clip(out, 0.0, 1.0)


def test_dilate_adds_one_ring_of_8_neighbours_per_iteration(rng):
    mask = rng.uniform(size=(9, 11)) > 0.92
    mask[0, 0] = mask[8, 5] = True  # set pixels on the border
    want = mask
    for iterations in (1, 2, 3):
        padded = np.pad(want, 1)
        want = np.zeros_like(mask)
        for dy in range(3):
            for dx in range(3):
                want |= padded[dy : dy + 9, dx : dx + 11]
        np.testing.assert_array_equal(_dilate(mask, iterations), want)


def _border_pair():
    # lips and the left brow stretched to the image border, so their
    # paste windows are clipped at the bottom and top-left edges
    src, ref = face(21, "plain"), face(22, "makeup")
    mask = src.mask.copy()
    rows, cols = np.nonzero(mask == 6)
    mask[rows.max() :, cols.min() : cols.max() + 1] = 6
    rows, cols = np.nonzero(mask == 2)
    corner = mask[: rows.max() + 1, : cols.max() + 1]
    corner[corner != 6] = 2
    return FaceSample(image=src.image, landmarks=src.landmarks, mask=mask), ref


@pytest.mark.parametrize("case", [0, 1, 2, 3, "border"])
def test_part_warps_equal_full_grid_reference(case):
    if case == "border":
        src, ref = _border_pair()
        assert (src.mask[-1] == 6).any() and src.mask[0, 0] == 2
    else:
        src, ref = face(10 + 2 * case, "plain"), face(11 + 2 * case, "makeup" if case % 2 else "plain")
    gt = color_pgt(src, ref)
    assert gt.parts_refined == (2, 3, 4, 5, 6)
    assert gt.image.tobytes() == _full_grid_color_pgt(src, ref).tobytes()
    for label in (2, 3, 6):
        out = spatial_pgt(gt, src, ref, label)
        assert out.image.tobytes() == _full_grid_spatial_pgt(gt.image, src, ref, label).tobytes()


# -- histogram PGT ----------------------------------------------------------------


def _toy_sample(rng, region_color=None):
    image = rng.uniform(0.2, 0.8, size=(3, 16, 16))
    mask = np.zeros((16, 16), dtype=np.uint8)
    mask[2:8, 2:14] = 1
    mask[10:13, 4:12] = 6
    if region_color is not None:
        image[:, mask == 6] = np.asarray(region_color)[:, None]
    lm = np.full((LANDMARK_COUNT, 2), 0.5)
    return FaceSample(image=image, landmarks=lm, mask=mask)


def test_histogram_self_match_within_quantization(rng):
    s = _toy_sample(rng)
    out = histogram_pgt(s, s)
    assert np.abs(out.image - s.image).max() <= 1.0 / 255.0 + 1e-9


def test_histogram_constant_reference_region(rng):
    src = _toy_sample(rng)
    ref = _toy_sample(rng, region_color=(0.7, 0.1, 0.3))
    out = histogram_pgt(src, ref)
    lips = src.mask == 6
    for c, want in enumerate((0.7, 0.1, 0.3)):
        got = out.image[c][lips]
        assert np.abs(got - want).max() <= 1.0 / 255.0 + 1e-9


def test_histogram_background_untouched(plain_face, makeup_face):
    out = histogram_pgt(plain_face, makeup_face)
    outside = ~np.isin(plain_face.mask, [l for ls in HISTOGRAM_REGIONS.values() for l in ls])
    np.testing.assert_array_equal(out.image[:, outside], plain_face.image[:, outside])


def test_histogram_monotone_per_channel(plain_face, makeup_face):
    out = histogram_pgt(plain_face, makeup_face)
    skin = plain_face.mask == 1
    for c in range(3):
        order = np.argsort(plain_face.image[c][skin], kind="stable")
        mapped = out.image[c][skin][order]
        assert np.all(np.diff(mapped) >= -1e-9)


def test_histogram_reduces_emd_to_reference(plain_face, makeup_face):
    def emd(a, b):
        bins = np.linspace(0.0, 1.0, 257)
        ca = np.cumsum(np.histogram(a, bins=bins)[0]) / a.size
        cb = np.cumsum(np.histogram(b, bins=bins)[0]) / b.size
        return np.abs(ca - cb).sum() / 256.0

    out = histogram_pgt(plain_face, makeup_face)
    for labels in HISTOGRAM_REGIONS.values():
        src_sel = np.isin(plain_face.mask, labels)
        ref_sel = np.isin(makeup_face.mask, labels)
        for c in range(3):
            before = emd(plain_face.image[c][src_sel], makeup_face.image[c][ref_sel])
            after = emd(out.image[c][src_sel], makeup_face.image[c][ref_sel])
            assert after <= before + 1e-9


def test_histogram_skips_empty_region(rng, plain_face):
    bare = FaceSample(
        image=plain_face.image,
        landmarks=plain_face.landmarks,
        mask=np.where(plain_face.mask == 6, 1, plain_face.mask).astype(np.uint8),
    )
    out = histogram_pgt(bare, plain_face)
    assert 6 not in out.parts_refined


# -- blend PGT ---------------------------------------------------------------------


def test_blend_alpha_zero_is_source(plain_face, makeup_face):
    out = blend_pgt(plain_face, makeup_face, alpha=0.0)
    np.testing.assert_allclose(out.image, plain_face.image, atol=1e-12)


def test_blend_alpha_one_is_warped_reference_in_face(plain_face, makeup_face):
    out = blend_pgt(plain_face, makeup_face, alpha=1.0)
    outside = ~np.isin(plain_face.mask, (1, 2, 3, 4, 5, 6))
    np.testing.assert_array_equal(out.image[:, outside], plain_face.image[:, outside])
    inside = np.isin(plain_face.mask, (1, 2, 3, 4, 5, 6))
    assert np.abs(out.image[:, inside] - plain_face.image[:, inside]).max() > 0.01


def test_blend_midpoint_arithmetic():
    lm = np.full((LANDMARK_COUNT, 2), 0.5)
    lm[:, 0] = np.linspace(0.2, 0.8, LANDMARK_COUNT)  # solvable geometry
    lm[::2, 1] = 0.35
    mask = np.full((16, 16), 1, dtype=np.uint8)
    a = FaceSample(image=np.full((3, 16, 16), 0.2), landmarks=lm, mask=mask)
    b = FaceSample(image=np.full((3, 16, 16), 0.6), landmarks=lm, mask=mask)
    out = blend_pgt(a, b, alpha=0.5)
    np.testing.assert_allclose(out.image, 0.4, atol=1e-9)


def test_blend_rejects_bad_alpha(plain_face, makeup_face):
    with pytest.raises(ParameterError):
        blend_pgt(plain_face, makeup_face, alpha=1.5)


# -- sidecar -----------------------------------------------------------------------


def test_write_pgt_sidecar(tmp_path, plain_face, makeup_face):
    gt = color_pgt(plain_face, makeup_face)
    assert pgt_sidecar(tmp_path / "result.ppm") == str(tmp_path / "result.meta")
    assert gt.meta_text() == "mode=tps-color parts=2,3,4,5,6\n"
