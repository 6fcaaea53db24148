"""Detail reconstruction: crop geometry, identity cancellation, linearity."""

import numpy as np
import pytest

from fatkit.pyramid import bilinear_resize, crop_and_resize, pyramid_reconstruct
from fatkit.tensor import ParameterError, bilinear_sample
from fatkit.tps import identity_grid


@pytest.mark.parametrize(
    "shape, out_h, out_w",
    [
        ((3, 64, 64), 192, 192),
        ((3, 192, 192), 64, 64),
        ((3, 37, 53), 20, 71),
        ((64, 16, 16), 8, 24),
        ((3, 1, 9), 1, 20),
        ((3, 9, 1), 20, 1),
    ],
)
def test_resize_bits_equal_kernel_on_identity_grid(rng, shape, out_h, out_w):
    # the separable resize is the 2-D bilinear kernel in another traversal order
    image = rng.normal(size=shape)
    expected = bilinear_sample(image, identity_grid(out_h, out_w))
    got = bilinear_resize(image, out_h, out_w)
    assert got.shape == expected.shape == (shape[0], out_h, out_w)
    assert got.tobytes() == expected.tobytes()


def test_full_frame_box_keeps_image(rng):
    frame = rng.uniform(size=(3, 32, 32))
    pair = crop_and_resize(frame, (0, 0, 32, 32), low_size=32)
    np.testing.assert_array_equal(pair.low, frame)
    np.testing.assert_array_equal(pair.orig, frame)


def test_crop_geometry(rng):
    # the box is x, y, w, h: columns 8..31 and rows 4..35
    frame = rng.uniform(size=(3, 40, 48))
    pair = crop_and_resize(frame, (8, 4, 24, 32), low_size=16)
    np.testing.assert_array_equal(pair.orig, frame[:, 4:36, 8:32])
    assert pair.low.shape == (3, 16, 16)


def test_constant_image_survives_resampling():
    const = np.full((3, 20, 20), 0.37)
    up = bilinear_resize(const, 55, 41)
    np.testing.assert_allclose(up, 0.37, atol=1e-12)
    down = bilinear_resize(up, 20, 20)
    np.testing.assert_allclose(down, 0.37, atol=1e-12)


def test_out_of_bounds_box(rng):
    frame = rng.uniform(size=(3, 16, 16))
    with pytest.raises(ParameterError):
        crop_and_resize(frame, (10, 10, 8, 8), low_size=4)
    with pytest.raises(ParameterError):
        crop_and_resize(frame, (0, 0, 0, 4), low_size=4)


def test_identity_recovery(rng):
    for _ in range(10):
        frame = rng.uniform(size=(3, 48, 48))
        pair = crop_and_resize(frame, (4, 8, 32, 32), low_size=16)
        out = pyramid_reconstruct(pair, pair.low, clamp=False)
        assert np.abs(out - pair.orig).max() <= 1e-6


def test_identity_recovery_is_exact(rng):
    for _ in range(20):
        fh, fw = rng.integers(8, 80, size=2)
        bh, bw = rng.integers(1, fh + 1), rng.integers(1, fw + 1)
        y, x = rng.integers(0, fh - bh + 1), rng.integers(0, fw - bw + 1)
        low_size = int(rng.integers(2, 40))
        pair = crop_and_resize(rng.uniform(size=(3, fh, fw)), (x, y, bw, bh), low_size=low_size)
        out = pyramid_reconstruct(pair, pair.low, clamp=False)
        assert out.tobytes() == pair.orig.tobytes()


def test_linearity_in_output(rng):
    frame = rng.uniform(size=(3, 40, 40))
    pair = crop_and_resize(frame, (0, 0, 40, 40), low_size=20)
    z1 = rng.uniform(size=(3, 20, 20))
    z2 = rng.uniform(size=(3, 20, 20))
    lhs = pyramid_reconstruct(pair, z1 + z2, clamp=False) - pyramid_reconstruct(pair, z1, clamp=False)
    np.testing.assert_allclose(lhs, bilinear_resize(z2, 40, 40), atol=1e-9)


def test_constant_offset_shifts_result(rng):
    frame = rng.uniform(0.2, 0.6, size=(3, 32, 32))
    pair = crop_and_resize(frame, (0, 0, 32, 32), low_size=16)
    out = pyramid_reconstruct(pair, pair.low + 0.1, clamp=False)
    np.testing.assert_allclose(out, pair.orig + 0.1, atol=1e-9)


def test_checkerboard_detail_survives_blurred_output(rng):
    # high-frequency detail of the original must outlive a blurred generator output
    yy, xx = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
    checker = 0.5 + 0.3 * ((yy + xx) % 2) - 0.15
    frame = np.tile(checker, (3, 1, 1))
    pair = crop_and_resize(frame, (0, 0, 32, 32), low_size=16)
    blurred = np.full((3, 16, 16), pair.low.mean())
    out = pyramid_reconstruct(pair, blurred, clamp=False)

    def laplacian_energy(img):
        interior = img[:, 1:-1, 1:-1]
        lap = (
            4.0 * interior
            - img[:, :-2, 1:-1]
            - img[:, 2:, 1:-1]
            - img[:, 1:-1, :-2]
            - img[:, 1:-1, 2:]
        )
        return float(np.mean(lap**2))

    assert laplacian_energy(out) >= 0.5 * laplacian_energy(frame)
    assert laplacian_energy(out) > 50.0 * laplacian_energy(bilinear_resize(blurred, 32, 32))


def test_output_clamped(rng):
    frame = rng.uniform(size=(3, 16, 16))
    pair = crop_and_resize(frame, (0, 0, 16, 16), low_size=8)
    out = pyramid_reconstruct(pair, pair.low + 5.0)
    assert out.max() <= 1.0 and out.min() >= 0.0


def test_size_mismatch(rng):
    frame = rng.uniform(size=(3, 16, 16))
    pair = crop_and_resize(frame, (0, 0, 16, 16), low_size=8)
    with pytest.raises(ParameterError):
        pyramid_reconstruct(pair, np.zeros((3, 9, 9)))
