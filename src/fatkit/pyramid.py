"""High-resolution reconstruction of generator output.

The generator runs at a low working resolution. For a high-resolution crop,
the detail lost by downsampling is the interpolation deviation
`orig - upsample(low)`; adding it back onto the upsampled output restores
the high-frequency content. Bilinear upsampling is linear, so the sum is
computed as `orig + upsample(z - low)` with a single resize, and the
identity case `z = low` returns the crop exactly before clamping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ParameterError, _axis_taps
from .tps import _pixel_centers

__all__ = ["HighResPair", "bilinear_resize", "crop_and_resize", "pyramid_reconstruct"]


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resample (C,H,W) to (C,out_h,out_w) at pixel centers, border-clamped.

    `bilinear_sample` on `identity_grid(out_h, out_w)`, run separably and
    bit for bit: every source row is lerped along x (the kernel's
    `top`/`bot`), then the output rows lerp those along y.
    """
    image = np.asarray(image, dtype=np.float64)
    _, h, w = image.shape
    x0, x1, fx = _axis_taps(_pixel_centers(out_w), w)
    y0, y1, fy = _axis_taps(_pixel_centers(out_h), h)
    lerped = np.take(image, x0, axis=2) * (1.0 - fx) + np.take(image, x1, axis=2) * fx
    fy = fy[:, None]
    return np.take(lerped, y0, axis=1) * (1.0 - fy) + np.take(lerped, y1, axis=1) * fy


@dataclass(frozen=True)
class HighResPair:
    """A face crop at full resolution and its working-size resize."""

    orig: np.ndarray  # (C,bh,bw) crop at frame resolution
    low: np.ndarray  # (C,s,s) resized crop fed to the generator


def crop_and_resize(frame: np.ndarray, box, low_size: int) -> HighResPair:
    """Cut a box out of the frame and produce its working-size resize."""
    frame = np.asarray(frame, dtype=np.float64)
    x, y, w, h = (int(v) for v in box)
    if w < 1 or h < 1:
        raise ParameterError(f"box extents must be positive, got {w}x{h}")
    if x < 0 or y < 0 or y + h > frame.shape[1] or x + w > frame.shape[2]:
        raise ParameterError(f"box {box} exceeds frame {frame.shape[1:]}")
    orig = frame[:, y : y + h, x : x + w].copy()
    low = orig if (h, w) == (low_size, low_size) else bilinear_resize(orig, low_size, low_size)
    return HighResPair(orig=orig, low=low)


def pyramid_reconstruct(pair: HighResPair, z: np.ndarray, clamp: bool = True) -> np.ndarray:
    """Attach the crop's high-frequency detail to a low-resolution output.

    (orig - upsample(low)) + upsample(z), computed with one resize as
    result = orig + upsample(z - low), since bilinear upsampling is linear.
    With z equal to the low input the upsampled difference is exactly 0 and
    the original crop comes back bit for bit (before the [0,1] clamp).
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != pair.low.shape:
        raise ParameterError(f"output {z.shape} does not match low-res input {pair.low.shape}")
    _, bh, bw = pair.orig.shape
    out = pair.orig + bilinear_resize(z - pair.low, bh, bw)
    return np.clip(out, 0.0, 1.0, out=out) if clamp else out
