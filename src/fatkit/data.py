"""Synthetic face corpus and bit-exact file formats.

Faces are parametric cartoons: every part is an analytic shape, so the
landmark coordinates are computed from the same curves that get rasterized
and are exact by construction. The parsing mask uses the fixed label set

    0 background, 1 skin, 2 left eyebrow, 3 right eyebrow,
    4 left eye, 5 right eye, 6 lips, 7 hair

and the landmark schema pins 30 named points in a fixed order:
8 face-oval, 4 per eyebrow, 4 per eye, 6 lips.

Images are stored as binary PPM (P6, maxval 255), masks as binary PGM (P5,
values are labels), landmarks as 'FATLM 1 30' text. Generation is fully
deterministic under a seed: per-sample RNG streams are spawned from the
corpus seed, so regeneration is byte-identical.
"""

from __future__ import annotations

import errno
import math
import os
from dataclasses import dataclass

import numpy as np

from .tensor import FormatError, ParameterError

__all__ = [
    "LABELS",
    "LANDMARK_COUNT",
    "PART_LANDMARKS",
    "ACTIVE_LABEL_SETS",
    "parse_active_labels",
    "FaceSample",
    "SynthFaceParams",
    "synth_face",
    "random_face_params",
    "make_corpus",
    "check_targets",
    "write_all",
    "write_text",
    "read_manifest",
    "ascii_lines",
    "write_ppm",
    "read_ppm",
    "write_pgm",
    "read_pgm",
    "write_point_text",
    "read_point_text",
    "write_landmarks",
    "read_landmarks",
    "save_sample",
    "load_sample",
]

LABELS = {
    "background": 0,
    "skin": 1,
    "left_brow": 2,
    "right_brow": 3,
    "left_eye": 4,
    "right_eye": 5,
    "lips": 6,
    "hair": 7,
}
MAX_LABEL = 7

LANDMARK_COUNT = 30
PART_LANDMARKS = {
    2: tuple(range(8, 12)),
    3: tuple(range(12, 16)),
    4: tuple(range(16, 20)),
    5: tuple(range(20, 24)),
    6: tuple(range(24, 30)),
}

# the named label sets a transfer can move: `warp_labels`, `--spatial-part`
ACTIVE_LABEL_SETS = {
    "eyebrows": (2, 3),
    "eyes": (4, 5),
    "lips": (6,),
    "all": (1, 2, 3, 4, 5, 6, 7),
}


def parse_active_labels(spec: str, setting: str) -> tuple:
    """The labels of a set name; an unknown name is a ParameterError naming the setting."""
    if spec not in ACTIVE_LABEL_SETS:
        raise ParameterError(f"{setting} must be one of {sorted(ACTIVE_LABEL_SETS)}, got {spec!r}")
    return ACTIVE_LABEL_SETS[spec]


@dataclass
class FaceSample:
    """Image + landmarks + parsing mask triple, the unit of every pipeline."""

    image: np.ndarray  # (3,H,W) float64 in [0,1]
    landmarks: np.ndarray  # (30,2) in [0,1]^2, x right, y down
    mask: np.ndarray  # (H,W) uint8 labels


@dataclass
class SynthFaceParams:
    """Knobs of one synthetic face; identical params and seed render
    bit-identically."""

    skin_color: tuple = (0.84, 0.68, 0.58)
    lip_color: tuple = (0.78, 0.45, 0.45)
    shadow_color: tuple = (0.45, 0.35, 0.65)
    shadow_radius: float = 0.0  # 0 disables, else ~[0.06, 0.11]
    shadow_strength: float = 0.0  # blend weight in [0,1]
    brow_curvature: float = 0.0  # kappa in [-0.5, 0.5]
    brow_thickness: float = 0.03  # in [0.02, 0.05]
    rotation_deg: float = 0.0  # in [-15, 15]
    shift: tuple = (0.0, 0.0)  # each in [-0.03, 0.03]
    shade_strength: float = 0.0  # lighting gradient in [0, 0.3]
    seed: int = 0

    def validate(self):
        checks = [
            (-0.5 <= self.brow_curvature <= 0.5, "brow curvature outside [-0.5, 0.5]"),
            (0.02 <= self.brow_thickness <= 0.05, "brow thickness outside [0.02, 0.05]"),
            (abs(self.rotation_deg) <= 15.0, "rotation outside +-15 degrees"),
            (max(abs(self.shift[0]), abs(self.shift[1])) <= 0.03, "shift outside +-0.03"),
            (0.0 <= self.shade_strength <= 0.3, "shade strength outside [0, 0.3]"),
            (0.0 <= self.shadow_strength <= 1.0, "shadow strength outside [0, 1]"),
            (0.0 <= self.shadow_radius <= 0.12, "shadow radius outside [0, 0.12]"),
        ]
        for color in (self.skin_color, self.lip_color, self.shadow_color):
            checks.append((min(color) >= 0.0 and max(color) <= 1.0, f"color {color} outside [0,1]"))
        for ok, msg in checks:
            if not ok:
                raise ParameterError(msg)


# -- canonical geometry -------------------------------------------------------

_FACE_C = np.array([0.5, 0.54])
_FACE_R = np.array([0.33, 0.40])
_HAIR_C = np.array([0.5, 0.44])
_HAIR_R = np.array([0.37, 0.42])
_SIDES = ("left", "right")
_EYE_XS = (0.365, 0.635)  # left, right
_EYE_Y = 0.46  # both eyes, and so their brows and shadows, share one centre y
_EYE_C = {side: np.array([x, _EYE_Y]) for side, x in zip(_SIDES, _EYE_XS)}
_EYE_R = np.array([0.055, 0.032])
_IRIS_R = 0.022
_BROW_Y = 0.375
_BROW_HALF = 0.095
_BROW_SAG = 0.12  # peak offset at |kappa| = 0.5 is 0.06
_LIP_C = np.array([0.5, 0.74])
_LIP_R = np.array([0.105, 0.048])
_INSET = 0.88  # landmark inset inside part boundaries
_SUPERSAMPLE = 4  # image samples per pixel along each axis
_BOX_PAD = 1e-6  # margin of a part's test box over its radii, far above round-off
_IRIS = MAX_LABEL + 1  # image-only label of the iris points, the last color-table entry
_BAND_POINTS = 1 << 16  # sample points painted at once, at least one pixel row


def _pose(params: SynthFaceParams):
    th = math.radians(params.rotation_deg)
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    return rot, np.asarray(params.shift, dtype=np.float64)


def _to_world(points: np.ndarray, rot: np.ndarray, shift: np.ndarray) -> np.ndarray:
    return (points - _FACE_C) @ rot.T + _FACE_C + shift


def _grid(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(2, len(ys) * len(xs)) x and y rows of the points (xs[j], ys[i]), row by row."""
    grid = np.empty((2, ys.shape[0], xs.shape[0]))
    grid[0] = xs
    grid[1] = ys[:, None]
    return grid.reshape(2, -1)


def _to_canonical(xs: np.ndarray, ys: np.ndarray, rot: np.ndarray, shift: np.ndarray):
    """Canonical x and y rows of the world grid `_grid(xs, ys)`. The rotation
    is one BLAS product: per-axis `a * r00 + b * r10` rounds differently where
    the kernel fuses the multiply-add."""
    pc = rot.T @ _grid(xs - _FACE_C[0] - shift[0], ys - _FACE_C[1] - shift[1])
    pc += _FACE_C[:, None]
    return pc[0], pc[1]


def _bands(rows: int, row_points: int):
    """Slices of consecutive rows covering `range(rows)`, each of at most
    `_BAND_POINTS` points when a row holds `row_points` (at least one row)."""
    step = max(1, _BAND_POINTS // row_points)
    return [slice(r, min(r + step, rows)) for r in range(0, rows, step)]


def _brow_centerline(side: str, kappa: float, t: np.ndarray) -> np.ndarray:
    cx = _EYE_C[side][0]
    xs = cx - _BROW_HALF + 2.0 * _BROW_HALF * t
    ys = _BROW_Y - kappa * _BROW_SAG * 4.0 * t * (1.0 - t)
    return np.stack([xs, ys], axis=-1)


def _canonical_landmarks(params: SynthFaceParams) -> np.ndarray:
    pts = np.zeros((LANDMARK_COUNT, 2))
    angles = np.deg2rad(np.arange(0, 360, 45))
    pts[0:8] = _FACE_C + 0.97 * _FACE_R * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    ts = np.array([0.04, 1.0 / 3.0, 2.0 / 3.0, 0.96])
    pts[8:12] = _brow_centerline("left", params.brow_curvature, ts)
    pts[12:16] = _brow_centerline("right", params.brow_curvature, ts)
    eye_angles = np.deg2rad([180.0, 270.0, 0.0, 90.0])  # left, top, right, bottom (y down)
    ring = np.stack([np.cos(eye_angles), np.sin(eye_angles)], axis=1)
    pts[16:20] = _EYE_C["left"] + _INSET * _EYE_R * ring
    pts[20:24] = _EYE_C["right"] + _INSET * _EYE_R * ring
    lip_angles = np.deg2rad([180.0, 240.0, 300.0, 0.0, 60.0, 120.0])  # closed contour
    lip_ring = np.stack([np.cos(lip_angles), np.sin(lip_angles)], axis=1)
    pts[24:30] = _LIP_C + _INSET * _LIP_R * lip_ring
    return pts


def _inside_ellipse(x: np.ndarray, y: np.ndarray, center: np.ndarray, radii: np.ndarray) -> np.ndarray:
    rx = (x - center[0]) / radii[0]
    ry = (y - center[1]) / radii[1]
    rx *= rx
    ry *= ry
    rx += ry
    return rx <= 1.0


def _in_boxes(x: np.ndarray, y: np.ndarray, cxs, cy, half) -> list:
    """Indices of the points within `half` (padded by `_BOX_PAD`) of (cx, cy)
    along each axis, one array per cx in `cxs`: a superset of the points of a
    part of those half-extents, so testing only these drops no point. Parts
    side by side share one scan of y."""
    hx, hy = np.broadcast_to(half, (2,))
    rows = np.flatnonzero((y >= cy - hy - _BOX_PAD) & (y <= cy + hy + _BOX_PAD))
    xr = x[rows]
    return [rows[(xr >= cx - hx - _BOX_PAD) & (xr <= cx + hx + _BOX_PAD)] for cx in cxs]


def _labels(x: np.ndarray, y: np.ndarray, params: SynthFaceParams):
    """Mask labels of the painter stack at the canonical points (x, y), and
    the indices of the points inside an iris.

    Hair and face are tested at every point; brows, eyes and lips only at the
    points of their padded canonical box, irises only at their eye's points.
    """
    labels = np.zeros(x.shape[0], dtype=np.uint8)
    labels[_inside_ellipse(x, y, _HAIR_C, _HAIR_R)] = LABELS["hair"]
    face = _inside_ellipse(x, y, _FACE_C, _FACE_R)
    labels[face] = LABELS["skin"]

    kappa, half_thick = params.brow_curvature, params.brow_thickness / 2.0
    # a brow's centerline runs between _BROW_Y and _BROW_Y - kappa * _BROW_SAG
    brow_half = np.array([_BROW_HALF, abs(kappa) * _BROW_SAG / 2.0 + half_thick])
    boxes = _in_boxes(x, y, _EYE_XS, _BROW_Y - kappa * _BROW_SAG / 2.0, brow_half)
    for side, cx, box in zip(_SIDES, _EYE_XS, boxes):
        t = (x[box] - (cx - _BROW_HALF)) / (2.0 * _BROW_HALF)
        center_y = _brow_centerline(side, kappa, t)[:, 1]
        brow = (t >= 0.0) & (t <= 1.0) & (np.abs(y[box] - center_y) <= half_thick) & face[box]
        labels[box[brow]] = LABELS[f"{side}_brow"]

    irises = []
    for side, box in zip(_SIDES, _in_boxes(x, y, _EYE_XS, _EYE_Y, _EYE_R)):
        center = _EYE_C[side]
        eye = box[_inside_ellipse(x[box], y[box], center, _EYE_R)]
        labels[eye] = LABELS[f"{side}_eye"]
        dx, dy = x[eye] - center[0], y[eye] - center[1]
        irises.append(eye[np.sqrt(dx * dx + dy * dy) < _IRIS_R])

    (box,) = _in_boxes(x, y, _LIP_C[:1], _LIP_C[1], _LIP_R)
    labels[box[_inside_ellipse(x[box], y[box], _LIP_C, _LIP_R)]] = LABELS["lips"]
    return labels, np.concatenate(irises)


def _paint(x: np.ndarray, y: np.ndarray, shade: np.ndarray, params: SynthFaceParams, aux: dict) -> np.ndarray:
    """(3, N) colors of the painter stack at the canonical points (x, y),
    whose world points lie at `shade` along the lighting direction, measured
    from the face's mean.

    Each point takes its label's color from one table, irises under their own
    index; eye shadow is then blended into the points left as skin, and the
    lighting gradient scales every point.
    """
    labels, irises = _labels(x, y, params)
    labels[irises] = _IRIS
    eye_white = (0.93, 0.93, 0.95)
    table = np.column_stack(
        [(0.36, 0.40, 0.46), params.skin_color, aux["brow_color"], aux["brow_color"],
         eye_white, eye_white, params.lip_color, aux["hair_color"], aux["iris_color"]]
    )
    colors = np.take(table, labels, axis=1)

    # at strength 0 both blends below multiply by exactly 1 and add exactly 0
    radius = params.shadow_radius
    shadow = np.asarray(params.shadow_color)[:, None]
    for side, box in zip(_SIDES, _in_boxes(x, y, _EYE_XS, _EYE_Y, radius)):
        center = _EYE_C[side]
        dx, dy = x[box] - center[0], y[box] - center[1]
        d = np.sqrt(dx * dx + dy * dy)
        keep = (labels[box] == LABELS["skin"]) & (d < radius)
        inside = box[keep]
        fall = params.shadow_strength * (1.0 - (d[keep] / radius) ** 2)
        colors[:, inside] = (1.0 - fall) * colors[:, inside] + fall * shadow

    colors *= 1.0 + params.shade_strength * shade
    return np.clip(colors, 0.0, 1.0, out=colors)


def synth_face(params: SynthFaceParams, size: int) -> FaceSample:
    """Render one anti-aliased face; landmarks come from the same curves.

    The image averages `_SUPERSAMPLE`^2 painted samples per pixel; the
    categorical mask is labelled once at pixel centers. Both are painted in
    bands of whole pixel rows of at most `_BAND_POINTS` points. The only
    array with an entry per sample is the lighting projection, one float64
    each: its mean is numpy's one pairwise sum over the face, which bands
    cannot split.
    """
    if size < 1:
        raise ParameterError(f"size must be at least 1, got {size}")
    params.validate()
    rng = np.random.default_rng(np.random.SeedSequence([0xFACE, int(params.seed)]))
    theta = rng.uniform(0.0, 2.0 * math.pi)
    aux = {
        "hair_color": np.array([0.22, 0.16, 0.12]) + rng.uniform(-0.05, 0.05, size=3),
        "brow_color": np.array([0.16, 0.11, 0.08]),
        "iris_color": np.array([0.2, 0.3, 0.45]) + rng.uniform(-0.1, 0.1, size=3),
    }
    shade_dir = np.array([math.cos(theta), math.sin(theta)])
    rot, shift = _pose(params)

    ss = _SUPERSAMPLE
    n = size * ss
    coords = (np.arange(n) + 0.5) / n
    # per band: its pixel rows, its sample rows' y and its points' indices
    bands = [(rows, coords[rows.start * ss : rows.stop * ss], slice(rows.start * ss * n, rows.stop * ss * n))
             for rows in _bands(size, ss * n)]
    along = np.empty(n * n)
    for _, ys, points in bands:
        np.matmul(shade_dir, _grid(coords, ys), out=along[points])
    along -= along.mean()

    # each pixel's samples summed in the order of numpy's (H, ss, W, ss, 3)
    # .mean(axis=(1, 3)): sub-rows outer, sub-columns inner, then one division
    image = np.empty((3, size, size))
    for rows, ys, points in bands:
        x, y = _to_canonical(coords, ys, rot, shift)
        samples = _paint(x, y, along[points], params, aux).reshape(3, -1, ss, size, ss)
        pixels = image[:, rows]
        np.copyto(pixels, samples[:, :, 0, :, 0])
        for a in range(ss):
            for d in range(ss):
                if a or d:
                    pixels += samples[:, :, a, :, d]
    image /= ss * ss

    centers = (np.arange(size) + 0.5) / size
    mask = np.empty((size, size), dtype=np.uint8)
    for rows in _bands(size, size):
        mask[rows] = _labels(*_to_canonical(centers, centers[rows], rot, shift), params)[0].reshape(-1, size)
    landmarks = _to_world(_canonical_landmarks(params), rot, shift)
    return FaceSample(image=image, landmarks=landmarks, mask=mask)


def random_face_params(rng, group: str, seed: int) -> SynthFaceParams:
    """Draw face parameters for the 'plain' or 'makeup' group."""
    skin = np.array([rng.uniform(0.72, 0.9), rng.uniform(0.56, 0.74), rng.uniform(0.46, 0.62)])
    skin = np.sort(skin)[::-1]  # keep a skin-like warm ordering
    if group == "makeup":
        palettes = np.array(
            [[0.75, 0.08, 0.18], [0.62, 0.10, 0.40], [0.80, 0.25, 0.10], [0.55, 0.05, 0.55]]
        )
        lip = palettes[rng.integers(len(palettes))] + rng.uniform(-0.05, 0.05, size=3)
        shadow_strength = rng.uniform(0.5, 0.85)
        shadow_radius = rng.uniform(0.07, 0.11)
        shadow = np.array([rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.5), rng.uniform(0.4, 0.8)])
    elif group == "plain":
        lip = skin * 0.9 + np.array([0.08, -0.02, -0.02]) * rng.uniform(0.5, 1.5)
        shadow_strength = rng.uniform(0.0, 0.12)
        shadow_radius = rng.uniform(0.0, 0.08)
        shadow = skin * 0.9
    else:
        raise ParameterError(f"unknown group {group!r}")
    return SynthFaceParams(
        skin_color=tuple(np.clip(skin, 0.0, 1.0)),
        lip_color=tuple(np.clip(lip, 0.0, 1.0)),
        shadow_color=tuple(np.clip(shadow, 0.0, 1.0)),
        shadow_radius=float(shadow_radius),
        shadow_strength=float(shadow_strength),
        brow_curvature=float(rng.uniform(-0.5, 0.5)),
        brow_thickness=float(rng.uniform(0.026, 0.042)),
        rotation_deg=float(rng.uniform(-15.0, 15.0)),
        shift=(float(rng.uniform(-0.03, 0.03)), float(rng.uniform(-0.03, 0.03))),
        shade_strength=float(rng.uniform(0.0, 0.25)),
        seed=seed,
    )


# -- corpus ---------------------------------------------------------------------


def make_corpus(out_dir, count: int, size: int, seed: int):
    """Generate `count` samples split into alternating plain/makeup groups.

    Writes <id>.ppm/.lm/.pgm triples plus manifest.txt with one line per
    sample: `id group image landmarks mask`. Returns the manifest path. The
    files are written all or nothing through `write_all`: a failed write
    leaves no file of this run, and removes `out_dir` if it made it.
    """
    if count < 2:
        raise ParameterError(f"corpus needs at least 2 samples, got {count}")
    if size < 1:
        raise ParameterError(f"size must be at least 1, got {size}")
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    made = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    manifest = os.path.join(out_dir, "manifest.txt")
    try:
        write_all(_corpus_files(out_dir, manifest, count, size, seed))
    except BaseException:
        if made and not os.listdir(out_dir):
            os.rmdir(out_dir)
        raise
    return manifest


def _corpus_files(out_dir, manifest, count, size, seed):
    """The (path, write) outputs of `make_corpus`, each sample drawn as its
    files are reached and the manifest last. Child seeds are spawned one at
    a time: successive `spawn(1)` calls give the children of `spawn(count)`."""
    lines = []
    root = np.random.SeedSequence(seed)
    for i in range(count):
        group = "plain" if i % 2 == 0 else "makeup"
        rng = np.random.default_rng(root.spawn(1)[0])
        sample_seed = int(rng.integers(0, 2**31 - 1))
        sample = synth_face(random_face_params(rng, group, seed=sample_seed), size)
        stem = f"{i:04d}"
        yield from _sample_files(out_dir, stem, sample)
        lines.append(f"{stem} {group} {stem}.ppm {stem}.lm {stem}.pgm")
    yield manifest, lambda path: write_text(path, "\n".join(lines) + "\n")


def _check_target(path, claimed):
    """Refuse `path`, with an error naming it, as the next output of a command
    whose earlier outputs have the realpaths in `claimed` (the rule of
    `write_all`); else add its realpath to `claimed`."""
    if not path or not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path) and not os.path.islink(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    target = os.path.realpath(path)
    if target in claimed:
        raise ParameterError(f"{path}: two outputs of one command name this file")
    claimed.add(target)


def check_targets(paths):
    """Raise, before any work, the error that `write_all` would raise for
    these output paths in this order, naming the first path it refuses."""
    claimed = set()
    for path in paths:
        _check_target(path, claimed)


def write_all(outputs):
    """Write each (path, write) output to a temporary file beside it, then
    move them into place in order with `os.replace`. Each target is checked
    as `check_targets` checks it before its output is made: an empty path, a
    missing directory, an existing directory or a file an earlier output
    also names (by `os.path.realpath`) raises an error naming the target. A
    symlink target is replaced, as `os.replace` does, even one that points
    at a directory. A refused target or a failed write moves nothing and
    leaves no temporary file behind. `outputs` may be a generator: each
    output is made only when the one before it is written."""
    temps, targets = [], set()
    try:
        for path, write in outputs:
            _check_target(path, targets)
            temps.append((f"{path}.{os.getpid()}.tmp", path))
            write(temps[-1][0])
        for temp, path in temps:
            os.replace(temp, path)
    finally:
        for temp, _ in temps:
            if os.path.exists(temp):
                os.remove(temp)


def write_text(path, text: str):
    """Write `text` to `path` as ASCII: every text file fatkit writes."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def read_manifest(path):
    """Manifest rows as (id, group, image, landmarks, mask) tuples, group 'plain' or 'makeup'."""
    rows = []
    for lineno, line in enumerate(ascii_lines(path), 1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 5:
            raise FormatError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
        if parts[1] not in ("plain", "makeup"):
            raise FormatError(f"{path}:{lineno}: group must be 'plain' or 'makeup', got {parts[1]!r}")
        rows.append(tuple(parts))
    return rows


# -- file formats ------------------------------------------------------------------


def ascii_lines(path) -> list:
    """The lines of an ASCII text file, without their ends: line N is entry N - 1.

    Lines end where text mode ends them (`\\n`, `\\r\\n`, `\\r`), never at the
    `\\x0b`, `\\x0c` or `\\x1c`-`\\x1e` that `str.splitlines` breaks at. A byte
    outside ASCII is a FormatError naming the file and the byte's offset.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        text = blob.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: byte {exc.start} is {blob[exc.start]:#04x}, not ASCII text") from exc
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.removesuffix("\n").split("\n") if text else []


def _write_netpbm(path, magic: bytes, pixels: np.ndarray):
    """Binary netpbm file, maxval 255, of (H,W,channels) uint8 pixels."""
    h, w = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + f"\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def _read_netpbm(path, magic: bytes, channels: int):
    """(H,W,channels) uint8 pixels of a binary netpbm file with maxval 255,
    and the byte offset of the pixel payload."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != magic:
        raise FormatError(f"{path}: bad magic at byte 0, expected {magic!r} got {blob[:2]!r}")
    values, offset = [], 2
    for name in ("width", "height", "maxval"):
        while offset < len(blob) and blob[offset : offset + 1].isspace():
            offset += 1
        start = offset
        while offset < len(blob) and not blob[offset : offset + 1].isspace():
            offset += 1
        if start == offset:
            raise FormatError(f"{path}: truncated header at byte {offset}")
        field = blob[start:offset]
        # ASCII digits only, as netpbm writes them; int() would also take "+1" and "1_0"
        if not field.removeprefix(b"-").isdigit():
            raise FormatError(f"{path}: {name} must be an integer, got {field.decode('latin-1')!r} at byte {start}")
        values.append(int(field))
        if name == "maxval" and values[-1] != 255:
            raise FormatError(f"{path}: maxval must be 255, got {values[-1]} at byte {start}")
        if name != "maxval" and values[-1] < 1:
            raise FormatError(f"{path}: {name} must be at least 1, got {values[-1]} at byte {start}")
    if offset == len(blob):
        raise FormatError(f"{path}: truncated header at byte {offset}")
    offset += 1  # single whitespace after maxval
    w, h, _ = values
    expected = h * w * channels
    payload = blob[offset : offset + expected]
    if len(payload) != expected:
        raise FormatError(f"{path}: pixel payload truncated at byte {offset + len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, channels), offset


def write_ppm(path, image: np.ndarray):
    """Binary P6, maxval 255. Input is (3,H,W) float in [0,1]."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ParameterError(f"image must be (3,H,W), got {img.shape}")
    data = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    _write_netpbm(path, b"P6", data.transpose(1, 2, 0))


def read_ppm(path) -> np.ndarray:
    """(3,H,W) float64 in [0,1]; values quantized to the stored 8 bits."""
    return _read_netpbm(path, b"P6", 3)[0].transpose(2, 0, 1).astype(np.float64) / 255.0


def write_pgm(path, mask: np.ndarray):
    """Binary P5 parsing mask, pixel values are labels."""
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ParameterError(f"mask must be (H,W), got {m.shape}")
    if m.min() < 0 or m.max() > MAX_LABEL:
        raise ParameterError(f"mask labels must lie in [0,{MAX_LABEL}], got [{m.min()},{m.max()}]")
    _write_netpbm(path, b"P5", m.astype(np.uint8)[:, :, None])


def read_pgm(path) -> np.ndarray:
    pixels, offset = _read_netpbm(path, b"P5", 1)
    mask = pixels[:, :, 0].copy()
    if mask.max() > MAX_LABEL:
        row, col = np.argwhere(mask > MAX_LABEL)[0]
        raise FormatError(
            f"{path}: label {mask[row, col]} outside [0,{MAX_LABEL}] at row {row}, column {col} "
            f"(byte {offset + row * mask.shape[1] + col})"
        )
    return mask


def write_point_text(path, magic: str, points: np.ndarray):
    """Text point set: header '<magic> 1 <K>' then K 'x y' lines."""
    pts = np.asarray(points, dtype=np.float64)
    write_text(path, f"{magic} 1 {pts.shape[0]}\n" + "".join(f"{x:.9f} {y:.9f}\n" for x, y in pts))


def read_point_text(path, magic: str, count, lo: float, hi: float) -> np.ndarray:
    """Parse a '<magic> 1 <K>' point file into a (K,2) array.

    `count` pins K (None accepts any K); every coordinate must be a finite
    number in [lo, hi]. Lines after the K-th are ignored. Any deviation
    raises FormatError naming the line as `{path}:{N}`; the header is line 1.
    """
    expected = "<K>" if count is None else count
    header, *lines = ascii_lines(path) or [""]
    header = header.split()
    if len(header) != 3 or header[0] != magic or header[1] != "1":
        raise FormatError(f"{path}:1: expected '{magic} 1 {expected}' header, got {' '.join(header)!r}")
    if count is not None and header[2] != str(count):
        raise FormatError(f"{path}:1: schema requires {count} points, header says {header[2]}")
    try:
        k = int(header[2]) if header[2].isdigit() else -1
    except ValueError:  # more digits than int() converts
        k = -1
    # checked before any point is read, so a huge header count costs nothing
    if not 0 <= k <= len(lines):
        raise FormatError(f"{path}:1: header says {header[2]!r:.40} points, the file holds {len(lines)} point lines")
    pts = np.empty((k, 2))
    for i, line in enumerate(lines[: len(pts)]):
        try:
            x, y = (float(v) for v in line.split())
        except ValueError:
            raise FormatError(f"{path}:{i + 2}: expected two numbers 'x y', got {line.strip()!r:.60}") from None
        # written as a negated in-range test so that NaN fails it too
        if not (lo <= x <= hi and lo <= y <= hi):
            raise FormatError(f"{path}:{i + 2}: coordinates must be finite and lie in [{lo:g},{hi:g}], got {x:g} {y:g}")
        pts[i] = x, y
    return pts


def write_landmarks(path, landmarks: np.ndarray):
    lm = np.asarray(landmarks, dtype=np.float64)
    if lm.shape != (LANDMARK_COUNT, 2):
        raise ParameterError(f"landmarks must be ({LANDMARK_COUNT},2), got {lm.shape}")
    write_point_text(path, "FATLM", lm)


def read_landmarks(path) -> np.ndarray:
    return read_point_text(path, "FATLM", LANDMARK_COUNT, 0.0, 1.0)


def _sample_files(directory, stem: str, sample: FaceSample):
    """The (path, write) outputs of a sample's .ppm/.lm/.pgm triple."""
    base = os.path.join(directory, stem)
    return [
        (base + ".ppm", lambda path: write_ppm(path, sample.image)),
        (base + ".lm", lambda path: write_landmarks(path, sample.landmarks)),
        (base + ".pgm", lambda path: write_pgm(path, sample.mask)),
    ]


def save_sample(directory, stem: str, sample: FaceSample):
    for path, write in _sample_files(directory, stem, sample):
        write(path)


def load_sample(image_path) -> FaceSample:
    """Load a triple via the naming convention: X.ppm implies X.lm and X.pgm."""
    base, ext = os.path.splitext(str(image_path))
    if ext != ".ppm":
        raise ParameterError(f"samples are addressed by their .ppm path, got {image_path}")
    image = read_ppm(image_path)
    landmarks = read_landmarks(base + ".lm")
    mask = read_pgm(base + ".pgm")
    if mask.shape != image.shape[1:]:
        raise FormatError(f"{base}: mask {mask.shape} does not match image {image.shape[1:]}")
    return FaceSample(image=image, landmarks=landmarks, mask=mask)
