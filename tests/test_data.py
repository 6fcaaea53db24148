"""Synthetic faces, corpus generation, and the three file formats."""

import re

import numpy as np
import pytest

from fatkit import data
from fatkit.data import (
    LANDMARK_COUNT,
    PART_LANDMARKS,
    FormatError,
    ParameterError,
    SynthFaceParams,
    check_targets,
    load_sample,
    make_corpus,
    parse_active_labels,
    random_face_params,
    read_landmarks,
    read_manifest,
    read_pgm,
    read_ppm,
    synth_face,
    write_all,
    write_landmarks,
    write_pgm,
    write_ppm,
)


def test_parse_active_labels():
    assert parse_active_labels("eyebrows", "warp_labels") == (2, 3)
    assert parse_active_labels("lips", "warp_labels") == (6,)
    assert parse_active_labels("all", "warp_labels") == (1, 2, 3, 4, 5, 6, 7)
    message = "--spatial-part must be one of ['all', 'eyebrows', 'eyes', 'lips'], got 'nose'"
    with pytest.raises(ParameterError, match=re.escape(message)):
        parse_active_labels("nose", "--spatial-part")


def test_straight_brow_landmarks_collinear():
    s = synth_face(SynthFaceParams(brow_curvature=0.0, seed=1), 64)
    for sl in (slice(8, 12), slice(12, 16)):
        pts = s.landmarks[sl]
        d = pts[1:] - pts[:-1]
        cross = d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0]
        assert np.max(np.abs(cross)) < 1e-9


def test_lip_landmarks_sit_on_lip_label():
    s = synth_face(SynthFaceParams(seed=2), 64)
    for i in PART_LANDMARKS[6]:
        x, y = s.landmarks[i]
        assert s.mask[int(y * 64), int(x * 64)] == 6


def test_part_landmarks_inside_their_masks(rng):
    for trial in range(8):
        group = "makeup" if trial % 2 else "plain"
        params = random_face_params(np.random.default_rng(trial), group, seed=trial)
        s = synth_face(params, 64)
        for label, idx in PART_LANDMARKS.items():
            for i in idx:
                px, py = (s.landmarks[i] * 64).astype(int)
                window = s.mask[max(py - 1, 0) : py + 2, max(px - 1, 0) : px + 2]
                assert label in window, f"landmark {i} missed label {label}"


def test_synth_deterministic():
    params = SynthFaceParams(brow_curvature=0.3, rotation_deg=-7.0, seed=11)
    a = synth_face(params, 48)
    b = synth_face(params, 48)
    assert np.array_equal(a.image, b.image)
    assert np.array_equal(a.mask, b.mask)
    assert np.array_equal(a.landmarks, b.landmarks)


def test_synth_rejects_out_of_range():
    with pytest.raises(ParameterError):
        synth_face(SynthFaceParams(brow_curvature=0.9), 32)
    with pytest.raises(ParameterError):
        synth_face(SynthFaceParams(rotation_deg=30.0), 32)
    for size in (0, -4):
        with pytest.raises(ParameterError, match=f"size must be at least 1, got {size}"):
            synth_face(SynthFaceParams(), size)


def test_image_in_unit_range():
    s = synth_face(SynthFaceParams(shade_strength=0.3, seed=4), 64)
    assert s.image.min() >= 0.0 and s.image.max() <= 1.0


def _whole_array_paint(pc, points, params, aux):
    """Labels and colors of the painter stack with every part tested at every
    point through (N, 2) arrays: `pc` canonical points, `points` the world
    points they came from (for the shade). A reference for the bits of
    `synth_face`."""
    n = pc.shape[0]
    labels = np.zeros(n, dtype=np.uint8)
    colors = np.tile(np.array([0.36, 0.40, 0.46]), (n, 1))

    def inside(center, radii):
        rel = (pc - center) / radii
        return (rel * rel).sum(axis=-1) <= 1.0

    hair = inside(data._HAIR_C, data._HAIR_R)
    labels[hair] = data.LABELS["hair"]
    colors[hair] = aux["hair_color"]
    face = inside(data._FACE_C, data._FACE_R)
    labels[face] = data.LABELS["skin"]
    colors[face] = params.skin_color
    if params.shadow_strength > 0.0 and params.shadow_radius > 0.0:
        for side in ("left", "right"):
            d = np.linalg.norm(pc - data._EYE_C[side], axis=1)
            shadow = face & (d < params.shadow_radius)
            fall = params.shadow_strength * (1.0 - (d[shadow] / params.shadow_radius) ** 2)
            colors[shadow] = (1.0 - fall[:, None]) * colors[shadow] + fall[:, None] * np.asarray(params.shadow_color)
    for side in ("left", "right"):
        cx = data._EYE_C[side][0]
        t = (pc[:, 0] - (cx - data._BROW_HALF)) / (2.0 * data._BROW_HALF)
        span = np.flatnonzero((t >= 0.0) & (t <= 1.0))
        ts = t[span]
        center_y = data._BROW_Y - params.brow_curvature * data._BROW_SAG * 4.0 * ts * (1.0 - ts)
        brow = np.zeros(n, dtype=bool)
        brow[span] = np.abs(pc[span, 1] - center_y) <= params.brow_thickness / 2.0
        brow &= face
        labels[brow] = data.LABELS[f"{side}_brow"]
        colors[brow] = aux["brow_color"]
    for side in ("left", "right"):
        eye = inside(data._EYE_C[side], data._EYE_R)
        labels[eye] = data.LABELS[f"{side}_eye"]
        colors[eye] = np.array([0.93, 0.93, 0.95])
        colors[eye & (np.linalg.norm(pc - data._EYE_C[side], axis=1) < data._IRIS_R)] = aux["iris_color"]
    lips = inside(data._LIP_C, data._LIP_R)
    labels[lips] = data.LABELS["lips"]
    colors[lips] = params.lip_color
    if params.shade_strength > 0.0:
        along = points @ aux["shade_dir"]
        colors = colors * (1.0 + params.shade_strength * (along - along.mean()))[:, None]
    return labels, np.clip(colors, 0.0, 1.0)


def _whole_array_face(params, size):
    """`synth_face` through the (N, 2) canonical transform, the whole-array
    painter and numpy's 16-sample mean."""
    rng = np.random.default_rng(np.random.SeedSequence([0xFACE, int(params.seed)]))
    theta = rng.uniform(0.0, 2.0 * np.pi)
    aux = {
        "hair_color": np.array([0.22, 0.16, 0.12]) + rng.uniform(-0.05, 0.05, size=3),
        "brow_color": np.array([0.16, 0.11, 0.08]),
        "iris_color": np.array([0.2, 0.3, 0.45]) + rng.uniform(-0.1, 0.1, size=3),
        "shade_dir": np.array([np.cos(theta), np.sin(theta)]),
    }
    rot, shift = data._pose(params)

    def paint(coords):
        yy, xx = np.meshgrid(coords, coords, indexing="ij")
        points = np.stack([xx.ravel(), yy.ravel()], axis=1)
        pc = (points - data._FACE_C - shift) @ rot + data._FACE_C
        return _whole_array_paint(pc, points, params, aux)

    ss = data._SUPERSAMPLE
    _, colors = paint((np.arange(size * ss) + 0.5) / (size * ss))
    image = colors.reshape(size, ss, size, ss, 3).mean(axis=(1, 3)).transpose(2, 0, 1)
    labels, _ = paint((np.arange(size) + 0.5) / size)
    landmarks = data._to_world(data._canonical_landmarks(params), rot, shift)
    return data.FaceSample(image=np.ascontiguousarray(image), landmarks=landmarks, mask=labels.reshape(size, size))


def _oracle_faces():
    edge = dict(shadow_radius=0.12, shadow_strength=1.0, shade_strength=0.3, seed=13)
    return [
        random_face_params(np.random.default_rng(21), "plain", seed=21),
        random_face_params(np.random.default_rng(22), "makeup", seed=22),
        SynthFaceParams(rotation_deg=15.0, shift=(0.03, -0.03), brow_thickness=0.02, brow_curvature=0.5, **edge),
        SynthFaceParams(rotation_deg=-15.0, shift=(-0.03, 0.03), brow_thickness=0.05, brow_curvature=-0.5, **edge),
    ]


@pytest.mark.parametrize("size", [3, 48, 50, 64, 96, 100, 130, 192])
def test_synth_face_bits_equal_whole_array_painter(size):
    # the painter tests brows, eyes, lips and shadows only inside their boxes,
    # labels first and colors from a table, with planar coordinates and an
    # explicit 16-sample sum, in bands of pixel rows; every image, mask and
    # landmark byte must match. 130 and 192 px span several bands, the last
    # one partial, and check one face each to keep the test fast
    faces = _oracle_faces()
    for params in {130: faces[3:4], 192: faces[2:3]}.get(size, faces):
        got = synth_face(params, size)
        expected = _whole_array_face(params, size)
        for name in ("image", "mask", "landmarks"):
            a, b = getattr(got, name), getattr(expected, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def test_bands_cover_the_rows_within_the_point_budget():
    ss = data._SUPERSAMPLE
    for size in (1, 3, 64, 65, 130, 192, 512):
        row_points = ss * ss * size
        bands = data._bands(size, row_points)
        assert [r for band in bands for r in range(band.start, band.stop)] == list(range(size))
        assert all((band.stop - band.start) * row_points <= data._BAND_POINTS for band in bands)
    assert len(data._bands(64, ss * ss * 64)) == 1  # a training face paints in one band
    assert [band.stop - band.start for band in data._bands(130, ss * ss * 130)] == [31, 31, 31, 31, 6]
    assert data._bands(4096, 4096 * ss * ss)[:2] == [slice(0, 1), slice(1, 2)]  # a row wider than the budget


def test_synth_face_painter_memory_is_bounded():
    # the whole-array painter peaks at about 70 MB of numpy memory at 256 px;
    # in bands, the only array with an entry per sample is the float64
    # lighting projection (8.4 MB here)
    import tracemalloc

    params = random_face_params(np.random.default_rng(3), "makeup", seed=3)
    tracemalloc.start()
    try:
        synth_face(params, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, f"synth_face at 256 px peaked at {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("curvature, thickness", [(0.5, 0.02), (-0.5, 0.05), (0.0, 0.035), (0.23, 0.05)])
def test_part_boxes_drop_no_point(curvature, thickness):
    # dense random canonical points around the brows and eyes, where a part's
    # box edge lies: the boxed labels must equal the whole-array painter's
    params = SynthFaceParams(brow_curvature=curvature, brow_thickness=thickness)
    rng = np.random.default_rng(7)
    pc = np.column_stack([rng.uniform(0.2, 0.8, 400_000), rng.uniform(0.25, 0.55, 400_000)])
    aux = {"hair_color": np.zeros(3), "brow_color": np.zeros(3), "iris_color": np.zeros(3)}
    expected, _ = _whole_array_paint(pc, pc, params, aux)
    got, _ = data._labels(np.ascontiguousarray(pc[:, 0]), np.ascontiguousarray(pc[:, 1]), params)
    assert np.array_equal(got, expected)
    for label in (2, 3, 4, 5):
        assert np.count_nonzero(got == label) > 1000


# -- corpus ------------------------------------------------------------------------


def test_make_corpus_layout(tmp_path):
    manifest = make_corpus(tmp_path / "c", count=10, size=32, seed=9)
    rows = read_manifest(manifest)
    assert len(rows) == 10
    groups = [r[1] for r in rows]
    assert abs(groups.count("plain") - groups.count("makeup")) <= 1
    for stem, _, img, lm, msk in rows:
        sample = load_sample(tmp_path / "c" / img)
        assert sample.image.shape == (3, 32, 32)
        assert sample.landmarks.shape == (LANDMARK_COUNT, 2)


def test_make_corpus_byte_identical(tmp_path):
    make_corpus(tmp_path / "a", count=4, size=24, seed=5)
    make_corpus(tmp_path / "b", count=4, size=24, seed=5)
    for name in ("manifest.txt", "0000.ppm", "0003.pgm", "0002.lm"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_make_corpus_draws_child_seeds_one_at_a_time(tmp_path, monkeypatch):
    # spawn(count) would hold every child seed, 376 bytes each, before the
    # first file is written; the first sample fails, so only one is drawn
    import tracemalloc

    def first_face_fails(*args):
        raise ParameterError("first face")

    monkeypatch.setattr(data, "synth_face", first_face_fails)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="first face"):
            make_corpus(tmp_path / "c", count=10**5, size=8, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"make_corpus peaked at {peak / 1e6:.1f} MB before its first sample"
    assert not (tmp_path / "c").exists()


def test_make_corpus_count_validation(tmp_path):
    with pytest.raises(ParameterError):
        make_corpus(tmp_path / "x", count=1, size=16, seed=0)


# -- formats ------------------------------------------------------------------------


def test_ppm_round_trip_bit_identical(tmp_path, rng):
    img = rng.uniform(size=(3, 9, 7))
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    write_ppm(p1, img)
    write_ppm(p2, read_ppm(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_ppm_bad_magic(tmp_path):
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P3\n2 2\n255\n" + bytes(12))
    with pytest.raises(FormatError, match="byte 0"):
        read_ppm(path)


def test_ppm_truncated_payload(tmp_path):
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
    with pytest.raises(FormatError, match="truncated"):
        read_ppm(path)


def test_pgm_round_trip_and_label_check(tmp_path, rng):
    mask = rng.integers(0, 8, size=(6, 6)).astype(np.uint8)
    path = tmp_path / "m.pgm"
    write_pgm(path, mask)
    assert np.array_equal(read_pgm(path), mask)
    bad = tmp_path / "bad.pgm"
    # the first bad pixel, not the largest label; its byte follows the 11-byte header
    bad.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 9, 0, 12]))
    with pytest.raises(FormatError) as caught:
        read_pgm(bad)
    assert str(caught.value) == f"{bad}: label 9 outside [0,7] at row 0, column 1 (byte 12)"


@pytest.mark.parametrize("blob, message", [
    # the whitespace after maxval is part of the header
    (b"P6\n4 3\n255", "truncated header at byte 10"),
    (b"P6\n4 3\n254\n" + bytes(36), "maxval must be 255, got 254 at byte 7"),
])
def test_netpbm_header_errors_name_the_byte(tmp_path, blob, message):
    path = tmp_path / "x.ppm"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as caught:
        read_ppm(path)
    assert str(caught.value) == f"{path}: {message}"


def test_netpbm_writers_exact_bytes(tmp_path):
    image = np.zeros((3, 1, 2))
    image[:, 0, 1] = (1.0, 0.5, 0.2)
    write_ppm(tmp_path / "i.ppm", image)
    assert (tmp_path / "i.ppm").read_bytes() == b"P6\n2 1\n255\n" + bytes([0, 0, 0, 255, 128, 51])
    write_pgm(tmp_path / "m.pgm", np.array([[1, 7], [0, 6]]))
    assert (tmp_path / "m.pgm").read_bytes() == b"P5\n2 2\n255\n" + bytes([1, 7, 0, 6])


def test_write_all_replaces_a_symlink_but_refuses_a_directory(tmp_path):
    # os.replace swaps a symlink for the file and leaves what it pointed to;
    # a real directory cannot be replaced, so it stops the run before any move
    (tmp_path / "d").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "d")
    write_all([(tmp_path / "link", lambda path: write_pgm(path, np.zeros((1, 1))))])
    assert not (tmp_path / "link").is_symlink() and read_pgm(tmp_path / "link").shape == (1, 1)
    (tmp_path / "a.pgm").write_bytes(b"older")
    with pytest.raises(IsADirectoryError, match=re.escape(repr(str(tmp_path / "d")))):
        write_all([(tmp_path / "a.pgm", lambda path: write_pgm(path, np.zeros((1, 1)))),
                   (str(tmp_path / "d"), lambda path: write_pgm(path, np.zeros((1, 1))))])
    assert (tmp_path / "a.pgm").read_bytes() == b"older"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pgm", "d", "link"]
    assert list((tmp_path / "d").iterdir()) == []



@pytest.mark.parametrize("case", ["file", "empty", "missing directory", "directory", "symlink to a directory",
                                  "same realpath"])
def test_check_targets_accepts_and_refuses_what_write_all_does(tmp_path, monkeypatch, case):
    # one rule decides both: the same error, naming the same path, or none
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "d")
    paths = {
        "file": ["a.pgm", "d/b.pgm"],
        "empty": ["a.pgm", ""],
        "missing directory": ["a.pgm", "gone/b.pgm"],
        "directory": ["a.pgm", "d"],
        "symlink to a directory": ["a.pgm", "link"],
        "same realpath": ["a.pgm", "d/../a.pgm"],
    }[case]

    def outcome(run):
        try:
            run()
        except (OSError, ValueError) as exc:
            return type(exc), str(exc)
        return None

    checked = outcome(lambda: check_targets(paths))
    written = outcome(lambda: write_all([(path, lambda temp: write_pgm(temp, np.zeros((1, 1)))) for path in paths]))
    assert checked == written
    refused = case not in ("file", "symlink to a directory")
    assert (checked is not None) == refused
    if refused:
        assert checked[1].endswith(repr(paths[1])) or checked[1].startswith(f"{paths[1]}: ")
        assert not (tmp_path / "a.pgm").exists()


def test_write_all_refuses_a_target_an_earlier_output_names(tmp_path):
    # compared by realpath, before the second output is made or anything moves
    (tmp_path / "d").mkdir()
    made = []

    def write(path):
        made.append(path)
        write_pgm(path, np.zeros((1, 1)))

    again = tmp_path / "d" / ".." / "a.pgm"
    with pytest.raises(ParameterError, match=re.escape(f"{again}: two outputs of one command name this file")):
        write_all([(tmp_path / "a.pgm", write), (again, write)])
    assert len(made) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]

def test_pgm_truncated_payload(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
    with pytest.raises(FormatError, match=re.escape(f"{path}: pixel payload truncated at byte 21")):
        read_pgm(path)


@pytest.mark.parametrize("reader, header, message", [
    (read_pgm, b"P5\n0 0\n255\n", "width must be at least 1, got 0 at byte 3"),
    (read_ppm, b"P6\n0 3\n255\n", "width must be at least 1, got 0 at byte 3"),
    (read_ppm, b"P6\n4 0\n255\n", "height must be at least 1, got 0 at byte 5"),
    (read_pgm, b"P5\n-2 2\n255\n", "width must be at least 1, got -2 at byte 3"),
    (read_pgm, b"P5  3\n\n-1 255\n", "height must be at least 1, got -1 at byte 7"),
])
def test_netpbm_nonpositive_extent(tmp_path, reader, header, message):
    path = tmp_path / "x.pnm"
    path.write_bytes(header + bytes(12))
    with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
        reader(path)


@pytest.mark.parametrize("header, message", [
    (b"P5\nx 2\n255\n", "width must be an integer, got 'x' at byte 3"),
    (b"P5\n2 y\n255\n", "height must be an integer, got 'y' at byte 5"),
    (b"P5\n2 2\nzz\n", "maxval must be an integer, got 'zz' at byte 7"),
    # int() takes digit separators and a plus sign; netpbm does not
    (b"P5\n1_0 +1\n255\n", "width must be an integer, got '1_0' at byte 3"),
    (b"P5\n2 +1\n255\n", "height must be an integer, got '+1' at byte 5"),
    (b"P5\n2 2\n1_000\n", "maxval must be an integer, got '1_000' at byte 7"),
])
def test_netpbm_non_numeric_field_named_at_its_start(tmp_path, header, message):
    path = tmp_path / "x.pgm"
    path.write_bytes(header + bytes(4))
    with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
        read_pgm(path)


def test_landmarks_round_trip(tmp_path, rng):
    lm = rng.uniform(size=(LANDMARK_COUNT, 2))
    path = tmp_path / "f.lm"
    write_landmarks(path, lm)
    np.testing.assert_allclose(read_landmarks(path), lm, atol=1e-6)


def test_landmarks_wrong_count_is_schema_error(tmp_path):
    path = tmp_path / "f.lm"
    path.write_text("FATLM 1 29\n" + "0.5 0.5\n" * 29)
    with pytest.raises(FormatError, match="schema"):
        read_landmarks(path)


def test_landmarks_out_of_range_or_non_finite(tmp_path):
    path = tmp_path / "f.lm"
    for bad in ("1.5 0.5", "nan 0.5", "0.5 nan", "0.5 inf"):
        path.write_text(f"FATLM 1 {LANDMARK_COUNT}\n" + "0.5 0.5\n" * (LANDMARK_COUNT - 1) + bad + "\n")
        with pytest.raises(FormatError, match="finite and lie in"):
            read_landmarks(path)


def test_landmarks_reject_non_ascii_byte(tmp_path):
    path = tmp_path / "f.lm"
    path.write_bytes(f"FATLM 1 {LANDMARK_COUNT}\n".encode() + b"0.5 0.5\xff\n" * LANDMARK_COUNT)
    with pytest.raises(FormatError, match=re.escape(f"{path}: byte 18 is 0xff, not ASCII text")):
        read_landmarks(path)


def test_manifest_rejects_non_ascii_byte(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_bytes(b"0000 plain 0000.ppm 0000.lm 0000.pgm\n0001 m\xe4keup 0001.ppm 0001.lm 0001.pgm\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}: byte 43 is 0xe4, not ASCII text")):
        read_manifest(path)


def test_manifest_rejects_unknown_group(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text("0000 plain 0000.ppm 0000.lm 0000.pgm\n\n0001 lipstick 0001.ppm 0001.lm 0001.pgm\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}:3: group must be 'plain' or 'makeup', got 'lipstick'")):
        read_manifest(path)


def test_load_sample_requires_matching_mask(tmp_path, rng):
    write_ppm(tmp_path / "s.ppm", rng.uniform(size=(3, 8, 8)))
    write_landmarks(tmp_path / "s.lm", rng.uniform(size=(LANDMARK_COUNT, 2)))
    write_pgm(tmp_path / "s.pgm", np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(FormatError):
        load_sample(tmp_path / "s.ppm")
