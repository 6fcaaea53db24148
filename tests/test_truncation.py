"""Every file reader against every prefix and every byte flip of a small
valid file.

Each prefix, and each copy with one byte XORed with 0xFF or 0x01, must
either parse or raise a FormatError whose message starts with the file's
path. The sweep covers every format fatkit reads: PPM and PGM images, FATLM
landmarks, FATPTS control points, the corpus manifest, FATW checkpoints
(prefixes only) and `key = value` config files (a `.cfg` sidecar too). One
rejected flip per format also runs through `fatkit.cli.main`, which must
exit 2 with one line. `tests/test_cli.py` runs truncated checkpoints
through `fatkit transfer`. A rejection of a binary file (PPM, PGM, FATW)
must also name at least one `byte N`, and every N it names lies inside the
file: 0 <= N <= its length. A rejection of a text file (FATLM, FATPTS,
manifest, config) must name a line of the file as `path:N:`, with
1 <= N <= its line count as text mode reads it (an empty file's header is
line 1), or a `byte N` inside the file.
"""

import io
import re

import numpy as np
import pytest

from fatkit.cli import main
from fatkit.data import (
    read_landmarks, read_manifest, read_pgm, read_ppm, write_landmarks, write_pgm, write_point_text, write_ppm,
)
from fatkit.gan import config_text, read_config
from fatkit.tensor import FormatError, load_tensors, save_tensors
from fatkit.tps import read_points


def write_manifest(path, rng):
    path.write_text("0000 plain 0000.ppm 0000.lm 0000.pgm\n0001 makeup 0001.ppm 0001.lm 0001.pgm\n")


def write_config(path, rng):
    path.write_text(config_text({"size": 32, "spatial": True, "warp_labels": "eyes", "lr": 0.001}))


# format -> (writer of a small valid file, its reader)
FORMATS = {
    "ppm": (lambda path, rng: write_ppm(path, rng.uniform(size=(3, 3, 4))), read_ppm),
    "pgm": (lambda path, rng: write_pgm(path, rng.integers(0, 8, size=(3, 4))), read_pgm),
    "fatlm": (lambda path, rng: write_landmarks(path, rng.uniform(size=(30, 2))), read_landmarks),
    "fatpts": (lambda path, rng: write_point_text(path, "FATPTS", rng.uniform(-1.0, 1.0, size=(5, 2))), read_points),
    "manifest": (write_manifest, read_manifest),
    "fatw": (lambda path, rng: save_tensors(path, {
        "gen.enc0.w": rng.normal(size=(2, 3)).astype(np.float32),
        "gen.dec2.b": rng.normal(size=(4,)).astype(np.float32),
    }), load_tensors),
    "config": (write_config, read_config),
}

BINARY = {"ppm", "pgm", "fatw"}


def line_count(blob):
    """The lines of `blob` as text mode reads them, at least the header's one."""
    return max(1, len(io.TextIOWrapper(io.BytesIO(blob), encoding="latin-1").readlines()))


def assert_names_the_file(kind, path, blob, exc):
    """The rejection starts with the path. A binary one names bytes inside
    `blob`; a text one names a line of `blob` or a byte inside it."""
    message = str(exc)
    assert message.startswith(f"{path}:"), message
    rest = message[len(str(path)) + 1:]
    offsets = [int(n) for n in re.findall(r"\bbyte (\d+)", rest)]
    assert all(0 <= n <= len(blob) for n in offsets), (len(blob), message)
    line = re.match(r"(\d+):", rest)
    if kind in BINARY or not line:
        assert offsets, (len(blob), message)
    else:
        assert 1 <= int(line[1]) <= line_count(blob), (line_count(blob), message)


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_every_prefix_parses_or_names_the_file(kind, tmp_path):
    write, read = FORMATS[kind]
    whole = tmp_path / f"whole.{kind}"
    write(whole, np.random.default_rng(0))
    read(whole)
    blob = whole.read_bytes()
    cut = tmp_path / f"cut.{kind}"
    rejected = 0
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        try:
            read(cut)
        except FormatError as exc:
            assert_names_the_file(kind, cut, blob[:n], exc)
            rejected += 1
    assert rejected > 0


def flips(blob):
    """Every copy of `blob` with one byte XORed with 0xFF or with 0x01."""
    for i in range(len(blob)):
        for mask in (0xFF, 0x01):
            flipped = bytearray(blob)
            flipped[i] ^= mask
            yield bytes(flipped)


# a flip inside FATW float data is still a valid float: no reader can tell
FLIPPABLE = sorted(set(FORMATS) - {"fatw"})


@pytest.mark.parametrize("kind", FLIPPABLE)
def test_every_byte_flip_parses_or_names_the_file(kind, tmp_path):
    write, read = FORMATS[kind]
    whole = tmp_path / f"whole.{kind}"
    write(whole, np.random.default_rng(0))
    bad = tmp_path / f"flip.{kind}"
    rejected = 0
    for blob in flips(whole.read_bytes()):
        bad.write_bytes(blob)
        try:
            read(bad)
        except FormatError as exc:
            assert_names_the_file(kind, bad, blob, exc)
            rejected += 1
    assert rejected > 0


def _cli_inputs(root):
    """A tiny sample triple, a control-point file and a corpus directory
    holding a manifest and a config file, with the argv of a command that
    reads each format; `root` receives every file."""
    rng = np.random.default_rng(0)
    sample = root / "s.ppm"
    for kind, path in (("ppm", sample), ("pgm", root / "s.pgm"), ("fatlm", root / "s.lm"),
                       ("fatpts", root / "p.pts"), ("manifest", root / "manifest.txt"),
                       ("config", root / "run.cfg")):
        FORMATS[kind][0](path, rng)
    warp = ["warp", "--image", sample, "--src-pts", root / "p.pts", "--dst-pts", root / "p.pts"]
    pgt = ["pgt", "--source", sample, "--ref", sample, "--mode", "hist"]
    train = ["train", "--data", root, "--log", root / "l.csv"]
    return {
        "ppm": (sample, warp),
        "fatpts": (root / "p.pts", warp),
        "pgm": (root / "s.pgm", pgt),
        "fatlm": (root / "s.lm", pgt),
        "manifest": (root / "manifest.txt", train),
        "config": (root / "run.cfg", train + ["--config", root / "run.cfg"]),
    }


@pytest.mark.parametrize("kind", FLIPPABLE)
def test_byte_flipped_input_exits_2_in_one_line(kind, tmp_path, capsys):
    # the first flip the reader rejects, through the command that reads it
    path, argv = _cli_inputs(tmp_path)[kind]
    read = FORMATS[kind][1]
    for blob in flips(path.read_bytes()):
        path.write_bytes(blob)
        try:
            read(path)
        except FormatError:
            break
    out = tmp_path / ("out.fatw" if argv[0] == "train" else "out.ppm")
    code = main([str(arg) for arg in argv + ["--out", out]])
    err = capsys.readouterr().err
    assert code == 2, err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert err.startswith(f"fatkit {argv[0]}: {path}:"), err
