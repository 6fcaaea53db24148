"""Every file reader against every prefix of a small valid file.

Each prefix must either parse or raise a FormatError whose message starts
with the file's path. The sweep covers every format fatkit reads: PPM and
PGM images, FATLM landmarks, FATPTS control points, the corpus manifest,
FATW checkpoints and `key = value` config files (a `.cfg` sidecar too).
`tests/test_cli.py` runs truncated checkpoints through `fatkit transfer`.
"""

import numpy as np
import pytest

from fatkit.cli import _read_config
from fatkit.data import read_landmarks, read_manifest, read_pgm, read_ppm, write_landmarks, write_pgm, write_ppm
from fatkit.gan import config_text
from fatkit.tensor import FormatError, load_tensors, save_tensors
from fatkit.tps import read_points, write_points


def write_manifest(path, rng):
    path.write_text("0000 plain 0000.ppm 0000.lm 0000.pgm\n0001 makeup 0001.ppm 0001.lm 0001.pgm\n")


def write_config(path, rng):
    path.write_text(config_text({"size": 32, "spatial": True, "warp_labels": "eyes", "lr": 0.001}))


# format -> (writer of a small valid file, its reader)
FORMATS = {
    "ppm": (lambda path, rng: write_ppm(path, rng.uniform(size=(3, 3, 4))), read_ppm),
    "pgm": (lambda path, rng: write_pgm(path, rng.integers(0, 8, size=(3, 4))), read_pgm),
    "fatlm": (lambda path, rng: write_landmarks(path, rng.uniform(size=(30, 2))), read_landmarks),
    "fatpts": (lambda path, rng: write_points(path, rng.uniform(-1.0, 1.0, size=(5, 2))), read_points),
    "manifest": (write_manifest, read_manifest),
    "fatw": (lambda path, rng: save_tensors(path, {
        "gen.enc0.w": rng.normal(size=(2, 3)).astype(np.float32),
        "gen.dec2.b": rng.normal(size=(4,)).astype(np.float32),
    }), load_tensors),
    "config": (write_config, _read_config),
}


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
            assert str(exc).startswith(f"{cut}:"), (n, str(exc))
            rejected += 1
    assert rejected > 0

