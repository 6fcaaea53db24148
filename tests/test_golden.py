"""Golden digests: a fixed CLI session writes the same bytes as when the
digests were recorded.

The session runs in-process through `fatkit.cli.main`: a 48 px corpus and a
96 px frame corpus from `synth`, a 3-step colour `train`, a 2-step
`--spatial` train with `control_grid = 4`, `transfer` from both models (plus
one `--highres`), `pgt` in `tps --spatial-part eyebrows`, `hist` and `blend`
modes, and a `warp`. `tests/golden.json` holds the SHA-256 of every file it
leaves behind, and the numpy and BLAS it was recorded with: float results
depend on both, so on another toolchain the test fails naming the two. The
file also records the kernel set (core) that a DYNAMIC_ARCH OpenBLAS picked
for the CPU, which can move float bits too; when digests move on another
core, the failure names both cores.

A change that moves output bits on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says which digests moved and why.
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fatkit.cli import main
from fatkit.data import write_point_text

GOLDEN = Path(__file__).with_name("golden.json")


def toolchain() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}"


def blas_core() -> str:
    """The OpenBLAS core of numpy's bundled library, or 'unknown' when the
    library or its corename symbol is not there."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode("ascii")
    return "unknown"


def run_session(root: Path):
    """Run the fixed session, writing every file under `root`."""
    corpus, frames, work = root / "corpus", root / "frames", root / "work"

    def cli(*argv):
        code = main([str(arg) for arg in argv])
        assert code == 0, f"fatkit {argv[0]} exited with {code}"

    cli("synth", "--out", corpus, "--count", 6, "--size", 48, "--seed", 5)
    cli("synth", "--out", frames, "--count", 2, "--size", 96, "--seed", 6)
    work.mkdir()
    (work / "spatial.cfg").write_text("control_grid = 4\n")
    data = ("--data", corpus, "--size", 48, "--width", 4)
    cli("train", *data, "--steps", 3, "--seed", 1, "--out", work / "color.fatw", "--log", work / "color.csv")
    cli("train", *data, "--steps", 2, "--seed", 2, "--spatial", "--config", work / "spatial.cfg",
        "--out", work / "spatial.fatw", "--log", work / "spatial.csv")
    pair = ("--source", corpus / "0000.ppm", "--ref", corpus / "0001.ppm")
    for model in ("color", "spatial"):
        cli("transfer", "--model", work / f"{model}.fatw", *pair, "--out", work / f"transfer-{model}.ppm")
    cli("transfer", "--model", work / "color.fatw", *pair, "--out", work / "transfer-highres.ppm",
        "--highres", frames / "0000.ppm", "--box", "8,8,80,80")
    cli("pgt", *pair, "--mode", "tps", "--spatial-part", "eyebrows", "--out", work / "pgt-tps.ppm")
    cli("pgt", *pair, "--mode", "hist", "--out", work / "pgt-hist.ppm")
    cli("pgt", *pair, "--mode", "blend", "--out", work / "pgt-blend.ppm")
    square = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5], [0.0, 0.0]])
    write_point_text(work / "src.pts", "FATPTS", square)
    write_point_text(work / "dst.pts", "FATPTS", square + np.array([[0.0, 0.0]] * 4 + [[0.05, -0.03]]))
    cli("warp", "--image", corpus / "0000.ppm", "--src-pts", work / "src.pts",
        "--dst-pts", work / "dst.pts", "--out", work / "warp.ppm")


def session_digests(root: Path) -> dict:
    run_session(root)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_session_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    if toolchain() != golden["toolchain"]:
        pytest.fail(f"golden digests were recorded with {golden['toolchain']}, "
                    f"this run has {toolchain()}", pytrace=False)
    got = session_digests(tmp_path)
    moved = sorted(name for name in set(got) | set(golden["files"]) if got.get(name) != golden["files"].get(name))
    core = blas_core()
    where = "" if core == golden["blas_core"] else f" on BLAS core {core}, recorded on {golden['blas_core']}"
    assert not moved, f"{len(moved)} of {len(got)} outputs moved{where}: {', '.join(moved)}"


if __name__ == "__main__":
    import contextlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(None):
        files = session_digests(Path(tmp))
    record = {"toolchain": toolchain(), "blas_core": blas_core(), "files": files}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{GOLDEN}: {len(files)} digests")
