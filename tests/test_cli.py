"""Command-line interface: subcommands, formats, exit codes, determinism."""

import subprocess
import sys

import numpy as np
import pytest

from fatkit.data import read_ppm, write_point_text


def run_cli(*argv, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "fatkit.cli", *map(str, argv)],
        capture_output=True, text=True, env=full_env,
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    result = run_cli("synth", "--out", out, "--count", 6, "--size", 48, "--seed", 5)
    assert result.returncode == 0, result.stderr
    return out


# -- synth --------------------------------------------------------------------------


def test_synth_creates_triples_and_manifest(corpus):
    files = sorted(p.name for p in corpus.iterdir())
    assert "manifest.txt" in files
    for stem in ("0000", "0005"):
        for ext in (".ppm", ".lm", ".pgm"):
            assert f"{stem}{ext}" in files
    assert len((corpus / "manifest.txt").read_text().strip().splitlines()) == 6


def test_synth_missing_out_is_usage_error():
    result = run_cli("synth", "--count", 4)
    assert result.returncode == 1


def test_unknown_flag_is_usage_error():
    result = run_cli("synth", "--out", "/tmp/x", "--count", 4, "--frobnicate")
    assert result.returncode == 1


def test_synth_nonpositive_size_exit_2(tmp_path):
    for size in (0, -4):
        out = tmp_path / f"size{size}"
        result = run_cli("synth", "--out", out, "--count", 2, "--size", size)
        assert result.returncode == 2
        assert result.stderr.splitlines() == [f"fatkit synth: size must be at least 1, got {size}"]
        assert not out.exists()


@pytest.mark.parametrize("command, argv", [
    ("synth", ["--count", 2, "--size", 8]),
    ("bench", ["--size", 16, "--width", 4, "--iters", 1]),
])
def test_negative_seed_is_one_line_data_error_that_creates_nothing(tmp_path, command, argv):
    out = {"synth": ["--out", tmp_path / "corpus"], "bench": ["--csv", tmp_path / "b.csv"]}[command]
    result = run_cli(command, *argv, *out, "--seed", -1)
    assert result.returncode == 2
    assert result.stderr.splitlines() == [f"fatkit {command}: seed must be nonnegative, got -1"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("failing, existing", [
    (None, False), ("write_ppm", True), ("write_landmarks", False), ("write_pgm", True),
])
def test_synth_writes_samples_and_manifest_all_or_nothing(tmp_path, capsys, monkeypatch, failing, existing):
    # each writer fails on its second call, after the first sample's files
    import fatkit.data
    from fatkit import cli

    out = tmp_path / "corpus"
    if existing:
        out.mkdir()
    if failing is not None:
        real, calls = getattr(fatkit.data, failing), []

        def fails_second(path, *args):
            calls.append(path)
            (fill_the_disk if len(calls) == 2 else real)(path, *args)

        monkeypatch.setattr(fatkit.data, failing, fails_second)
    code = cli.main(["synth", "--out", str(out), "--count", "4", "--size", "16"])
    err = capsys.readouterr().err.splitlines()
    if failing is None:
        assert code == 0 and err == []
        names = [f"{i:04d}{ext}" for i in range(4) for ext in (".lm", ".pgm", ".ppm")]
        assert sorted(p.name for p in out.iterdir()) == sorted(names + ["manifest.txt"])  # no temporary file
        return
    assert code == 2
    assert len(err) == 1 and err[0].startswith("fatkit synth: [Errno 28] No space left on device")
    # no sample, no manifest and no temporary file; a directory synth made is gone
    assert list(out.iterdir()) == [] if existing else not out.exists()


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("synth", "--out", a, "--count", 4, "--size", 32, "--seed", 9).returncode == 0
    assert run_cli("synth", "--out", b, "--count", 4, "--size", 32, "--seed", 9).returncode == 0
    for name in ("manifest.txt", "0000.ppm", "0003.pgm", "0001.lm"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# -- pgt ----------------------------------------------------------------------------


def test_pgt_tps_self_pair(corpus, tmp_path):
    out = tmp_path / "self.ppm"
    result = run_cli("pgt", "--source", corpus / "0000.ppm", "--ref", corpus / "0000.ppm",
                     "--mode", "tps", "--out", out)
    assert result.returncode == 0, result.stderr
    src = read_ppm(corpus / "0000.ppm")
    got = read_ppm(out)
    assert np.abs(got - src).max() <= 2.0 / 255.0
    assert (tmp_path / "self.meta").read_text().startswith("mode=tps-color")


def test_pgt_hist_sidecar(corpus, tmp_path):
    out = tmp_path / "h.ppm"
    result = run_cli("pgt", "--source", corpus / "0000.ppm", "--ref", corpus / "0001.ppm",
                     "--mode", "hist", "--out", out)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "h.meta").read_text().split()[0] == "mode=histogram"


def test_pgt_spatial_part_sidecar(corpus, tmp_path):
    out = tmp_path / "s.ppm"
    result = run_cli("pgt", "--source", corpus / "0000.ppm", "--ref", corpus / "0001.ppm",
                     "--mode", "tps", "--spatial-part", "eyebrows", "--out", out)
    assert result.returncode == 0, result.stderr
    meta = (tmp_path / "s.meta").read_text()
    assert "parts=2,3" in meta


def browless_source(corpus, tmp_path):
    """Sample 0000 of the corpus with its brow pixels relabelled as skin."""
    import shutil

    from fatkit.data import read_pgm, write_pgm

    for ext in (".ppm", ".lm"):
        shutil.copy(corpus / f"0000{ext}", tmp_path / f"bare{ext}")
    mask = read_pgm(corpus / "0000.pgm")
    assert np.isin(mask, (2, 3)).any()
    write_pgm(tmp_path / "bare.pgm", np.where(np.isin(mask, (2, 3)), 1, mask).astype(np.uint8))
    return tmp_path / "bare.ppm"


def test_pgt_skipped_spatial_stage_keeps_color_mode(corpus, tmp_path, capsys):
    # a source with no brow pixels: both eyebrow stages are skipped, so the
    # image and the sidecar are those of the colour stage alone
    from fatkit.cli import main

    source = browless_source(corpus, tmp_path)
    common = ["pgt", "--source", str(source), "--ref", str(corpus / "0001.ppm"), "--mode", "tps"]
    assert main([*common, "--out", str(tmp_path / "color.ppm")]) == 0
    with pytest.warns(UserWarning, match="absent"):
        assert main([*common, "--spatial-part", "eyebrows", "--out", str(tmp_path / "brows.ppm")]) == 0
    capsys.readouterr()
    meta = (tmp_path / "brows.meta").read_text()
    assert meta.split()[0] == "mode=tps-color"
    assert meta == (tmp_path / "color.meta").read_text()
    assert (tmp_path / "brows.ppm").read_bytes() == (tmp_path / "color.ppm").read_bytes()


def test_pgt_skipped_spatial_stage_warns_in_one_line_each(corpus, tmp_path):
    source = browless_source(corpus, tmp_path)
    result = run_cli("pgt", "--source", source, "--ref", corpus / "0001.ppm", "--mode", "tps",
                     "--spatial-part", "eyebrows", "--out", tmp_path / "o.ppm")
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines() == [
        f"fatkit pgt: warning: part {part} absent from a parsing mask; spatial stage skipped" for part in (2, 3)
    ]


def test_pgt_spatial_part_all_runs_the_five_part_stages(corpus, tmp_path, capsys):
    # 'all' also holds skin and hair, which have no contour to reshape
    from fatkit.cli import main

    out = tmp_path / "all.ppm"
    assert main(["pgt", "--source", str(corpus / "0000.ppm"), "--ref", str(corpus / "0001.ppm"),
                 "--mode", "tps", "--spatial-part", "all", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (tmp_path / "all.meta").read_text() == "mode=tps-spatial parts=2,3,4,5,6\n"


@pytest.mark.parametrize("mode, extra, message", [
    ("hist", ("--spatial-part", "eyebrows"), "--spatial-part needs --mode tps, got --mode hist"),
    ("blend", ("--spatial-part", "eyebrows"), "--spatial-part needs --mode tps, got --mode blend"),
    ("tps", ("--alpha", "0.5"), "--alpha needs --mode blend, got --mode tps"),
    ("hist", ("--alpha", "0.8"), "--alpha needs --mode blend, got --mode hist"),
])
def test_pgt_flag_of_another_mode_is_usage_error(corpus, tmp_path, capsys, mode, extra, message):
    from fatkit.cli import main

    out = tmp_path / "o.ppm"
    code = main(["pgt", "--source", str(corpus / "0000.ppm"), "--ref", str(corpus / "0001.ppm"),
                 "--mode", mode, *extra, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"fatkit pgt: error: {message}"]
    assert not out.exists()


def test_pgt_blend_alpha_flag_matches_library_default(corpus, tmp_path, capsys):
    from fatkit.cli import main

    common = ["pgt", "--source", str(corpus / "0000.ppm"), "--ref", str(corpus / "0001.ppm"), "--mode", "blend"]
    assert main([*common, "--out", str(tmp_path / "d.ppm")]) == 0
    assert main([*common, "--alpha", "0.8", "--out", str(tmp_path / "a.ppm")]) == 0
    assert main([*common, "--alpha", "0.3", "--out", str(tmp_path / "b.ppm")]) == 0
    capsys.readouterr()
    assert (tmp_path / "d.ppm").read_bytes() == (tmp_path / "a.ppm").read_bytes()
    assert (tmp_path / "d.ppm").read_bytes() != (tmp_path / "b.ppm").read_bytes()


def test_pgt_mask_of_zero_width_is_data_error(corpus, tmp_path, capsys):
    import shutil

    from fatkit.cli import main

    for ext in (".ppm", ".lm"):
        shutil.copy(corpus / f"0000{ext}", tmp_path / f"flat{ext}")
    (tmp_path / "flat.pgm").write_bytes(b"P5\n0 48\n255\n")
    out = tmp_path / "o.ppm"
    code = main(["pgt", "--source", str(tmp_path / "flat.ppm"), "--ref", str(corpus / "0001.ppm"),
                 "--mode", "tps", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"fatkit pgt: {tmp_path / 'flat.pgm'}: width must be at least 1, got 0 at byte 3"
    ]
    assert not out.exists()


def test_pgt_mask_of_non_numeric_height_names_the_field(corpus, tmp_path, capsys):
    import shutil

    from fatkit.cli import main

    for ext in (".ppm", ".lm"):
        shutil.copy(corpus / f"0000{ext}", tmp_path / f"bad{ext}")
    (tmp_path / "bad.pgm").write_bytes(b"P5\n48 4x\n255\n" + bytes(48 * 48))
    out = tmp_path / "o.ppm"
    code = main(["pgt", "--source", str(tmp_path / "bad.ppm"), "--ref", str(corpus / "0001.ppm"),
                 "--mode", "tps", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"fatkit pgt: {tmp_path / 'bad.pgm'}: height must be an integer, got '4x' at byte 6"
    ]
    assert not out.exists()


def test_pgt_mask_with_digit_separator_in_width_is_data_error(corpus, tmp_path, capsys):
    import shutil

    from fatkit.cli import main

    for ext in (".ppm", ".lm"):
        shutil.copy(corpus / f"0000{ext}", tmp_path / f"sep{ext}")
    (tmp_path / "sep.pgm").write_bytes(b"P5\n4_8 48\n255\n" + bytes(48 * 48))
    out = tmp_path / "o.ppm"
    code = main(["pgt", "--source", str(tmp_path / "sep.ppm"), "--ref", str(corpus / "0001.ppm"),
                 "--mode", "tps", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"fatkit pgt: {tmp_path / 'sep.pgm'}: width must be an integer, got '4_8' at byte 3"
    ]
    assert not out.exists()


def test_pgt_unknown_spatial_part_is_data_error(corpus, tmp_path, capsys):
    from fatkit.cli import main

    out = tmp_path / "o.ppm"
    code = main(["pgt", "--source", str(corpus / "0000.ppm"), "--ref", str(corpus / "0001.ppm"),
                 "--mode", "tps", "--spatial-part", "nose", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "fatkit pgt: --spatial-part must be one of ['all', 'eyebrows', 'eyes', 'lips'], got 'nose'"
    ]
    assert not out.exists()


def test_pgt_loads_neither_the_attention_nor_the_spatial_module(corpus, tmp_path):
    # nor the model stack, also when the command fails: a missing --source
    # is classified as a data error without importing fatkit.gan
    for source, code in (("0000.ppm", 0), ("missing.ppm", 2)):
        argv = ["pgt", "--source", str(corpus / source), "--ref", str(corpus / "0001.ppm"),
                "--mode", "tps", "--spatial-part", "eyebrows", "--out", str(tmp_path / "o.ppm")]
        script = (f"import sys; from fatkit.cli import main; assert main({argv!r}) == {code}; "
                  "print(sorted(m for m in sys.modules if m in ('fatkit.gan', 'fatkit.attention', 'fatkit.spatial')))")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"


def test_pgt_missing_sample_is_data_error(tmp_path):
    result = run_cli("pgt", "--source", tmp_path / "nope.ppm", "--ref", tmp_path / "nope.ppm",
                     "--mode", "tps", "--out", tmp_path / "o.ppm")
    assert result.returncode == 2


# -- train + transfer -----------------------------------------------------------------


@pytest.fixture(scope="module")
def model(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    result = run_cli("train", "--data", corpus, "--steps", 3, "--size", 48, "--width", 4,
                     "--seed", 1, "--out", out / "m.fatw", "--log", out / "l.csv")
    assert result.returncode == 0, result.stderr
    return out


def test_train_log_row_count(model):
    lines = (model / "l.csv").read_text().strip().splitlines()
    assert lines[0] == "iter,J_D,J_G,adv,cyc,per,make"
    assert len(lines) == 4


def test_train_same_seed_identical_csv(corpus, tmp_path):
    args = ("train", "--data", corpus, "--steps", 2, "--size", 48, "--width", 4, "--seed", 7)
    assert run_cli(*args, "--out", tmp_path / "a.fatw", "--log", tmp_path / "a.csv").returncode == 0
    assert run_cli(*args, "--out", tmp_path / "b.fatw", "--log", tmp_path / "b.csv").returncode == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.fatw").read_bytes() == (tmp_path / "b.fatw").read_bytes()


def test_train_config_file_overrides_and_rejects_unknown(corpus, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("# two steps from seed 3\nsteps = 2\n\nseed = 3\n")
    result = run_cli("train", "--data", corpus, "--steps", 99, "--size", 48, "--width", 4,
                     "--config", cfg, "--out", tmp_path / "m.fatw", "--log", tmp_path / "l.csv")
    assert result.returncode == 0, result.stderr
    assert len((tmp_path / "l.csv").read_text().strip().splitlines()) == 3
    cfg.write_text("stepss = 2\n")
    result = run_cli("train", "--data", corpus, "--size", 48, "--width", 4,
                     "--config", cfg, "--out", tmp_path / "m2.fatw", "--log", tmp_path / "l2.csv")
    assert result.returncode == 2


def test_train_nonpositive_steps_is_data_error(corpus, tmp_path):
    for steps in (0, -3):
        result = run_cli("train", "--data", corpus, "--steps", steps, "--size", 48, "--width", 4,
                         "--out", tmp_path / "m.fatw", "--log", tmp_path / "l.csv")
        assert result.returncode == 2
        assert result.stderr.strip().splitlines() == [
            f"fatkit train: steps must be at least 1, got {steps}"
        ]
    assert not (tmp_path / "m.fatw").exists()


def test_train_nonfinite_lr_is_data_error(corpus, tmp_path):
    args = ("train", "--data", corpus, "--steps", 1, "--size", 48, "--width", 4,
            "--out", tmp_path / "m.fatw", "--log", tmp_path / "l.csv")
    (tmp_path / "train.cfg").write_text("lr = nan\n")
    for extra, shown in ((("--lr", "nan"), "nan"), (("--lr", "inf"), "inf"),
                         (("--config", tmp_path / "train.cfg"), "nan")):
        result = run_cli(*args, *extra)
        assert result.returncode == 2
        assert result.stderr.strip().splitlines() == [
            f"fatkit train: lr must be a finite positive number, got {shown}"
        ]
    assert not (tmp_path / "m.fatw").exists()


def test_train_out_of_domain_settings_are_data_errors(corpus, tmp_path, capsys, monkeypatch):
    # from a flag or a config file: exit 2, one line naming the setting, and
    # no pair prepared
    import fatkit.gan
    from fatkit.cli import main

    def unexpected(*args, **kwargs):
        raise AssertionError("prepare_pair ran")

    monkeypatch.setattr(fatkit.gan, "prepare_pair", unexpected)
    base = ["train", "--data", str(corpus), "--steps", "1", "--size", "48", "--width", "4",
            "--out", str(tmp_path / "m.fatw"), "--log", str(tmp_path / "l.csv")]
    cfg = tmp_path / "train.cfg"
    for flag, key, value, message in (
        ("--heads", "heads", "0", "heads must be positive, got 0"),
        ("--width", "base_width", "0", "base_width must be positive, got 0"),
        ("--seed", "seed", "-1", "seed must be nonnegative, got -1"),
        ("--lr", "lr", "-1", "lr must be a finite positive number, got -1.0"),
        ("--warp-labels", "warp_labels", "brows",
         "warp_labels must be one of ['all', 'eyebrows', 'eyes', 'lips'], got 'brows'"),
    ):
        cfg.write_text(f"{key} = {value}\n")
        for extra in ([flag, value], ["--config", str(cfg)]):
            code = main(base + extra)
            assert code == 2, (key, extra)
            assert capsys.readouterr().err.splitlines() == [f"fatkit train: {message}"]
    assert not (tmp_path / "m.fatw").exists()


def test_train_control_grid_below_two_is_data_error(corpus, tmp_path, capsys, monkeypatch):
    # checked without --spatial too, before any pair is prepared
    import fatkit.gan
    from fatkit.cli import main

    def unexpected(*args, **kwargs):
        raise AssertionError("prepare_pair ran")

    monkeypatch.setattr(fatkit.gan, "prepare_pair", unexpected)
    cfg = tmp_path / "train.cfg"
    for value in (0, -3):
        cfg.write_text(f"control_grid = {value}\n")
        code = main(["train", "--data", str(corpus), "--steps", "1", "--size", "48", "--width", "4",
                     "--config", str(cfg), "--out", str(tmp_path / "m.fatw"), "--log", str(tmp_path / "l.csv")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"fatkit train: control_grid must be at least 2, got {value}"
        ]
    assert not (tmp_path / "m.fatw").exists()
    assert not (tmp_path / "m.fatw.cfg").exists()


def test_config_file_errors_name_the_file(corpus, tmp_path, capsys):
    from fatkit.cli import main

    cfg = tmp_path / "train.cfg"
    cfg.write_text("steps = 1\nbogus = 3\n")
    code = main(["train", "--data", str(corpus), "--size", "48", "--width", "4", "--config", str(cfg),
                 "--out", str(tmp_path / "m.fatw"), "--log", str(tmp_path / "l.csv")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"fatkit train: {cfg}:2: unknown configuration key 'bogus'"
    ]
    saved_model(tmp_path / "t.fatw")
    sidecar = tmp_path / "t.fatw.cfg"
    lines = sidecar.read_text().splitlines()
    lines[3] = "spatial = maybe"
    sidecar.write_text("\n".join(lines) + "\n")
    code = main(["transfer", "--model", str(tmp_path / "t.fatw"), "--source", str(corpus / "0000.ppm"),
                 "--ref", str(corpus / "0001.ppm"), "--out", str(tmp_path / "t.ppm")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"fatkit transfer: {sidecar}:4: spatial must be true or false, got 'maybe'"
    ]
    assert not (tmp_path / "m.fatw").exists() and not (tmp_path / "t.ppm").exists()


def test_config_file_repeated_key_exit_2_in_one_line(corpus, tmp_path, capsys):
    from fatkit.cli import main

    cfg = tmp_path / "train.cfg"
    cfg.write_text("steps = 5\n# a comment\nsteps = 7\n")
    code = main(["train", "--data", str(corpus), "--size", "48", "--width", "4", "--config", str(cfg),
                 "--out", str(tmp_path / "m.fatw"), "--log", str(tmp_path / "l.csv")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"fatkit train: {cfg}:3: repeated configuration key 'steps' (first on line 1)"
    ]
    assert not (tmp_path / "m.fatw").exists() and not (tmp_path / "l.csv").exists()



@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_config_line_holding_a_splitlines_break_is_one_line(corpus, tmp_path, capsys, char):
    # text mode ends no line at these characters, so the file holds one
    # line with a bad value, never a key repeated on line 2
    from fatkit.cli import main

    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"steps = 5{char}steps = 7\n")
    code = main(["train", "--data", str(corpus), "--size", "48", "--width", "4", "--config", str(cfg),
                 "--out", str(tmp_path / "m.fatw"), "--log", str(tmp_path / "l.csv")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"fatkit train: {cfg}:1: bad value for steps: "), err
    assert "repeated" not in err[0]

def test_train_non_finite_loss_weight_is_data_error(corpus, tmp_path, capsys, monkeypatch):
    # rejected with the exit code of a negative weight, before any pair is prepared
    import fatkit.gan
    from fatkit.cli import main

    def unexpected(*args, **kwargs):
        raise AssertionError("prepare_pair ran")

    monkeypatch.setattr(fatkit.gan, "prepare_pair", unexpected)
    for value in ("nan", "inf", "-5"):
        (tmp_path / "train.cfg").write_text(f"lambda_cyc = {value}\n")
        code = main(["train", "--data", str(corpus), "--steps", "1", "--size", "48", "--width", "4",
                     "--config", str(tmp_path / "train.cfg"), "--out", str(tmp_path / "m.fatw"),
                     "--log", str(tmp_path / "l.csv")])
        assert code == 2, value
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("fatkit train: loss weights must be finite and nonnegative")
    assert not (tmp_path / "m.fatw").exists()


def test_non_ascii_text_inputs_are_data_errors(corpus, tmp_path, capsys):
    # one stray byte in a landmark file, the manifest, a config file or a
    # model's .cfg sidecar: exit 2 with one line naming the file
    import shutil

    from fatkit.cli import main

    data = tmp_path / "data"
    shutil.copytree(corpus, data)
    saved_model(tmp_path / "m.fatw")
    (tmp_path / "train.cfg").write_text("steps = 1\n")
    pts = tmp_path / "p.txt"
    write_point_text(pts, "FATPTS", np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]))
    train = ["train", "--data", str(data), "--size", "48", "--width", "4",
             "--config", str(tmp_path / "train.cfg"), "--out", str(tmp_path / "t.fatw"),
             "--log", str(tmp_path / "l.csv")]
    transfer = ["transfer", "--model", str(tmp_path / "m.fatw"), "--source", str(data / "0000.ppm"),
                "--ref", str(data / "0001.ppm"), "--out", str(tmp_path / "t.ppm")]
    warp = ["warp", "--image", str(data / "0000.ppm"), "--src-pts", str(pts), "--dst-pts", str(pts),
            "--out", str(tmp_path / "w.ppm")]
    for argv, bad in ((train, data / "0003.lm"), (train, data / "manifest.txt"),
                      (train, tmp_path / "train.cfg"), (transfer, tmp_path / "m.fatw.cfg"),
                      (warp, pts)):
        clean = bad.read_bytes()
        bad.write_bytes(clean + b"# \xc3\xa9\n")
        code = main(argv)
        err = capsys.readouterr().err.splitlines()
        bad.write_bytes(clean)
        assert code == 2, bad
        assert err == [f"fatkit {argv[0]}: {bad}: byte {len(clean) + 2} is 0xc3, not ASCII text"]
    assert not any((tmp_path / name).exists() for name in ("t.fatw", "t.ppm", "w.ppm"))


def test_thread_cap_does_not_change_spatial_training(corpus, tmp_path, monkeypatch):
    # FAT_THREADS only fills BLAS variables that are unset, so unset them
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    (tmp_path / "train.cfg").write_text("control_grid = 4\n")  # divides the 12x12 bottleneck
    for threads in ("1", "2"):
        result = run_cli("train", "--data", corpus, "--steps", 4, "--size", 48, "--width", 4, "--spatial",
                         "--config", tmp_path / "train.cfg", "--out", tmp_path / f"m{threads}.fatw",
                         "--log", tmp_path / f"l{threads}.csv", env={"FAT_THREADS": threads})
        assert result.returncode == 0, result.stderr
    for name in ("m{}.fatw", "m{}.fatw.cfg", "l{}.csv"):
        assert (tmp_path / name.format(1)).read_bytes() == (tmp_path / name.format(2)).read_bytes(), name


def test_train_image_size_mismatch_is_data_error(corpus, tmp_path):
    # the 48 px corpus under the default 64 px model, and an impossible size
    args = ("train", "--data", corpus, "--steps", 1, "--width", 4,
            "--out", tmp_path / "m.fatw", "--log", tmp_path / "l.csv")
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stderr.strip().splitlines() == [
        f"fatkit train: {corpus / '0000.ppm'}: image is 48x48, but the model size is 64x64"
    ]
    for size in (0, -8):
        result = run_cli(*args, "--size", size)
        assert result.returncode == 2
        assert result.stderr.strip().splitlines() == [
            f"fatkit train: image size must be a positive multiple of 4, got {size}"
        ]
    assert not (tmp_path / "m.fatw").exists()


def test_train_spatial_control_grid_from_config(corpus, tmp_path):
    # a 48 px model has a 12x12 bottleneck, which the default 8x8 lattice does not divide
    args = ("train", "--data", corpus, "--steps", 1, "--size", 48, "--width", 4, "--spatial",
            "--out", tmp_path / "m.fatw", "--log", tmp_path / "l.csv")
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stderr.strip().splitlines() == [
        "fatkit train: control grid 8 must be at least 2 and divide the 12x12 bottleneck"
    ]
    assert not (tmp_path / "m.fatw").exists()
    (tmp_path / "train.cfg").write_text("control_grid = 4\n")
    result = run_cli(*args, "--config", tmp_path / "train.cfg")
    assert result.returncode == 0, result.stderr
    assert "control_grid = 4" in (tmp_path / "m.fatw.cfg").read_text().splitlines()
    result = run_cli("transfer", "--model", tmp_path / "m.fatw", "--source", corpus / "0000.ppm",
                     "--ref", corpus / "0001.ppm", "--out", tmp_path / "t.ppm")
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("size, spatial", [(32, True), (16, False), (8, False), (4, False)])
def test_train_and_transfer_with_maps_smaller_than_the_kernel(tmp_path, capsys, size, spatial):
    # control_grid = 2 runs the control head's 3x3 conv on a 2x2 lattice, and
    # small models run their deepest 3x3 convs on 2x2 or 1x1 maps
    from fatkit.cli import main
    from fatkit.data import make_corpus

    corpus = tmp_path / "corpus"
    make_corpus(str(corpus), count=2, size=size, seed=3)
    (tmp_path / "train.cfg").write_text("control_grid = 2\n")
    model = tmp_path / "m.fatw"
    extra = ["--spatial", "--config", str(tmp_path / "train.cfg")] if spatial else []
    code = main(["train", "--data", str(corpus), "--steps", "2", "--size", str(size), "--width", "4", *extra,
                 "--out", str(model), "--log", str(tmp_path / "l.csv")])
    assert code == 0, capsys.readouterr().err
    assert ("control_grid = 2" in (tmp_path / "m.fatw.cfg").read_text().splitlines()) == spatial
    code = main(["transfer", "--model", str(model), "--source", str(corpus / "0000.ppm"),
                 "--ref", str(corpus / "0001.ppm"), "--out", str(tmp_path / "t.ppm")])
    assert code == 0, capsys.readouterr().err
    assert read_ppm(tmp_path / "t.ppm").shape == (3, size, size)


def test_train_spatial_warp_labels_all(corpus, tmp_path, capsys):
    # the warp gate takes all seven labels; the pseudo GT reshapes the five parts
    from fatkit.cli import main

    (tmp_path / "train.cfg").write_text("control_grid = 4\n")
    code = main(["train", "--data", str(corpus), "--steps", "1", "--size", "48", "--width", "4", "--spatial",
                 "--warp-labels", "all", "--config", str(tmp_path / "train.cfg"),
                 "--out", str(tmp_path / "m.fatw"), "--log", str(tmp_path / "l.csv")])
    assert code == 0, capsys.readouterr().err
    assert "warp_labels = all" in (tmp_path / "m.fatw.cfg").read_text().splitlines()


def test_train_unknown_manifest_group_is_data_error(corpus, tmp_path, capsys):
    import shutil

    from fatkit.cli import main

    data = tmp_path / "data"
    shutil.copytree(corpus, data)
    manifest = data / "manifest.txt"
    manifest.write_text(manifest.read_text().replace(" makeup ", " lipstick ", 1))
    code = main(["train", "--data", str(data), "--steps", "1", "--size", "48", "--width", "4",
                 "--out", str(tmp_path / "m.fatw"), "--log", str(tmp_path / "l.csv")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"fatkit train: {manifest}:2: group must be 'plain' or 'makeup', got 'lipstick'"
    ]
    assert not (tmp_path / "m.fatw").exists()


def test_transfer_output_size_and_determinism(corpus, model, tmp_path):
    args = ("transfer", "--model", model / "m.fatw", "--source", corpus / "0000.ppm",
            "--ref", corpus / "0001.ppm")
    assert run_cli(*args, "--out", tmp_path / "t1.ppm").returncode == 0
    assert run_cli(*args, "--out", tmp_path / "t2.ppm").returncode == 0
    assert (tmp_path / "t1.ppm").read_bytes() == (tmp_path / "t2.ppm").read_bytes()
    assert read_ppm(tmp_path / "t1.ppm").shape == (3, 48, 48)


def test_transfer_sidecar_missing_key(corpus, model, tmp_path):
    import shutil

    shutil.copy(model / "m.fatw", tmp_path / "m.fatw")
    sidecar = (model / "m.fatw.cfg").read_text().splitlines()
    args = ("transfer", "--model", tmp_path / "m.fatw", "--source", corpus / "0000.ppm",
            "--ref", corpus / "0001.ppm", "--out", tmp_path / "t.ppm")
    # sidecars written before control_grid was stored load with the default
    kept = [line for line in sidecar if not line.startswith("control_grid")]
    (tmp_path / "m.fatw.cfg").write_text("\n".join(kept) + "\n")
    result = run_cli(*args)
    assert result.returncode == 0, result.stderr
    kept = [line for line in sidecar if not line.startswith("size")]
    (tmp_path / "m.fatw.cfg").write_text("\n".join(kept) + "\n")
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stderr.strip().splitlines() == [
        f"fatkit transfer: {tmp_path / 'm.fatw'}.cfg: missing model setting 'size'"
    ]


def test_transfer_size_mismatch_is_data_error(model, tmp_path):
    from fatkit.data import save_sample
    from fatkit.data import synth_face, random_face_params

    sample = synth_face(random_face_params(np.random.default_rng(0), "plain", seed=0), 32)
    save_sample(tmp_path, "small", sample)
    result = run_cli("transfer", "--model", model / "m.fatw", "--source", tmp_path / "small.ppm",
                     "--ref", tmp_path / "small.ppm", "--out", tmp_path / "t.ppm")
    assert result.returncode == 2


def test_transfer_highres_writes_box_size(corpus, model, tmp_path):
    from fatkit.data import write_ppm

    frame = np.random.default_rng(0).uniform(size=(3, 96, 96))
    write_ppm(tmp_path / "frame.ppm", frame)
    result = run_cli("transfer", "--model", model / "m.fatw", "--source", corpus / "0000.ppm",
                     "--ref", corpus / "0001.ppm", "--out", tmp_path / "hi.ppm",
                     "--highres", tmp_path / "frame.ppm", "--box", "16,8,64,64")
    assert result.returncode == 0, result.stderr
    assert read_ppm(tmp_path / "hi.ppm").shape == (3, 64, 64)


def run_highres(corpus, model, tmp_path, *box):
    from fatkit.data import write_ppm

    write_ppm(tmp_path / "frame.ppm", np.zeros((3, 96, 96)))
    return run_cli("transfer", "--model", model / "m.fatw", "--source", corpus / "0000.ppm",
                   "--ref", corpus / "0001.ppm", "--out", tmp_path / "hi.ppm",
                   "--highres", tmp_path / "frame.ppm", *box)


def test_transfer_highres_without_box_is_usage_error(corpus, model, tmp_path):
    result = run_highres(corpus, model, tmp_path)
    assert result.returncode == 1
    assert result.stderr.strip().splitlines() == [
        "fatkit transfer: error: --highres needs --box x,y,w,h as four integers, got None"
    ]
    assert not (tmp_path / "hi.ppm").exists()


def test_transfer_highres_malformed_box_is_usage_error(corpus, model, tmp_path):
    for box in ("1,2,3", "1,2,3,x"):
        result = run_highres(corpus, model, tmp_path, "--box", box)
        assert result.returncode == 1, box
        assert result.stderr.strip().splitlines() == [
            f"fatkit transfer: error: --highres needs --box x,y,w,h as four integers, got '{box}'"
        ]
    assert not (tmp_path / "hi.ppm").exists()


def test_transfer_box_without_highres_is_usage_error(corpus, model, tmp_path):
    result = run_cli("transfer", "--model", model / "m.fatw", "--source", corpus / "0000.ppm",
                     "--ref", corpus / "0001.ppm", "--out", tmp_path / "t.ppm", "--box", "16,8,64,64")
    assert result.returncode == 1
    assert result.stderr.strip().splitlines() == ["fatkit transfer: error: --box needs --highres"]
    assert not (tmp_path / "t.ppm").exists()


def saved_model(path, seed=0):
    """A fresh 48 px, width-4 generator checkpoint plus its `.cfg` sidecar."""
    from fatkit.gan import MODEL_KEYS, SETTINGS, config_text, configs_from_settings, init_train_state, save_state

    settings = {**SETTINGS, "size": 48, "base_width": 4}
    save_state(path, init_train_state(configs_from_settings(settings)[0], seed=seed))
    path.with_name(path.name + ".cfg").write_text(config_text({k: settings[k] for k in MODEL_KEYS}))


def transfer_in_process(corpus, model_path, out, capsys):
    from fatkit.cli import main

    code = main(["transfer", "--model", str(model_path), "--source", str(corpus / "0000.ppm"),
                 "--ref", str(corpus / "0001.ppm"), "--out", str(out)])
    return code, capsys.readouterr().err


def test_transfer_reads_checkpoints_that_store_normed_block_biases(corpus, tmp_path, capsys):
    # older checkpoints also store a bias for every instance-normed and every
    # perceptual block; load_generator ignores them, so the output is the same
    import shutil

    from fatkit.tensor import load_tensors, save_tensors

    saved_model(tmp_path / "new.fatw")
    stored = load_tensors(tmp_path / "new.fatw")
    rng = np.random.default_rng(3)
    old = {}
    for name, arr in stored.items():
        old[name] = arr
        bias = name[:-1] + "b"
        if name.endswith(".w") and bias not in stored:
            old[bias] = rng.normal(0.0, 1e-3, size=arr.shape[0]).astype(np.float32)
    assert len(old) - len(stored) == 15
    save_tensors(tmp_path / "old.fatw", old)
    shutil.copy(tmp_path / "new.fatw.cfg", tmp_path / "old.fatw.cfg")
    for stem in ("new", "old"):
        code, err = transfer_in_process(corpus, tmp_path / f"{stem}.fatw", tmp_path / f"{stem}.ppm", capsys)
        assert code == 0, err
    assert (tmp_path / "new.ppm").read_bytes() == (tmp_path / "old.ppm").read_bytes()


def test_transfer_rejects_non_finite_checkpoint_tensor(corpus, tmp_path, capsys):
    from fatkit.tensor import load_tensors, save_tensors

    saved_model(tmp_path / "m.fatw")
    stored = load_tensors(tmp_path / "m.fatw")
    stored["gen.dec2.w"][0, 0, 1, 1] = np.nan
    save_tensors(tmp_path / "m.fatw", stored)
    code, err = transfer_in_process(corpus, tmp_path / "m.fatw", tmp_path / "t.ppm", capsys)
    assert code == 2
    path = tmp_path / "m.fatw"
    assert err.splitlines() == [f"fatkit transfer: {path}: checkpoint tensor 'gen.dec2.w' holds a non-finite value"]
    assert not (tmp_path / "t.ppm").exists()


def test_transfer_truncated_checkpoint_names_the_file(corpus, tmp_path, capsys):
    path = tmp_path / "m.fatw"
    saved_model(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:45005])
    code, err = transfer_in_process(corpus, path, tmp_path / "t.ppm", capsys)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith(f"fatkit transfer: {path}: malformed checkpoint record at byte ")
    # cuts in the magic, the header, a name, the dims and the last value
    for n in (0, 3, 9, 10, 12, 20, len(blob) - 1):
        path.write_bytes(blob[:n])
        code, err = transfer_in_process(corpus, path, tmp_path / "t.ppm", capsys)
        assert code == 2 and len(err.splitlines()) == 1, (n, err)
        assert err.startswith(f"fatkit transfer: {path}: "), (n, err)
    assert not (tmp_path / "t.ppm").exists()


def test_transfer_warns_once_when_the_spatial_warp_falls_back(tmp_path, capsys):
    # all predicted control points coincide, the TPS solve is degenerate and
    # the warp falls back to the identity: the output is written, with one
    # warning line
    from fatkit.cli import main
    from fatkit.data import make_corpus
    from fatkit.gan import MODEL_KEYS, SETTINGS, config_text, configs_from_settings, init_train_state, save_state

    make_corpus(tmp_path / "faces", count=2, size=32, seed=1)
    settings = {**SETTINGS, "size": 32, "base_width": 4, "spatial": True, "control_grid": 4}
    state = init_train_state(configs_from_settings(settings)[0], seed=0)
    state.gen.spatial.ctrl_pos.data[...] = 0.0
    model = tmp_path / "m.fatw"
    save_state(model, state)
    (tmp_path / "m.fatw.cfg").write_text(config_text({k: settings[k] for k in MODEL_KEYS}))
    argv = ["transfer", "--model", model, "--source", tmp_path / "faces" / "0000.ppm",
            "--ref", tmp_path / "faces" / "0001.ppm"]
    with pytest.warns(UserWarning, match="identity warp") as caught:
        assert main([str(arg) for arg in argv + ["--out", tmp_path / "a.ppm"]]) == 0
    assert len(caught) == 1
    capsys.readouterr()
    result = run_cli(*argv, "--out", tmp_path / "b.ppm")
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines() == [
        "fatkit transfer: warning: degenerate spatial warp targets; the identity warp was used"
    ]
    assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()


# -- warp ---------------------------------------------------------------------------


def test_warp_identity_points(corpus, tmp_path):
    pts = tmp_path / "p.txt"
    write_point_text(pts, "FATPTS", np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]))
    result = run_cli("warp", "--image", corpus / "0000.ppm", "--src-pts", pts,
                     "--dst-pts", pts, "--out", tmp_path / "w.ppm")
    assert result.returncode == 0, result.stderr
    src = read_ppm(corpus / "0000.ppm")
    assert np.abs(read_ppm(tmp_path / "w.ppm") - src).max() <= 1.0 / 255.0 + 1e-9


def test_warp_translation_shifts_image(corpus, tmp_path):
    # moving all control points by one pixel (2/48 normalized) shifts content
    src_pts = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    shift = np.array([2.0 / 48.0, 0.0])
    write_point_text(tmp_path / "s.txt", "FATPTS", src_pts)
    write_point_text(tmp_path / "d.txt", "FATPTS", src_pts + shift)
    result = run_cli("warp", "--image", corpus / "0000.ppm", "--src-pts", tmp_path / "s.txt",
                     "--dst-pts", tmp_path / "d.txt", "--out", tmp_path / "w.ppm")
    assert result.returncode == 0, result.stderr
    src = read_ppm(corpus / "0000.ppm")
    out = read_ppm(tmp_path / "w.ppm")
    np.testing.assert_allclose(out[:, :, 1:], src[:, :, :-1], atol=1.5 / 255.0)


def test_warp_count_mismatch_exit_2(corpus, tmp_path):
    # one line that names each point file, --src-pts first, with its count
    corners = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5], [0.0, 0.1]])
    src, dst = tmp_path / "s.txt", tmp_path / "d.txt"
    for src_count, dst_count in ((4, 3), (3, 5)):
        write_point_text(src, "FATPTS", corners[:src_count])
        write_point_text(dst, "FATPTS", corners[:dst_count])
        result = run_cli("warp", "--image", corpus / "0000.ppm", "--src-pts", src,
                         "--dst-pts", dst, "--out", tmp_path / "w.ppm")
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"fatkit warp: --src-pts {src} has {src_count} points but --dst-pts {dst} has {dst_count}"
        ]
        assert not (tmp_path / "w.ppm").exists()


def test_warp_degenerate_exit_3(corpus, tmp_path):
    line = np.stack([np.linspace(-0.5, 0.5, 4), np.linspace(-0.5, 0.5, 4)], axis=1)
    write_point_text(tmp_path / "s.txt", "FATPTS", np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]))
    write_point_text(tmp_path / "d.txt", "FATPTS", line)
    result = run_cli("warp", "--image", corpus / "0000.ppm", "--src-pts", tmp_path / "s.txt",
                     "--dst-pts", tmp_path / "d.txt", "--out", tmp_path / "w.ppm")
    assert result.returncode == 3


# -- bench --------------------------------------------------------------------------


def test_bench_output_format_and_csv(tmp_path):
    result = run_cli("bench", "--size", 32, "--heads", 2, "--iters", 5,
                     "--csv", tmp_path / "b.csv")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    assert lines[0].startswith("fat_ms=") and lines[1].startswith("sequential_ms=")
    csv = (tmp_path / "b.csv").read_text().strip().splitlines()
    assert csv[0] == "kind,mean_ms"
    assert csv[1].startswith("fat,") and csv[2].startswith("sequential,")


def test_bench_nonpositive_iters_is_usage_error():
    for iters in (0, -2):
        result = run_cli("bench", "--size", 32, "--iters", iters)
        assert result.returncode == 1
        assert result.stderr.strip().splitlines() == [
            f"fatkit bench: error: --iters must be at least 1, got {iters}"
        ]


def test_bench_out_of_domain_shape_is_data_error(tmp_path):
    # the shapes come from the generator config, which names the bad setting
    for flag, value, message in (
        ("--width", 0, "base_width must be positive, got 0"),
        ("--width", -1, "base_width must be positive, got -1"),
        ("--size", 6, "image size must be a positive multiple of 4, got 6"),
        ("--heads", 0, "heads must be positive, got 0"),
    ):
        result = run_cli("bench", flag, value, "--iters", 1, "--csv", tmp_path / "b.csv")
        assert result.returncode == 2, (flag, value)
        assert result.stderr.splitlines() == [f"fatkit bench: {message}"]
    assert not (tmp_path / "b.csv").exists()


# -- exit codes, outputs and README ---------------------------------------------------


def test_missing_output_directory_fails_before_any_work(corpus, tmp_path):
    # the error a write at the end would raise, raised before any input is read
    gone = tmp_path / "missing"
    train = ["train", "--data", corpus, "--steps", 1, "--size", 48, "--width", 4]
    pair = ["--source", corpus / "0000.ppm", "--ref", corpus / "0001.ppm"]
    absent = tmp_path / "absent"
    cases = [
        (train + ["--out", gone / "m.fatw", "--log", tmp_path / "l.csv"], gone / "m.fatw"),
        (train + ["--out", tmp_path / "m.fatw", "--log", gone / "l.csv"], gone / "l.csv"),
        (["bench", "--size", 16, "--width", 4, "--iters", 1, "--csv", gone / "b.csv"], gone / "b.csv"),
        (["transfer", "--model", absent, *pair, "--out", gone / "t.ppm"], gone / "t.ppm"),
        (["pgt", *pair, "--mode", "hist", "--out", gone / "p.ppm"], gone / "p.ppm"),
        (["warp", "--image", absent, "--src-pts", absent, "--dst-pts", absent, "--out", gone / "w.ppm"],
         gone / "w.ppm"),
    ]
    for argv, path in cases:
        result = run_cli(*argv)
        assert result.returncode == 2, argv
        assert result.stderr.splitlines() == [f"fatkit {argv[0]}: [Errno 2] No such file or directory: {str(path)!r}"]
        assert result.stdout == ""
    assert list(tmp_path.iterdir()) == []  # no log, checkpoint or sidecar


@pytest.mark.parametrize("command", ["transfer", "warp", "pgt", "train --out", "train --log", "bench"])
def test_output_that_is_a_directory_fails_before_any_work(tmp_path, command):
    # the inputs are absent, so a run that read any of them would fail
    # otherwise; the message names the user's path, not a temporary file
    taken, absent = tmp_path / "taken", tmp_path / "absent"
    taken.mkdir()
    pair = ["--source", absent, "--ref", absent]
    argv = {
        "transfer": ["--model", absent, *pair, "--out", taken],
        "warp": ["--image", absent, "--src-pts", absent, "--dst-pts", absent, "--out", taken],
        "pgt": [*pair, "--mode", "blend", "--alpha", 0.5, "--out", taken],
        "train --out": ["--data", absent, "--out", taken, "--log", tmp_path / "l.csv"],
        "train --log": ["--data", absent, "--out", tmp_path / "m.fatw", "--log", taken],
        "bench": ["--size", 16, "--width", 4, "--iters", 1, "--csv", taken],
    }[command]
    name = command.split()[0]
    result = run_cli(name, *argv)
    assert result.returncode == 2
    assert result.stderr.splitlines() == [f"fatkit {name}: [Errno 21] Is a directory: {str(taken)!r}"]
    assert result.stdout == ""
    assert list(tmp_path.iterdir()) == [taken] and list(taken.iterdir()) == []


def test_train_failed_checkpoint_write_leaves_no_output(corpus, tmp_path, capsys, monkeypatch):
    import fatkit.gan

    def failing_save(path, state):
        with open(path, "wb") as fh:
            fh.write(b"FATW")  # a partial checkpoint, then the disk fills
        raise OSError(28, "No space left on device", path)

    monkeypatch.setattr(fatkit.gan, "save_state", failing_save)
    out = tmp_path / "out"
    out.mkdir()
    from fatkit.cli import main

    code = main(["train", "--data", str(corpus), "--steps", "1", "--size", "48", "--width", "4",
                 "--out", str(out / "m.fatw"), "--log", str(out / "l.csv")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("fatkit train: [Errno 28] No space left on device")
    assert list(out.iterdir()) == []  # no checkpoint, sidecar, log or temporary file


def fill_the_disk(path, *_):
    with open(path, "wb") as fh:
        fh.write(b"P6\n")  # a partial output, then the disk fills
    raise OSError(28, "No space left on device", path)


@pytest.mark.parametrize("command", ["transfer", "warp", "bench"])
def test_single_output_failed_write_leaves_no_output(corpus, tmp_path, capsys, monkeypatch, command):
    import fatkit.data
    from fatkit import cli

    out = tmp_path / "out"
    out.mkdir()
    if command == "transfer":
        saved_model(tmp_path / "m.fatw")
        argv = ["--model", tmp_path / "m.fatw", "--source", corpus / "0000.ppm", "--ref", corpus / "0001.ppm",
                "--out", out / "z.ppm"]
    elif command == "warp":
        write_point_text(tmp_path / "p.txt", "FATPTS", np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]))
        argv = ["--image", corpus / "0000.ppm", "--src-pts", tmp_path / "p.txt", "--dst-pts", tmp_path / "p.txt",
                "--out", out / "w.ppm"]
    else:
        argv = ["--size", 32, "--iters", 1, "--csv", out / "b.csv"]
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the bench thread cap must not outlive this test
    monkeypatch.setattr(fatkit.data, "write_ppm", fill_the_disk)
    monkeypatch.setattr(fatkit.data, "write_text", fill_the_disk)
    code = cli.main([command, *map(str, argv)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"fatkit {command}: [Errno 28] No space left on device")
    assert list(out.iterdir()) == []  # no output and no temporary file


@pytest.mark.parametrize("failing", [None, "image", "sidecar"])
def test_pgt_writes_image_and_sidecar_all_or_nothing(corpus, tmp_path, capsys, monkeypatch, failing):
    import fatkit.data
    from fatkit import cli

    out = tmp_path / "out"
    out.mkdir()
    if failing == "image":
        monkeypatch.setattr(fatkit.data, "write_ppm", fill_the_disk)
    elif failing == "sidecar":
        monkeypatch.setattr(fatkit.data, "write_text", fill_the_disk)
    code = cli.main(["pgt", "--source", str(corpus / "0000.ppm"), "--ref", str(corpus / "0001.ppm"),
                     "--mode", "hist", "--out", str(out / "p.ppm")])
    err = capsys.readouterr().err.splitlines()
    if failing is None:
        assert code == 0 and err == []
        assert sorted(p.name for p in out.iterdir()) == ["p.meta", "p.ppm"]  # no temporary file
        assert (out / "p.meta").read_text().startswith("mode=histogram")
        return
    assert code == 2
    assert len(err) == 1 and err[0].startswith("fatkit pgt: [Errno 28] No space left on device")
    assert list(out.iterdir()) == []  # no image, no sidecar and no temporary file


@pytest.mark.parametrize("command", ["pgt", "train"])
def test_sidecar_that_is_a_directory_moves_no_output(corpus, tmp_path, capsys, command):
    # each target is checked before its output is written, so a sidecar
    # that is a directory stops the run before any move and the older
    # outputs stay whole
    from fatkit.cli import main

    if command == "pgt":
        argv = ["--source", corpus / "0000.ppm", "--ref", corpus / "0001.ppm", "--mode", "hist",
                "--out", tmp_path / "p.ppm"]
        older, sidecar = ["p.ppm"], tmp_path / "p.meta"
    else:
        argv = ["--data", corpus, "--steps", 1, "--size", 48, "--width", 4,
                "--out", tmp_path / "m.fatw", "--log", tmp_path / "l.csv"]
        older, sidecar = ["m.fatw", "l.csv"], tmp_path / "m.fatw.cfg"
    for name in older:
        (tmp_path / name).write_bytes(b"older " + name.encode())
    sidecar.mkdir()
    code = main([command, *map(str, argv)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"fatkit {command}: [Errno 21] Is a directory: {str(sidecar)!r}"]
    for name in older:
        assert (tmp_path / name).read_bytes() == b"older " + name.encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(older + [sidecar.name])  # no temporary file
    assert list(sidecar.iterdir()) == []



def unexpected_work(name):
    """A stand-in for a command's work function that fails the test if it runs."""
    def work(*args, **kwargs):
        raise AssertionError(f"{name} ran")
    return work


@pytest.mark.parametrize("command, flag", [
    ("transfer", "--out"), ("warp", "--out"), ("pgt", "--out"),
    ("train", "--out"), ("train", "--log"), ("bench", "--csv"),
])
def test_empty_output_path_fails_before_any_work(corpus, tmp_path, capsys, monkeypatch, command, flag):
    # '' is a path, not an unset flag: it is refused on one line before any
    # input is read, with the error that writing it would raise
    import fatkit.attention
    import fatkit.gan
    import fatkit.pseudo_gt
    import fatkit.tps
    from fatkit.cli import main

    inputs = tmp_path / "inputs"
    inputs.mkdir()
    saved_model(inputs / "m.fatw")
    write_point_text(inputs / "p.txt", "FATPTS", np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]))
    pair = ["--source", corpus / "0000.ppm", "--ref", corpus / "0001.ppm"]
    argv, work, flags = {
        "transfer": (["--model", inputs / "m.fatw", *pair], (fatkit.gan, "generator_forward"), ["--out"]),
        "warp": (["--image", corpus / "0000.ppm", "--src-pts", inputs / "p.txt", "--dst-pts", inputs / "p.txt"],
                 (fatkit.tps, "tps_solve"), ["--out"]),
        "pgt": ([*pair, "--mode", "hist"], (fatkit.pseudo_gt, "histogram_pgt"), ["--out"]),
        "train": (["--data", corpus, "--steps", 1, "--size", 48, "--width", 4], (fatkit.gan, "fit"),
                  ["--out", "--log"]),
        "bench": (["--size", 16, "--width", 4, "--iters", 1], (fatkit.attention, "fat_forward"), ["--csv"]),
    }[command]
    for name in flags:
        argv += [name, "" if name == flag else name.strip("-") + ".file"]
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the bench thread cap must not outlive this test
    monkeypatch.setattr(*work, unexpected_work(work[1]))
    run = tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)
    code = main([command, *map(str, argv)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"fatkit {command}: [Errno 2] No such file or directory: ''"]
    assert list(run.iterdir()) == []


@pytest.mark.parametrize("command", ["pgt", "train"])
def test_two_outputs_naming_one_file_leave_no_output(corpus, tmp_path, capsys, monkeypatch, command):
    # `pgt --out x.meta` names its own sidecar; `train --out m --log m`
    # names the checkpoint twice. The second is refused before it is written,
    # and pgt refuses it before it builds the pseudo-GT
    import fatkit.pseudo_gt
    from fatkit.cli import main

    if command == "pgt":
        monkeypatch.setattr(fatkit.pseudo_gt, "histogram_pgt", unexpected_work("histogram_pgt"))
        argv = ["--source", corpus / "0000.ppm", "--ref", corpus / "0001.ppm", "--mode", "hist",
                "--out", tmp_path / "img.meta"]
        clash = tmp_path / "img.meta"
    else:
        argv = ["--data", corpus, "--steps", 1, "--size", 48, "--width", 4,
                "--out", tmp_path / "same", "--log", tmp_path / "same"]
        clash = tmp_path / "same"
    code = main([command, *map(str, argv)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"fatkit {command}: {clash}: two outputs of one command name this file"
    ]
    assert list(tmp_path.iterdir()) == []  # no output and no temporary file


@pytest.mark.parametrize("out, log, clash", [
    ("m", "m", "m"), ("m", "m.cfg", "m.cfg"), ("m", "./m", "./m"),
])
def test_train_refuses_two_outputs_naming_one_file_before_reading_input(tmp_path, capsys, monkeypatch,
                                                                         out, log, clash):
    # the checkpoint, its .cfg sidecar and the log are checked by realpath
    # before any input is read, so no step is spent on a run that cannot be
    # written; --data names no corpus, and reading it would fail
    import fatkit.gan
    from fatkit.cli import main

    monkeypatch.setattr(fatkit.gan, "fit", unexpected_work("fit"))
    monkeypatch.chdir(tmp_path)
    code = main(["train", "--data", "missing", "--steps", "1", "--size", "48", "--width", "4",
                 "--out", out, "--log", log])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"fatkit train: {clash}: two outputs of one command name this file"
    ]
    assert list(tmp_path.iterdir()) == []

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("outcome", ["ok", "error"])
def test_bench_thread_cap_ends_with_main(monkeypatch, capsys, outcome):
    import os

    from fatkit import cli

    monkeypatch.delenv("FAT_THREADS", raising=False)
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")  # a caller's own value is kept
    seen = []

    def handler(args):
        seen.append({var: os.environ.get(var) for var in THREAD_VARS})
        if outcome == "error":
            raise ValueError("bad bench")
        return 0

    monkeypatch.setitem(cli._HANDLERS, "bench", handler)
    assert cli.main(["bench"]) == (0 if outcome == "ok" else 2)
    capsys.readouterr()
    assert seen == [{"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "3"}]
    assert {var: os.environ.get(var) for var in THREAD_VARS} == {
        "OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": None, "MKL_NUM_THREADS": "3"}


def run_cli_in_limited_memory(*argv):
    """`run_cli` in a child that caps its own address space at 1.5 GB, so an
    allocation far past it fails at once on any machine."""
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000,) * 2); "
            "from fatkit.cli import main; sys.exit(main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)], capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("command, argv", [
    ("train", ["--heads", 1000000000, "--width", 4, "--steps", 1, "--size", 48]),
    ("synth", ["--count", 2, "--size", 40000]),
])
def test_out_of_memory_is_one_line_data_error(corpus, tmp_path, command, argv):
    paths = {"train": ["--data", corpus, "--out", tmp_path / "m.fatw", "--log", tmp_path / "l.csv"],
             "synth": ["--out", tmp_path / "big"]}
    result = run_cli_in_limited_memory(command, *argv, *paths[command])
    assert result.returncode == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith(f"fatkit {command}: out of memory: Unable to allocate")
    assert not (tmp_path / "m.fatw").exists() and not (tmp_path / "l.csv").exists()


def test_numeric_flag_sweep_ends_in_one_line(corpus, tmp_path):
    # every numeric flag of synth, pgt, train and bench at 0, -1, nan and a
    # huge value (1e300 too for a float flag), each in its own
    # address-space-limited child. The other arguments are valid but the
    # output cannot be written, so a value the command accepts ends at that
    # error, and each run must end with one message line, never a traceback
    # (argparse prints its usage lines first). pgt checks --alpha before its
    # output path, which is a directory
    import argparse
    from concurrent.futures import ThreadPoolExecutor

    from fatkit.cli import _build_parser

    (tmp_path / "file").write_text("")
    (tmp_path / "p.ppm").mkdir()
    missing = tmp_path / "missing"
    fixed = {
        "pgt": ["--source", corpus / "0000.ppm", "--ref", corpus / "0001.ppm", "--mode", "blend",
                "--out", tmp_path / "p.ppm"],
        "synth": ["--out", tmp_path / "file" / "corpus", "--count", 2, "--size", 8],
        "train": ["--data", tmp_path, "--out", missing / "m.fatw", "--log", missing / "l.csv",
                  "--size", 16, "--width", 4, "--steps", 1],
        "bench": ["--size", 16, "--width", 4, "--iters", 1, "--csv", missing / "b.csv"],
    }
    subparsers = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    cases = [(command, action.option_strings[0], value)
             for command in fixed
             for action in subparsers.choices[command]._actions if action.type in (int, float)
             for value in ("0", "-1", "nan", "1000000000000") + (("1e300",) if action.type is float else ())]
    assert {case[0] for case in cases} == set(fixed) and ("train", "--lr", "nan") in cases
    assert ("pgt", "--alpha", "nan") in cases
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda case: run_cli_in_limited_memory(case[0], *fixed[case[0]], *case[1:]), cases))
    for (command, flag, value), result in zip(cases, results):
        lines = result.stderr.splitlines()
        assert result.returncode in (1, 2) and "Traceback" not in result.stderr, (flag, value, result.stderr)
        assert lines and lines[-1].startswith(f"fatkit {command}: "), (flag, value, result.stderr)
        if result.returncode == 2 or not lines[0].startswith("usage: "):
            assert len(lines) == 1, (flag, value, result.stderr)
    assert not missing.exists() and (tmp_path / "file").read_text() == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "p.ppm"] and not any((tmp_path / "p.ppm").iterdir())


def test_train_replaces_its_outputs_and_leaves_no_temporary_file(corpus, tmp_path):
    args = ("train", "--data", corpus, "--steps", 1, "--size", 48, "--width", 4)
    for seed in (1, 2):
        result = run_cli(*args, "--seed", seed, "--out", tmp_path / "m.fatw", "--log", tmp_path / "l.csv")
        assert result.returncode == 0, result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l.csv", "m.fatw", "m.fatw.cfg"]


def test_any_arithmetic_error_is_a_numerical_failure(monkeypatch, capsys):
    from fatkit import cli

    monkeypatch.setitem(cli._HANDLERS, "warp", lambda args: 1 // 0)
    assert cli.main(["warp", "--image", "i", "--src-pts", "s", "--dst-pts", "d", "--out", "o"]) == 3
    assert capsys.readouterr().err.splitlines() == ["fatkit warp: numerical failure: integer division or modulo by zero"]


def readme_text() -> str:
    from pathlib import Path

    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_lists_the_settings_sidecar_keys_and_log_header():
    # README's file formats name these tables; they must not drift apart
    import re

    from fatkit.gan import LOG_COLUMNS, MODEL_KEYS, SETTINGS

    readme = " ".join(readme_text().split())
    config_keys = re.search(r"training config files: `key = value` lines \(keys: ([^)]*)\)", readme)[1]
    assert config_keys.split(", ") == list(SETTINGS)
    sidecar_keys = re.search(r"`<model>\.cfg` sidecar with the model settings \(([^)]*)\)", readme)[1]
    assert tuple(sidecar_keys.split(", ")) == MODEL_KEYS
    assert re.search(r"loss log: CSV with header `([^`]*)`", readme)[1] == ",".join(LOG_COLUMNS)


def test_readme_synopsis_names_every_flag():
    # each subcommand's lines of README's `## Command line` synopsis name
    # every flag its parser defines
    import argparse
    import re

    from fatkit.cli import _build_parser

    section = readme_text().split("\n## Command line\n", 1)[1]
    synopsis = section.split("```\n", 2)[1]
    named, command = {}, None
    for line in synopsis.splitlines():
        if line.startswith("fatkit "):
            command = line.split()[1]
        named.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    subparsers = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in subparsers.choices.items():
        flags = {s for action in parser._actions for s in action.option_strings if s.startswith("--")}
        flags.discard("--help")
        assert flags <= named.get(name, set()), f"README's {name} line lacks {sorted(flags - named.get(name, set()))}"


def test_thread_cap_env_does_not_change_results(tmp_path):
    a = run_cli("synth", "--out", tmp_path / "a", "--count", 2, "--size", 32, "--seed", 4,
                env={"FAT_THREADS": "1"})
    b = run_cli("synth", "--out", tmp_path / "b", "--count", 2, "--size", 32, "--seed", 4)
    assert a.returncode == 0 and b.returncode == 0
    assert (tmp_path / "a/0000.ppm").read_bytes() == (tmp_path / "b/0000.ppm").read_bytes()
