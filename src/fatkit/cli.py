"""Command-line entry points.

Subcommands: synth (generate a corpus), pgt (pseudo ground truth for one
pair), train (adversarial training), transfer (apply a trained model),
warp (standalone TPS warp), bench (attention timing).

Exit codes: 0 success, 1 usage error (a malformed flag or flag
combination), 2 data/format error (an out-of-domain setting too, from a
flag or a file, and a size too large to allocate), 3 numerical failure
(an ArithmeticError). FAT_THREADS caps the BLAS thread count; it must be
honored before numpy loads, so all heavy imports happen inside the
command handlers.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    """A bad argument or argument combination found after parsing."""


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _apply_thread_cap(command):
    """Set each unset BLAS thread variable to the cap and return the names
    set, which `main` removes again when the command returns."""
    # bench runs on one BLAS thread by default: pool wakeups dominate its small
    # kernels and swamp the comparison; FAT_THREADS (or explicit env) overrides
    cap = os.environ.get("FAT_THREADS", "1" if command == "bench" else "")
    added = [var for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
             if cap and var not in os.environ]
    for var in added:
        os.environ[var] = cap
    return added


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fatkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic face corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, required=True, help="number of samples")
    p.add_argument("--size", type=int, default=64, help="image extent in pixels")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("pgt", help="pseudo ground truth for a source/reference pair")
    p.add_argument("--source", required=True, help="source sample (.ppm; .lm/.pgm siblings)")
    p.add_argument("--ref", required=True, help="reference sample (.ppm)")
    p.add_argument("--mode", choices=("tps", "hist", "blend"), required=True)
    p.add_argument("--spatial-part", default=None, help="also transfer this part's shape (e.g. eyebrows)")
    p.add_argument("--alpha", type=float, help="blend weight for --mode blend (default 0.8)")
    p.add_argument("--out", required=True, help="output image (.ppm; sidecar .meta)")

    # the setting flags carry no defaults (unset ones stay None): every
    # setting's default lives in fatkit.gan.SETTINGS
    p = sub.add_parser("train", help="adversarial training on a corpus")
    p.add_argument("--data", required=True, help="corpus directory with manifest.txt")
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--heads", type=int)
    p.add_argument("--size", type=int)
    p.add_argument("--width", type=int, dest="base_width", metavar="WIDTH")
    p.add_argument("--spatial", action="store_const", const=True,
                   help="enable the predicted spatial warp")
    p.add_argument("--warp-labels", help="label set the warp may move")
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="key = value file overriding the flags")
    p.add_argument("--out", required=True, help="checkpoint path (.fatw; sidecar .cfg)")
    p.add_argument("--log", required=True, help="loss CSV path")

    p = sub.add_parser("transfer", help="apply a trained model to a pair")
    p.add_argument("--model", required=True, help="checkpoint from train")
    p.add_argument("--source", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--highres", default=None, help="full-resolution frame (.ppm)")
    p.add_argument("--box", default=None, help="x,y,w,h crop of the frame matching the source")

    p = sub.add_parser("warp", help="standalone TPS image warp")
    p.add_argument("--image", required=True)
    p.add_argument("--src-pts", required=True, help="FATPTS file of source points")
    p.add_argument("--dst-pts", required=True, help="FATPTS file of target points")
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="batched attention vs sequential per-part baseline")
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--width", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None, help="also write the timings as CSV")

    return parser


# -- command handlers ---------------------------------------------------------


def _cmd_synth(args) -> int:
    from .data import make_corpus

    manifest = make_corpus(args.out, count=args.count, size=args.size, seed=args.seed)
    print(manifest)
    return EXIT_OK


def _cmd_pgt(args) -> int:
    from .data import check_targets, load_sample, parse_active_labels, write_all, write_ppm, write_text
    from .pseudo_gt import blend_pgt, check_blend_alpha, histogram_pgt, pgt_sidecar, tps_pgt

    if args.spatial_part is not None and args.mode != "tps":
        raise _UsageError(f"--spatial-part needs --mode tps, got --mode {args.mode}")
    if args.alpha is not None and args.mode != "blend":
        raise _UsageError(f"--alpha needs --mode blend, got --mode {args.mode}")
    labels = () if args.spatial_part is None else parse_active_labels(args.spatial_part, "--spatial-part")
    if args.alpha is not None:
        check_blend_alpha(args.alpha)
    sidecar = pgt_sidecar(args.out)
    check_targets([args.out, sidecar])
    source = load_sample(args.source)
    reference = load_sample(args.ref)
    if args.mode == "tps":
        result = tps_pgt(source, reference, labels)
    elif args.mode == "hist":
        result = histogram_pgt(source, reference)
    else:
        result = blend_pgt(source, reference) if args.alpha is None else blend_pgt(source, reference, args.alpha)
    write_all([
        (args.out, lambda path: write_ppm(path, result.image)),
        (sidecar, lambda path: write_text(path, result.meta_text())),
    ])
    print(args.out)
    return EXIT_OK


def _load_corpus_pairs(data_dir, size):
    """(plain, makeup) sample pairs of a corpus whose images are all size x size."""
    from .data import load_sample, read_manifest
    from .tensor import FormatError

    manifest = os.path.join(data_dir, "manifest.txt")
    rows = read_manifest(manifest)
    plain, makeup = [], []
    for _, group, image, _, _ in rows:
        path = os.path.join(data_dir, image)
        sample = load_sample(path)
        h, w = sample.image.shape[1:]
        if (h, w) != (size, size):
            raise FormatError(f"{path}: image is {h}x{w}, but the model size is {size}x{size}")
        (plain if group == "plain" else makeup).append(sample)
    return list(zip(plain, makeup))


def _cmd_train(args) -> int:
    from .data import check_targets, write_all, write_text
    from .gan import (
        MODEL_KEYS,
        SETTINGS,
        config_text,
        configs_from_settings,
        fit,
        history_csv,
        init_train_state,
        prepare_pair,
        read_config,
        save_state,
    )

    settings = dict(SETTINGS)
    settings.update((k, v) for k, v in vars(args).items() if k in SETTINGS and v is not None)
    if args.config:
        settings.update(read_config(args.config))
    config, weights = configs_from_settings(settings)
    sidecar = args.out + ".cfg"
    check_targets([args.out, sidecar, args.log])
    state = init_train_state(config, seed=settings["seed"])
    couples = _load_corpus_pairs(args.data, config.size)
    spatial_labels = config.warp_labels if config.spatial else ()
    pairs = [prepare_pair(x, y, state.percep, spatial_labels=spatial_labels) for x, y in couples]
    fit(state, pairs, weights, lr=settings["lr"], steps=settings["steps"])
    write_all([
        (sidecar, lambda path: write_text(path, config_text({key: settings[key] for key in MODEL_KEYS}))),
        (args.out, lambda path: save_state(path, state)),
        (args.log, lambda path: write_text(path, history_csv(state.history))),
    ])
    print(f"{args.out} steps={state.iteration} final_J_G={state.history[-1]['J_G']:.6f}")
    return EXIT_OK


def _cmd_transfer(args) -> int:
    from .data import check_targets, load_sample, read_ppm, write_all, write_ppm
    from .gan import MODEL_KEYS, SETTINGS, configs_from_settings, generator_forward, load_generator, read_config
    from .tensor import FormatError

    if args.box is not None and args.highres is None:
        raise _UsageError("--box needs --highres")
    if args.highres is not None:
        try:
            box = tuple(int(v) for v in (args.box or "").split(","))
        except ValueError:
            box = ()
        if len(box) != 4:
            raise _UsageError(f"--highres needs --box x,y,w,h as four integers, got {args.box!r}")
    check_targets([args.out])
    sidecar = args.model + ".cfg"
    stored = read_config(sidecar)
    # control_grid joined the sidecar later; older models were all trained with the default
    for key in MODEL_KEYS:
        if key not in stored and key != "control_grid":
            raise FormatError(f"{sidecar}: missing model setting {key!r}")
    config, _ = configs_from_settings({**SETTINGS, **stored})
    gen = load_generator(args.model, config)
    source = load_sample(args.source)
    reference = load_sample(args.ref)
    z = generator_forward(
        source.image, reference.image, source.landmarks, reference.landmarks,
        source.mask, gen, config,
    ).data
    if args.highres is not None:
        from .pyramid import crop_and_resize, pyramid_reconstruct

        frame = read_ppm(args.highres)
        pair = crop_and_resize(frame, box, low_size=config.size)
        z = pyramid_reconstruct(pair, z)
    write_all([(args.out, lambda path: write_ppm(path, z))])
    print(args.out)
    return EXIT_OK


def _cmd_warp(args) -> int:
    from .data import check_targets, read_ppm, write_all, write_ppm
    from .tensor import ShapeError
    from .tps import read_points, tps_grid, tps_solve, warp_image

    check_targets([args.out])
    image = read_ppm(args.image)
    src = read_points(args.src_pts)
    dst = read_points(args.dst_pts)
    if len(src) != len(dst):
        raise ShapeError(
            f"--src-pts {args.src_pts} has {len(src)} points but --dst-pts {args.dst_pts} has {len(dst)}"
        )
    # content at the source points should land on the target points, so the
    # sampling transform runs target -> source
    transform = tps_solve(dst, src)
    grid = tps_grid(transform, image.shape[1], image.shape[2])
    write_all([(args.out, lambda path: write_ppm(path, warp_image(image, grid)))])
    print(args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    import time

    if args.iters < 1:
        raise _UsageError(f"--iters must be at least 1, got {args.iters}")

    import numpy as np

    from .attention import (
        FatParams,
        color_transform,
        estimate_attributes,
        fat_forward,
        flatten_map,
        landmark_embedding,
        static_attention,
        transfer_attributes,
        unflatten_map,
    )
    from .data import LANDMARK_COUNT, check_targets, write_all, write_text
    from .gan import GeneratorConfig
    from .tensor import ParameterError, Tensor

    if args.seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {args.seed}")
    config = GeneratorConfig(args.size, base_width=args.width, heads=args.heads)
    csv = [] if args.csv is None else [args.csv]  # an empty --csv '' is a path, and is refused
    check_targets(csv)
    d, hb = config.feature_dim, config.bottleneck
    rng = np.random.default_rng(args.seed)
    params = FatParams(d=d, heads=args.heads, n_landmarks=LANDMARK_COUNT, rng=rng, estimator="random")
    for tensor in params.parameters():
        tensor.requires_grad = False  # timing inference, not graph building
    x_map = Tensor(rng.normal(size=(d, hb, hb)))
    y_map = Tensor(rng.normal(size=(d, hb, hb)))
    le_x = landmark_embedding(hb, hb, rng.uniform(0.2, 0.8, size=(LANDMARK_COUNT, 2)))
    le_y = landmark_embedding(hb, hb, rng.uniform(0.2, 0.8, size=(LANDMARK_COUNT, 2)))

    def batched_pass():
        return fat_forward(x_map, y_map, le_x, le_y, params)

    def sequential_pass():
        # the pre-attention baseline: one full static-attention pass per face
        # part, attributes transferred part by part and averaged
        x_flat, y_flat = flatten_map(x_map), flatten_map(y_map)
        gamma_ref = flatten_map(estimate_attributes(y_map, params))
        merged = None
        for _ in range(2):  # two parts, handled one after the other
            attn = static_attention(x_flat, y_flat, le_x, le_y)
            moved = transfer_attributes(attn, gamma_ref)
            merged = moved if merged is None else merged + moved
        return unflatten_map(color_transform(x_flat, merged * 0.5), hb, hb)

    def measure_interleaved(first, second):
        # alternate the two variants so allocator and cache state stay fair
        for _ in range(10):
            first()
            second()
        totals = [0.0, 0.0]
        for _ in range(args.iters):
            start = time.perf_counter()
            first()
            mid = time.perf_counter()
            second()
            end = time.perf_counter()
            totals[0] += mid - start
            totals[1] += end - mid
        return totals[0] / args.iters * 1e3, totals[1] / args.iters * 1e3

    fat_ms, sequential_ms = measure_interleaved(batched_pass, sequential_pass)
    print(f"fat_ms={fat_ms:.3f}")
    print(f"sequential_ms={sequential_ms:.3f}")
    table = f"kind,mean_ms\nfat,{fat_ms:.6f}\nsequential,{sequential_ms:.6f}\n"
    write_all([(path, lambda temp: write_text(temp, table)) for path in csv])
    return EXIT_OK


_HANDLERS = {
    "synth": _cmd_synth,
    "pgt": _cmd_pgt,
    "train": _cmd_train,
    "transfer": _cmd_transfer,
    "warp": _cmd_warp,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)  # argparse loads no numpy
    capped = _apply_thread_cap(args.command)
    show = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"fatkit {args.command}: warning: {message}\n"
    try:
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"fatkit {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # DegenerateGeometryError and NonFiniteLossError too
        print(f"fatkit {args.command}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # FormatError, ShapeError and ParameterError too
        print(f"fatkit {args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # an out-of-domain size, such as --size 40000
        print(f"fatkit {args.command}: out of memory: {exc or 'allocation failed'}", file=sys.stderr)
        return EXIT_DATA
    finally:
        warnings.formatwarning = show
        for var in capped:
            os.environ.pop(var, None)


if __name__ == "__main__":
    sys.exit(main())
