"""Generator and discriminators, the loss stack, and the training loop.

The generator is an encoder-decoder: three encoder convolutions (strides
1, 2, 2), bottleneck blocks on each branch, the cross-face attribute
transfer at the bottleneck (optionally with the predicted spatial warp),
two more bottleneck blocks and a mirrored decoder, with a tanh output
rescaled to [0,1]. Two patch discriminators tell real from generated in
each domain. The encoder, bottleneck and inner discriminator blocks are
convolution + instance norm + ReLU, with no bias, since the norm cancels
one. The decoder and the first discriminator block skip the norm, the last
decoder and discriminator blocks the ReLU too; these carry a bias.

Training follows the unpaired two-generator-pass scheme: one discriminator
update on detached fakes, then one generator update whose loss sums the
adversarial, cycle-consistency, perceptual and pseudo-ground-truth terms of
both transfer directions before a single backward. Each real image is
encoded once per step: its code feeds both transfers and serves as the
reference of its cycle pass, so only the two generated faces are encoded
again. Its reference side (attention keys, attribute rows and landmark
embedding) is also built once, and read by its transfer and its cycle
pass, and its embedding is also its query embedding. `transfer_decode`
alone runs attention and the decoder, and returns the warp's `solved`
flag. All randomness flows from one seed through per-component child
streams, so runs replay bit-identically and enabling the spatial branch
never perturbs the shared parameter draws.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from itertools import islice

import numpy as np

from .attention import FatParams, FatReference, fat_forward, fat_reference, landmark_embedding
from .data import ACTIVE_LABEL_SETS, LANDMARK_COUNT, FaceSample, ascii_lines, parse_active_labels
from .pseudo_gt import tps_pgt
from .spatial import SpatialFatParams, spatial_fat_forward
from .tensor import (
    AdamState,
    FormatError,
    ParameterError,
    Tensor,
    adam_step,
    conv2d,
    deconv2d,
    instance_norm,
    l1_loss,
    load_tensors,
    mse_loss,
    named_tensors,
    relu,
    softplus,
    tanh,
    tensor_mean,
    save_tensors,
    zero_grads,
)

__all__ = [
    "SETTINGS",
    "MODEL_KEYS",
    "GeneratorConfig",
    "configs_from_settings",
    "LossWeights",
    "TrainPair",
    "TrainState",
    "NonFiniteLossError",
    "GeneratorParams",
    "DiscriminatorParams",
    "PerceptualParams",
    "generator_forward",
    "encode",
    "face_reference",
    "transfer_decode",
    "run_blocks",
    "bce_with_logits",
    "loss_discriminators",
    "loss_generator",
    "init_train_state",
    "prepare_pair",
    "train_step",
    "pair_order",
    "fit",
    "history_csv",
    "state_tensors",
    "load_generator",
    "read_config",
    "config_text",
]

LOG_COLUMNS = ("iter", "J_D", "J_G", "adv", "cyc", "per", "make")


class NonFiniteLossError(ArithmeticError):
    """A loss component left the finite range during training."""


@dataclass
class GeneratorConfig:
    size: int = 64
    base_width: int = 16
    heads: int = 2
    spatial: bool = False
    warp_labels: tuple = (2, 3)
    control_grid: int = 8

    def __post_init__(self):
        if self.size < 4 or self.size % 4 != 0:
            raise ParameterError(f"image size must be a positive multiple of 4, got {self.size}")
        if self.base_width < 1:
            raise ParameterError(f"base_width must be positive, got {self.base_width}")
        if self.heads < 1:
            raise ParameterError(f"heads must be positive, got {self.heads}")
        if self.control_grid < 2:
            raise ParameterError(f"control_grid must be at least 2, got {self.control_grid}")
        grid = self.grid_size
        if self.spatial and (grid < 2 or self.bottleneck % grid):
            raise ParameterError(
                f"control grid {grid} must be at least 2 and divide the "
                f"{self.bottleneck}x{self.bottleneck} bottleneck"
            )

    @property
    def bottleneck(self) -> int:
        return self.size // 4

    @property
    def feature_dim(self) -> int:
        return 4 * self.base_width

    @property
    def grid_size(self) -> int:
        """Side of the spatial branch's control-point lattice: the control
        grid, capped at the bottleneck extent."""
        return min(self.control_grid, self.bottleneck)


@dataclass
class LossWeights:
    adv: float = 1.0
    cyc: float = 10.0
    per: float = 0.05
    make: float = 1.0

    def __post_init__(self):
        vals = (self.adv, self.cyc, self.per, self.make)
        for f, v in zip(fields(self), vals):
            if not (np.isfinite(v) and v >= 0.0):
                raise ParameterError(f"loss weights must be finite and nonnegative, got lambda_{f.name}={v}")
        if max(vals) == 0.0:
            raise ParameterError("at least one loss weight must be positive")


# Every run setting and its default, read by the `train` flags, config files
# and the `.cfg` sidecar; a config value's type is its default's type. The
# model settings and loss weights take their defaults from the dataclasses.
SETTINGS = {
    **{f.name: f.default for f in fields(GeneratorConfig)},
    # config files and sidecars store the label set by name
    "warp_labels": {v: k for k, v in ACTIVE_LABEL_SETS.items()}[GeneratorConfig.warp_labels],
    "steps": 300,
    "lr": 2e-4,
    "seed": 0,
    **{f"lambda_{f.name}": f.default for f in fields(LossWeights)},
}
# the settings that rebuild a trained generator, in `.cfg` sidecar order
MODEL_KEYS = tuple(f.name for f in fields(GeneratorConfig))


def configs_from_settings(settings: dict):
    """The (GeneratorConfig, LossWeights) of a dict holding every SETTINGS key;
    an out-of-domain setting, run settings too, is a ParameterError naming it."""
    if settings["steps"] < 1:
        raise ParameterError(f"steps must be at least 1, got {settings['steps']}")
    if not (np.isfinite(settings["lr"]) and settings["lr"] > 0):
        raise ParameterError(f"lr must be a finite positive number, got {settings['lr']}")
    if settings["seed"] < 0:
        raise ParameterError(f"seed must be nonnegative, got {settings['seed']}")
    model = {key: settings[key] for key in MODEL_KEYS}
    model["warp_labels"] = parse_active_labels(settings["warp_labels"], "warp_labels")
    weights = {f.name: settings[f"lambda_{f.name}"] for f in fields(LossWeights)}
    return GeneratorConfig(**model), LossWeights(**weights)


class ConvBlock:
    """3x3 convolution (or transposed convolution) + optional norm + ReLU; a
    block with instance norm, which cancels any per-channel constant, has no bias."""

    def __init__(self, rng, c_in, c_out, stride=1, norm=True, relu=True, transposed=False):
        scale = 1.0 / np.sqrt(c_in * 3 * 3)
        if transposed:
            shape = (c_in, c_out, 3, 3)
        else:
            shape = (c_out, c_in, 3, 3)
        self.w = Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)
        self.b = None if norm else Tensor(np.zeros(c_out), requires_grad=True)
        self.stride = stride
        self.norm = norm
        self.relu = relu
        self.transposed = transposed

    def __call__(self, x: Tensor) -> Tensor:
        op = deconv2d if self.transposed else conv2d
        y = op(x, self.w, self.b, stride=self.stride)
        if self.norm:
            y = instance_norm(y)
        if self.relu:
            y = relu(y)
        return y

    def tensors(self):
        return {"w": self.w} if self.b is None else {"w": self.w, "b": self.b}


def _numbered(stem: str, blocks) -> list:
    return [(f"{stem}{i}", block) for i, block in enumerate(blocks)]


class GeneratorParams:
    """All learnable state of the generator.

    Construction draws the shared blocks from `rng` in a fixed order and the
    spatial-only blocks from `rng_spatial`, so a spatial and a non-spatial
    generator started from the same seed share every common parameter.
    """

    def __init__(self, config: GeneratorConfig, rng, rng_spatial):
        w = config.base_width
        d = config.feature_dim
        self.config = config
        self.enc = [
            ConvBlock(rng, 3, w, stride=1),
            ConvBlock(rng, w, 2 * w, stride=2),
            ConvBlock(rng, 2 * w, d, stride=2),
        ]
        self.pre = [ConvBlock(rng, d, d) for _ in range(3)]
        self.fat = FatParams(d, config.heads, LANDMARK_COUNT, rng, estimator="random")
        self.post = [ConvBlock(rng, d, d) for _ in range(2)]
        # the transposed-conv stages run without instance norm: normalizing
        # here strips the channel means that carry the transferred colors
        self.dec = [
            ConvBlock(rng, d, 2 * w, stride=2, transposed=True, norm=False),
            ConvBlock(rng, 2 * w, w, stride=2, transposed=True, norm=False),
            ConvBlock(rng, w, 3, stride=1, norm=False, relu=False),
        ]
        self.spatial = None
        if config.spatial:
            self.spatial = SpatialFatParams(
                d,
                config.heads,
                LANDMARK_COUNT,
                rng_spatial,
                grid_size=config.grid_size,
                active_labels=config.warp_labels,
                color_block=self.fat,
            )

    def tensors(self) -> dict:
        parts = _numbered("enc", self.enc) + _numbered("pre", self.pre) + [("fat", self.fat)]
        parts += _numbered("post", self.post) + _numbered("dec", self.dec)
        if self.spatial is not None:
            parts.append(("spatial", self.spatial))
        return named_tensors(parts)


class DiscriminatorParams:
    """Four stride-2 convolutions down to a logit patch grid (size/16)."""

    def __init__(self, config: GeneratorConfig, rng):
        w = config.base_width
        self.blocks = [
            ConvBlock(rng, 3, w, stride=2, norm=False),
            ConvBlock(rng, w, 2 * w, stride=2),
            ConvBlock(rng, 2 * w, 4 * w, stride=2),
            ConvBlock(rng, 4 * w, 1, stride=2, norm=False, relu=False),
        ]

    def tensors(self) -> dict:
        return named_tensors(_numbered("b", self.blocks))


class PerceptualParams:
    """A fixed random three-layer feature stack standing in for a pretrained
    perceptual network; frozen, but gradients flow through it to the input."""

    def __init__(self, rng):
        self.blocks = [
            ConvBlock(rng, 3, 8, stride=2, norm=False),
            ConvBlock(rng, 8, 16, stride=2, norm=False),
            ConvBlock(rng, 16, 16, stride=1, norm=False, relu=False),
        ]
        for block in self.blocks:
            block.w.requires_grad = False
            block.b = None  # a frozen zero bias adds nothing

    def tensors(self) -> dict:
        return named_tensors(_numbered("b", self.blocks))


# -- forward passes ------------------------------------------------------------


def run_blocks(blocks, x) -> Tensor:
    """Feed an image or feature map through a stack of blocks in order.

    The one forward of every stack: the generator's encoder and decoder,
    the discriminators (`run_blocks(disc.blocks, img)` gives the logit
    patch grid) and the frozen perceptual features.
    """
    for block in blocks:
        x = block(x)
    return x


def encode(img, gen: GeneratorParams) -> Tensor:
    """The shared encoder (`enc` + `pre` blocks): image -> bottleneck code.

    Rejects an image whose shape is not (3, size, size) of the generator's
    config, so every path into the generator checks its input extent.
    """
    expected = (3, gen.config.size, gen.config.size)
    if img.shape != expected:
        raise ParameterError(f"images must be {expected}, got {img.shape}")
    return run_blocks(gen.enc + gen.pre, img)


def face_reference(yb: Tensor, lm_y, gen: GeneratorParams, config: GeneratorConfig) -> FatReference:
    """The colour block's reference side of an `encode` code with landmarks
    lm_y: its landmark embedding, attention keys and attribute rows."""
    hb = config.bottleneck
    return fat_reference(yb, landmark_embedding(hb, hb, lm_y), gen.fat)


def transfer_decode(xb: Tensor, le_x, yb: Tensor, ref: FatReference, mask_x, gen: GeneratorParams):
    """Transfer the reference code's attributes onto the source code and decode.

    xb and yb are `encode` outputs of the source and the reference, le_x is
    the source's bottleneck landmark embedding, ref is `face_reference` of
    yb, and mask_x gates the spatial warp. Returns (image, solved): an image
    tensor in [0,1] of the configured size, and False where a degenerate
    spatial warp fell back to the identity.
    """
    if gen.spatial is None:
        feat, solved = fat_forward(xb, yb, le_x, ref.embedding, gen.fat, ref=ref), True
    else:
        feat, solved = spatial_fat_forward(xb, yb, le_x, ref.embedding, np.asarray(mask_x), gen.spatial,
                                           ref=ref)
    del ref  # a gradient-free forward holds nothing else of it: free it before the decoder
    feat = run_blocks(gen.post + gen.dec, feat)
    return (tanh(feat) + 1.0) * 0.5, solved


def generator_forward(x_img, y_img, lm_x, lm_y, mask_x, params: GeneratorParams,
                      config: GeneratorConfig) -> Tensor:
    """Transfer the reference's attributes onto the source image.

    x_img supplies identity, y_img supplies attributes: one `encode` of
    each, the reference's `face_reference`, then `transfer_decode`. A
    degenerate spatial warp, which falls back to the identity, is a warning.
    """
    hb = config.bottleneck
    yb = encode(y_img, params)
    z, solved = transfer_decode(encode(x_img, params), landmark_embedding(hb, hb, lm_x), yb,
                                face_reference(yb, lm_y, params, config), mask_x, params)
    if not solved:
        warnings.warn("degenerate spatial warp targets; the identity warp was used")
    return z


# -- losses ---------------------------------------------------------------------


def bce_with_logits(logits: Tensor, target: float) -> Tensor:
    """Mean binary cross entropy against a constant label, overflow-safe."""
    per_patch = softplus(logits) - logits * float(target)
    return tensor_mean(per_patch)


def loss_discriminators(x, y, z_xy, z_yx, disc_x, disc_y) -> Tensor:
    """Four-term patch BCE: real source/reference against the two fakes.

    Generated images must be detached by the caller; each discriminator sees
    the generated face that lives in its own domain.
    """
    return (
        bce_with_logits(run_blocks(disc_x.blocks, x), 1.0)
        + bce_with_logits(run_blocks(disc_y.blocks, y), 1.0)
        + bce_with_logits(run_blocks(disc_x.blocks, z_yx), 0.0)
        + bce_with_logits(run_blocks(disc_y.blocks, z_xy), 0.0)
    )


@dataclass
class TrainPair:
    """One source/reference pair with its precomputed supervision."""

    x: FaceSample
    y: FaceSample
    pgt_xy: np.ndarray  # supervision for G(x, y)
    pgt_yx: np.ndarray  # supervision for G(y, x)
    feat_x: np.ndarray  # cached frozen features of x
    feat_y: np.ndarray


def prepare_pair(x: FaceSample, y: FaceSample, percep: PerceptualParams,
                 spatial_labels=()) -> TrainPair:
    """Build the cached pseudo ground truth and frozen features for a pair."""
    return TrainPair(
        x=x,
        y=y,
        pgt_xy=tps_pgt(x, y, spatial_labels).image,
        pgt_yx=tps_pgt(y, x, spatial_labels).image,
        feat_x=run_blocks(percep.blocks, x.image).data,
        feat_y=run_blocks(percep.blocks, y.image).data,
    )


def loss_generator(pair: TrainPair, z_xy: Tensor, z_yx: Tensor, ex: Tensor, ey: Tensor,
                   gen: GeneratorParams, disc_x, disc_y, percep, weights: LossWeights,
                   config: GeneratorConfig, ref_x: FatReference = None, ref_y: FatReference = None):
    """Weighted sum of both transfer directions' generator losses.

    ex and ey are the `encode` codes of the real faces, reused as the
    references of the two cycle passes; ref_x and ref_y are their
    `face_reference`s, built here when the caller did not. Components:
    adversarial patch BCE toward "real", L1 cycle consistency of the double
    transfer, squared error between frozen features, and squared error
    against the pseudo ground truth.
    """
    x, y = pair.x, pair.y
    adv = bce_with_logits(run_blocks(disc_x.blocks, z_yx), 1.0) + bce_with_logits(
        run_blocks(disc_y.blocks, z_xy), 1.0
    )
    ref_x = face_reference(ex, x.landmarks, gen, config) if ref_x is None else ref_x
    ref_y = face_reference(ey, y.landmarks, gen, config) if ref_y is None else ref_y
    back_x, _ = transfer_decode(encode(z_xy, gen), ref_x.embedding, ex, ref_x, x.mask, gen)
    back_y, _ = transfer_decode(encode(z_yx, gen), ref_y.embedding, ey, ref_y, y.mask, gen)
    cyc = l1_loss(back_x, Tensor(x.image)) + l1_loss(back_y, Tensor(y.image))
    per = mse_loss(run_blocks(percep.blocks, z_xy), Tensor(pair.feat_x)) + mse_loss(
        run_blocks(percep.blocks, z_yx), Tensor(pair.feat_y)
    )
    make = mse_loss(z_xy, Tensor(pair.pgt_xy)) + mse_loss(z_yx, Tensor(pair.pgt_yx))
    total = weights.adv * adv + weights.cyc * cyc + weights.per * per + weights.make * make
    parts = {"adv": adv.item(), "cyc": cyc.item(), "per": per.item(), "make": make.item()}
    return total, parts


# -- training loop ------------------------------------------------------------------


@dataclass
class TrainState:
    config: GeneratorConfig
    gen: GeneratorParams
    disc_x: DiscriminatorParams
    disc_y: DiscriminatorParams
    percep: PerceptualParams
    adam_g: AdamState
    adam_d: AdamState
    seed: int
    iteration: int = 0
    history: list = field(default_factory=list)


def init_train_state(config: GeneratorConfig, seed: int) -> TrainState:
    """Deterministic fresh state; every component gets its own child stream."""
    children = np.random.SeedSequence(seed).spawn(5)
    rngs = [np.random.default_rng(c) for c in children]
    gen = GeneratorParams(config, rngs[0], rng_spatial=rngs[1])
    disc_x = DiscriminatorParams(config, rngs[2])
    disc_y = DiscriminatorParams(config, rngs[3])
    percep = PerceptualParams(rngs[4])
    adam_g = AdamState(gen.tensors().values())
    adam_d = AdamState([*disc_x.tensors().values(), *disc_y.tensors().values()])
    return TrainState(config, gen, disc_x, disc_y, percep, adam_g, adam_d, seed=seed)


def train_step(state: TrainState, pair: TrainPair, weights: LossWeights, lr: float) -> dict:
    """One discriminator update followed by one generator update.

    The symmetric losses of both directions are summed before each backward;
    gradients are reset between the two updates. Raises NonFiniteLossError
    naming the first component that left the finite range.
    """
    cfg = state.config
    x, y = pair.x, pair.y
    ex, ey = encode(x.image, state.gen), encode(y.image, state.gen)
    # each real face is the reference of one transfer and of one cycle pass,
    # and the query of the other transfer
    ref_x = face_reference(ex, x.landmarks, state.gen, cfg)
    ref_y = face_reference(ey, y.landmarks, state.gen, cfg)
    z_xy, _ = transfer_decode(ex, ref_x.embedding, ey, ref_y, x.mask, state.gen)
    z_yx, _ = transfer_decode(ey, ref_y.embedding, ex, ref_x, y.mask, state.gen)

    # every learnable tensor; the frozen perceptual weights take no gradient
    params = state.adam_d.params + state.adam_g.params
    zero_grads(params)
    j_d = loss_discriminators(
        Tensor(x.image), Tensor(y.image), z_xy.detach(), z_yx.detach(), state.disc_x, state.disc_y
    )
    j_d.backward()
    j_d = j_d.item()  # only the value is logged; drop the discriminator graph now
    adam_step(state.adam_d, lr)

    zero_grads(params)
    j_g, parts = loss_generator(
        pair, z_xy, z_yx, ex, ey, state.gen, state.disc_x, state.disc_y, state.percep, weights, cfg,
        ref_x=ref_x, ref_y=ref_y,
    )
    j_g.backward()
    # a tensor held here keeps its rebuild recipe and the operands it reads,
    # though the walk has freed the graph: drop them before the update
    j_g = j_g.item()
    del ex, ey, ref_x, ref_y, z_xy, z_yx
    adam_step(state.adam_g, lr)
    zero_grads(params)

    state.iteration += 1
    row = {"iter": state.iteration, "J_D": j_d, "J_G": j_g, **parts}
    for name in LOG_COLUMNS[1:]:
        if not np.isfinite(row[name]):
            raise NonFiniteLossError(f"loss component {name} became non-finite at iteration {row['iter']}")
    state.history.append(row)
    return row


def pair_order(seed: int, n: int, start: int = 0):
    """Indices into `n` pairs in training order, from iteration `start` on.

    Iteration k is entry k % n of the (k // n)-th `permutation(n)` of one
    stream seeded by `[seed, 0x5EED]`, so every epoch draws each pair once
    without replacement, and a run split at any iteration replays one run.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    epoch, offset = divmod(start, n)
    for _ in range(epoch):
        rng.permutation(n)
    while True:
        yield from rng.permutation(n)[offset:]
        offset = 0


def fit(state: TrainState, pairs, weights: LossWeights, lr: float, steps: int) -> list:
    """Run `steps` updates on the pairs `pair_order` draws from the state's
    seed and iteration, so identical seeds and data replay the exact loss
    history, whether in one call or several."""
    if not pairs:
        raise ParameterError("training needs a nonempty pair list")
    for idx in islice(pair_order(state.seed, len(pairs), state.iteration), steps):
        train_step(state, pairs[idx], weights, lr)
    return state.history


def history_csv(history) -> str:
    lines = [",".join(LOG_COLUMNS)]
    for row in history:
        lines.append(",".join(repr(row[c]) if c != "iter" else str(row[c]) for c in LOG_COLUMNS))
    return "\n".join(lines) + "\n"


# -- persistence ----------------------------------------------------------------------


def state_tensors(state: TrainState) -> dict:
    return named_tensors([
        ("gen", state.gen), ("disc_x", state.disc_x), ("disc_y", state.disc_y), ("percep", state.percep)
    ])


def save_state(path, state: TrainState):
    save_tensors(path, state_tensors(state))


class _Unfilled:
    """Parameter stream of `load_generator`: its draws are left uninitialised,
    because the checkpoint overwrites every tensor or the load fails."""

    @staticmethod
    def normal(loc, scale, size):
        return np.empty(size)


def load_generator(path, config: GeneratorConfig) -> GeneratorParams:
    """Rebuild a generator and load its weights from a checkpoint.

    Stored tensors the generator does not use are ignored, such as the
    discriminators' and the normed-block biases older checkpoints hold. A
    missing, misshapen or non-finite tensor is a FormatError naming it and
    the checkpoint path. The loaded tensors require no gradient: a forward
    pass through the generator builds no graph and frees each intermediate
    as it goes.
    """
    gen = GeneratorParams(config, _Unfilled, rng_spatial=_Unfilled)
    stored = load_tensors(path)
    for name, tensor in named_tensors([("gen", gen)]).items():
        if name not in stored:
            raise FormatError(f"{path}: checkpoint is missing tensor {name!r}")
        arr = stored[name]
        if tuple(arr.shape) != tensor.shape:
            raise FormatError(f"{path}: checkpoint tensor {name!r} has shape {arr.shape}, expected {tensor.shape}")
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: checkpoint tensor {name!r} holds a non-finite value")
        tensor.data[...] = arr
        tensor.requires_grad = False
    return gen


# -- configuration file ------------------------------------------------------------------


def read_config(path) -> dict:
    """The settings of a `key = value` file: a `--config` file or a `.cfg`
    sidecar. A malformed line, an unknown or repeated key and a bad value
    are FormatErrors naming `{path}:{N}`."""
    out, first_line = {}, {}
    for lineno, raw in enumerate(ascii_lines(path), 1):
        where = f"{path}:{lineno}"
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{where}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in SETTINGS:
            raise FormatError(f"{where}: unknown configuration key {key!r}")
        if key in first_line:
            raise FormatError(f"{where}: repeated configuration key {key!r} (first on line {first_line[key]})")
        first_line[key] = lineno
        default = SETTINGS[key]
        if isinstance(default, bool):
            if value not in ("true", "false"):
                raise FormatError(f"{where}: {key} must be true or false, got {value!r}")
            out[key] = value == "true"
        else:
            try:
                out[key] = type(default)(value)
            except ValueError as exc:
                raise FormatError(f"{where}: bad value for {key}: {exc}") from exc
    return out


def config_text(values: dict) -> str:
    lines = []
    for key, value in values.items():
        if key not in SETTINGS:
            raise ParameterError(f"unknown configuration key {key!r}")
        if isinstance(SETTINGS[key], bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
