"""Construction and evaluation of the two embedding extractor stacks.

Both networks share the same tail: statistics pooling over frames, two
max-feature-map segment layers, and a classification layer whose input
(the second-to-last layer's output) is the speaker embedding.

Max-pooling extractor (canonical widths, 23-dim input):
    frame1   K=7   affine 161 x 256     -> 2x2 pool -> 128 ch
    frame2   K=5   affine 640 x 256     -> 2x2 pool -> 128 ch
    frame3   K=3   affine 384 x 256     -> time pool -> 256 ch
    frame4   K=1   affine 256 x 2048    -> 2x2 pool -> 1024 ch
    stats pooling  1024 -> 2048
    segment6 MFM   2048 -> 1024, segment7 MFM 1024 -> 512, classifier 512 x N

The third pool decimates time only: the canonical frame4 width (256 in)
requires the channel count to survive that stage, so halving channels there
would make the stack impossible to wire.

Residual extractor: frame1 (K=3, 69 x 128), a 2x2 pool down to 64 channels,
M residual blocks of two K=3 time-delay layers at width 64 (identity skip,
trimmed in time), a K=1 expansion to 2048, a final 2x2 pool, then the shared
tail.  Each block widens the input context by 8 frames.

Both stacks are one list of ``LayerSpec`` records, built by
``build_maxpool_net`` or ``build_res_net`` around one shared tail.  A
checkpoint's architecture record is not that list but the builder's
arguments: the stack's name (``arch``), ``n_spk``, ``in_dim``,
``width_scale``, ``classifier_bias`` and, for the residual stack,
``n_blocks``.  ``model_from_arch_dict`` rebuilds the list by calling the
same builder, so no width is stored twice.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class LayerSpec:
    """One layer of a network stack.

    ``kind`` is one of time_delay, residual_block, max_pool, max_pool_time,
    stats_pool, affine_mfm, classifier.  A time_delay layer splices
    ``context`` consecutive frames.  A residual_block is two such layers of
    width ``out_dim`` with an identity skip, trimmed to the main branch's
    valid frames, whose sum passes through the block's final activation; it
    keeps its width, so ``in_dim`` equals ``out_dim``.  For affine_mfm the
    affine maps to twice ``out_dim`` and the feature map halves it back, so
    in/out describe the layer's net effect.  ``has_bias`` is read by the
    classifier only, which has no forward in the layer table: the objective
    reads its parameters (``training.batch_loss``); A-softmax uses no bias.
    """

    kind: str
    name: str
    in_dim: int
    out_dim: int
    context: int = 1
    has_bias: bool = True


@dataclass
class ExtractorModel:
    """A layer stack, its ``params`` and their momenta ``velocity`` (dicts by
    name, in ``parameter_table`` order).  ``args`` are the keyword arguments,
    bar ``seed``, of the builder ``ARCHS[arch]``; input width, embedding width
    and speaker count are read from the first layer and the classifier."""

    arch: str
    layers: list[LayerSpec]
    params: dict[str, Tensor]
    velocity: dict[str, np.ndarray]
    args: dict

    in_dim = property(lambda self: self.layers[0].in_dim)
    # the compute dtype, that of the parameters: float32 as built or loaded
    dtype = property(lambda self: self.params[f"{self.layers[0].name}.w"].data.dtype)
    embedding_dim = property(lambda self: self.layers[-1].in_dim)
    n_spk = property(lambda self: self.layers[-1].out_dim)

    def frame_layers(self) -> list[LayerSpec]:
        return self.layers[:-4]         # the shared tail: stats, segment6, segment7, classifier

    def segment_layers(self) -> list[LayerSpec]:
        return self.layers[-3:-1]

    def arch_dict(self) -> dict:
        """JSON-serializable architecture record for checkpoints: the stack's
        name and its builder's arguments."""
        return {"arch": self.arch, **self.args}


def _even(x: float) -> int:
    """Round a scaled width to the nearest positive even integer."""
    return max(2, int(round(x / 2.0)) * 2)


class ParamSpec(NamedTuple):
    """One parameter of a layer.  ``bound`` is the half-width of its uniform
    initialisation, 1/sqrt(fan_in); None marks a PReLU slope, which starts at
    0.25."""

    name: str
    shape: tuple[int, ...]
    bound: float | None


def _affine_params(name: str, fan_in: int, fan_out: int, bias: bool = True) -> list[ParamSpec]:
    bound = 1.0 / np.sqrt(fan_in)
    specs = [ParamSpec(f"{name}.w", (fan_in, fan_out), bound)]
    if bias:
        specs.append(ParamSpec(f"{name}.b", (fan_out,), bound))
    return specs


def _tdnn_params(name: str, fan_in: int, width: int) -> list[ParamSpec]:
    """Affine weights plus a PReLU slope per output channel."""
    return _affine_params(name, fan_in, width) + [ParamSpec(f"{name}.slope", (width,), None)]


def _tdnn(params: dict[str, Tensor], name: str, x: Tensor, context: int) -> Tensor:
    h = ad.time_delay(x, params[f"{name}.w"], params[f"{name}.b"], context)
    return ad.prelu(h, params[f"{name}.slope"])


def _block_params(block: LayerSpec) -> list[ParamSpec]:
    return (_tdnn_params(f"{block.name}.td1", block.context * block.in_dim, block.out_dim)
            + _tdnn_params(f"{block.name}.td2", block.context * block.out_dim, block.out_dim))


def _apply_block(params: dict[str, Tensor], block: LayerSpec, x: Tensor) -> Tensor:
    h = _tdnn(params, f"{block.name}.td1", x, block.context)
    h = ad.time_delay(h, params[f"{block.name}.td2.w"], params[f"{block.name}.td2.b"],
                      block.context)
    trim = 2 * (block.context - 1)
    skip = ad.slice_time(x, trim // 2, x.shape[0] - trim)
    return ad.prelu(ad.add(h, skip), params[f"{block.name}.td2.slope"])


class _Kind(NamedTuple):
    """How one layer kind is built and run, and how far it reaches in time.  Ops
    are looked up on ``ad`` when a layer runs, so a wrapper installed on one
    sees every call."""

    forward: Callable | None = None    # (params, layer, x) -> Tensor; None: the objective runs it
    params: Callable = lambda layer: []   # the layer's ParamSpecs, in initialisation order
    reach: Callable | None = None      # frames added per input step; None: not frame-level
    stride: int = 1                    # time decimation; multiplies the step


_KINDS: dict[str, _Kind] = {
    "time_delay": _Kind(
        forward=lambda params, layer, x: _tdnn(params, layer.name, x, layer.context),
        params=lambda layer: _tdnn_params(layer.name, layer.context * layer.in_dim,
                                          layer.out_dim),
        reach=lambda layer: layer.context - 1),
    "residual_block": _Kind(forward=_apply_block, params=_block_params,
                            reach=lambda block: 2 * (block.context - 1)),
    "max_pool": _Kind(
        forward=lambda params, layer, x: ad.max_pool_2x2(x),
        reach=lambda layer: 1, stride=2),
    "max_pool_time": _Kind(
        forward=lambda params, layer, x: ad.max_pool_time(x),
        reach=lambda layer: 1, stride=2),
    "stats_pool": _Kind(forward=lambda params, layer, x: ad.stats_pool(x)),
    "affine_mfm": _Kind(
        forward=lambda params, layer, x: ad.mfm(
            ad.affine(x, params[f"{layer.name}.w"], params[f"{layer.name}.b"])),
        params=lambda layer: _affine_params(layer.name, layer.in_dim, 2 * layer.out_dim)),
    "classifier": _Kind(
        params=lambda layer: _affine_params(layer.name, layer.in_dim, layer.out_dim,
                                            bias=layer.has_bias)),
}


def parameter_table(layers: list[LayerSpec]) -> list[ParamSpec]:
    """Every parameter of a layer list, in the order it is initialised.

    The random builders draw from it and ``formats.load_checkpoint`` checks
    and adopts a checkpoint's arrays by it."""
    return [spec for layer in layers for spec in _KINDS[layer.kind].params(layer)]


def adopt(model: ExtractorModel, name: str, data: np.ndarray, velocity: np.ndarray) -> None:
    """Give ``model`` the parameter ``name`` holding ``data`` (a float array is
    not copied) and its momentum buffer ``velocity``."""
    model.params[name] = Tensor(data, requires_grad=True, name=name)
    model.velocity[name] = velocity


DRAW_BLOCK = 1 << 16    # entries per float64 draw of ``_allocate``: a 512 KiB temporary


def _allocate(model: ExtractorModel, rng: np.random.Generator):
    """float32 parameters and zero float32 momenta.  A bounded parameter is drawn
    in float64 and rounded, ``DRAW_BLOCK`` entries at a time straight into its
    array: the values and the generator stream are those of one draw of the
    whole shape, without a float64 temporary of it."""
    for name, shape, bound in parameter_table(model.layers):
        if bound is None:
            data = np.full(shape, 0.25, np.float32)
        else:
            data = np.empty(shape, np.float32)
            flat = data.reshape(-1)
            for lo in range(0, flat.size, DRAW_BLOCK):
                flat[lo:lo + DRAW_BLOCK] = rng.uniform(-bound, bound,
                                                       size=min(DRAW_BLOCK, flat.size - lo))
        adopt(model, name, data, np.zeros_like(data))


def check_width_scale(width_scale: float) -> None:
    """Raise ValueError unless ``width_scale`` is finite and positive: the
    builders round every layer width from it."""
    if not 0 < width_scale < math.inf:          # false for NaN too
        raise ValueError(f"width_scale is {width_scale!r}, not a finite positive number")


def _checked_args(**args) -> dict:
    """A builder's arguments bar ``seed``, once each is in range; ValueError
    names the first that is not."""
    check_width_scale(args["width_scale"])
    for key, low in (("n_spk", 2), ("in_dim", 1), ("n_blocks", 1)):
        if key in args and args[key] < low:
            raise ValueError(f"{key} is {args[key]}, needs at least {low}")
    return args


def _with_tail(arch: str, frames: list[LayerSpec], args: dict,
               seed: int | None) -> ExtractorModel:
    """``frames`` plus the shared tail (statistics pooling, segment6,
    segment7, classifier) as a model whose parameters are drawn from
    ``seed``; ``seed=None`` allocates none, for the caller to ``adopt``."""
    s, pooled = args["width_scale"], frames[-1].out_dim
    seg6_out, seg7_out = _even(2048 * s) // 2, _even(1024 * s) // 2
    layers = frames + [
        LayerSpec("stats_pool", "stats", pooled, 2 * pooled),
        LayerSpec("affine_mfm", "segment6", 2 * pooled, seg6_out),
        LayerSpec("affine_mfm", "segment7", seg6_out, seg7_out),
        LayerSpec("classifier", "classifier", seg7_out, args["n_spk"],
                  has_bias=args["classifier_bias"]),
    ]
    model = ExtractorModel(arch, layers, {}, {}, args)
    if seed is not None:
        _allocate(model, np.random.default_rng(seed))
    return model


def build_maxpool_net(n_spk: int, in_dim: int = 23, width_scale: float = 1.0,
                      classifier_bias: bool = True, seed: int | None = 0) -> ExtractorModel:
    """Build the max-pooling extractor; widths scale by ``width_scale``."""
    args = _checked_args(n_spk=n_spk, in_dim=in_dim, width_scale=width_scale,
                         classifier_bias=classifier_bias)
    c, c4 = _even(256 * width_scale), _even(2048 * width_scale)
    frames = [
        LayerSpec("time_delay", "frame1", in_dim, c, context=7),
        LayerSpec("max_pool", "maxpool1", c, c // 2),
        LayerSpec("time_delay", "frame2", c // 2, c, context=5),
        LayerSpec("max_pool", "maxpool2", c, c // 2),
        LayerSpec("time_delay", "frame3", c // 2, c, context=3),
        LayerSpec("max_pool_time", "maxpool3", c, c),
        LayerSpec("time_delay", "frame4", c, c4, context=1),
        LayerSpec("max_pool", "maxpool4", c4, c4 // 2),
    ]
    return _with_tail("maxpool", frames, args, seed)


def build_res_net(n_blocks: int, n_spk: int, in_dim: int = 23, width_scale: float = 1.0,
                  classifier_bias: bool = True, seed: int | None = 0) -> ExtractorModel:
    """Build the residual extractor with ``n_blocks`` residual blocks."""
    args = _checked_args(n_blocks=n_blocks, n_spk=n_spk, in_dim=in_dim,
                         width_scale=width_scale, classifier_bias=classifier_bias)
    width, c_exp = _even(128 * width_scale) // 2, _even(2048 * width_scale)
    frames = [
        LayerSpec("time_delay", "frame1", in_dim, 2 * width, context=3),
        LayerSpec("max_pool", "maxpool1", 2 * width, width),
        *(LayerSpec("residual_block", f"block{m}", width, width, context=3)
          for m in range(1, n_blocks + 1)),
        LayerSpec("time_delay", f"frame{n_blocks + 2}", width, c_exp, context=1),
        LayerSpec("max_pool", f"maxpool{n_blocks + 2}", c_exp, c_exp // 2),
    ]
    return _with_tail("resnet", frames, args, seed)


ARCHS: dict[str, Callable[..., ExtractorModel]] = {   # builder of each ``arch``
    "maxpool": build_maxpool_net, "resnet": build_res_net}
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool}  # by annotation string


def model_from_arch_dict(arch: dict, seed: int | None) -> ExtractorModel:
    """Rebuild a model from an architecture record, as ``arch_dict`` writes
    it, by calling the builder ``ARCHS`` names with the record's arguments.

    The record holds ``arch`` and exactly the builder's parameters bar
    ``seed``; a key that is missing, unknown, of the wrong type (a bool is
    not a number) or out of range raises ValueError naming it.  The
    parameters are drawn from ``seed``; ``seed=None`` allocates none.
    """
    if not isinstance(arch, dict):
        raise ValueError("architecture record is not an object")
    if arch.get("arch") not in list(ARCHS):     # a list: the value may be unhashable
        raise ValueError(f"architecture record: key arch holds {arch.get('arch')!r}, "
                         f"not one of {', '.join(ARCHS)}")
    build = ARCHS[arch["arch"]]
    types = {key: _JSON_TYPES[param.annotation]
             for key, param in inspect.signature(build).parameters.items() if key != "seed"}
    for what, keys in (("unknown", arch.keys() - types.keys() - {"arch"}),
                       ("missing", types.keys() - arch.keys())):
        if keys:
            raise ValueError(f"architecture record: {what} key(s) {', '.join(sorted(keys))}")
    for key, kind in types.items():
        if not isinstance(arch[key], kind) or isinstance(arch[key], bool) and kind is not bool:
            raise ValueError(f"architecture record: key {key} holds {arch[key]!r}, not "
                             f"{getattr(kind, '__name__', 'a number')}")
    return build(**{key: arch[key] for key in types}, seed=seed)


# Rows of every segment-layer product at inference.  Padding each block to
# this fixed count makes an utterance's embedding independent of the rest
# of its batch: OpenBLAS picks its kernel, and with it the summation order,
# from the product's shape.  In float32 (sgemm) one row goes to gemv, and
# every block of 2 to 32 rows tried gave a row bit for bit alike; in float64
# two or three rows of a 512-wide layer also went to a small-matrix kernel.
# At full width in float32 the two segment layers take 1.1 ms for one row
# and 5.2 ms for 32 (0.16 ms a row; 0.12 ms at 64), on one thread of a
# 2-vCPU x86-64 host.
EMBED_BLOCK = 32


def frame_stats_graph(model: ExtractorModel, features: np.ndarray) -> Tensor:
    """Frame-level stack plus statistics pooling; returns a 1-D tensor.  The
    features are cast to the model's dtype here, once."""
    x = Tensor(np.asarray(features, dtype=model.dtype))
    if x.data.ndim != 2 or x.data.shape[1] != model.in_dim:
        raise ValueError(f"expected (T, {model.in_dim}) features, got {x.data.shape}")
    need = receptive_field(model)
    if x.data.shape[0] < need:
        raise ValueError(
            f"segment shorter than receptive field: {x.data.shape[0]} < {need} frames")
    for layer in model.layers[:-3]:                 # frame layers, then stats pooling
        x = _KINDS[layer.kind].forward(model.params, layer, x)
    return x


def segment_graph(model: ExtractorModel, pooled: Tensor) -> Tensor:
    """Segment-level MFM layers on a (B, 2C) batch; returns (B, emb)."""
    x = pooled
    for layer in model.segment_layers():
        x = _KINDS[layer.kind].forward(model.params, layer, x)
    return x


def embed_batch(model: ExtractorModel, features: list[np.ndarray], map_fn=map) -> np.ndarray:
    """(N, embedding_dim) embeddings of N feature matrices.

    The frame stack and statistics pooling run per utterance, through
    ``map_fn`` (a thread pool's ``map`` runs them concurrently); the pooled
    rows then go through the segment layers ``EMBED_BLOCK`` at a time, the
    last block padded with zero rows.  The embeddings are in the model's dtype.
    """
    out = np.empty((len(features), model.embedding_dim), model.dtype)
    for start in range(0, len(features), EMBED_BLOCK):
        rows = list(map_fn(lambda f: frame_stats_graph(model, f).data,
                           features[start : start + EMBED_BLOCK]))
        pooled = np.zeros((EMBED_BLOCK, rows[0].size), model.dtype)
        pooled[: len(rows)] = rows
        out[start : start + len(rows)] = segment_graph(model, Tensor(pooled)).data[: len(rows)]
    return out


def receptive_field(model_or_layers) -> int:
    """Minimum number of input frames that yields one output frame, for a model
    or a layer list (up to its first layer that is not frame-level).

    Exact influence-span recursion over the frame-level stack: a context-K
    layer at input step j widens the span by (K-1)*j, a residual block by
    2*(K-1)*j, a stride-2 pool by j and doubles the step.
    """
    layers = (model_or_layers.frame_layers()
              if isinstance(model_or_layers, ExtractorModel) else model_or_layers)
    span, step = 1, 1
    for layer in layers:
        kind = _KINDS[layer.kind]
        if kind.reach is None:
            break
        span += kind.reach(layer) * step
        step *= kind.stride
    return span

