"""Architecture contracts: canonical layer widths, context arithmetic
against an influence-propagation oracle, and a layerwise replay oracle
for the embedding forward pass."""

import functools
import json
import re

import numpy as np
import pytest

from spkver import formats as fm
from spkver import models as md
from spkver.autodiff import Tensor
from spkver.models import LayerSpec

CANONICAL_PAIRS = {
    "frame1": (161, 256),
    "frame2": (640, 256),
    "frame3": (384, 256),
    "frame4": (256, 2048),
    "stats": (1024, 2048),
    "segment6": (2048, 1024),
    "segment7": (1024, 512),
}


def widths(model):
    """Each layer's (input, output) width as its spec gives it: a time-delay
    layer reads ``context`` spliced frames, a residual block keeps its width."""
    return {l.name: (l.context * l.in_dim if l.kind == "time_delay" else l.in_dim, l.out_dim)
            for l in model.layers}


def test_maxpool_net_canonical_widths():
    model = md.build_maxpool_net(n_spk=11)
    pairs = widths(model)
    for name, expected in CANONICAL_PAIRS.items():
        assert pairs[name] == expected, name
    assert pairs["classifier"] == (512, 11)
    assert (model.in_dim, model.embedding_dim, model.n_spk) == (23, 512, 11)


def test_maxpool_net_two_speakers():
    model = md.build_maxpool_net(n_spk=2)
    assert widths(model)["classifier"] == (512, 2)
    with pytest.raises(ValueError):
        md.build_maxpool_net(n_spk=1)


def test_res_net_canonical_widths():
    model = md.build_res_net(3, n_spk=7)
    pairs = widths(model)
    assert pairs["frame1"] == (69, 128)
    for m in range(1, 4):
        assert pairs[f"block{m}"] == (64, 64)
    assert pairs["frame5"] == (64, 2048)
    assert pairs["stats"] == (1024, 2048)
    assert pairs["segment6"] == (2048, 1024)
    assert pairs["segment7"] == (1024, 512)
    assert pairs["classifier"] == (512, 7)
    assert (model.in_dim, model.embedding_dim, model.n_spk) == (23, 512, 7)


def test_res_net_single_block():
    model = md.build_res_net(1, n_spk=3)
    blocks = [l for l in model.layers if l.kind == "residual_block"]
    assert len(blocks) == 1
    names = [l.name for l in model.layers]
    assert names.index("block1") == names.index("maxpool1") + 1
    assert names.index("frame3") == names.index("block1") + 1


# ---------------------------------------------------------------------------
# shape recursion oracle


def shape_recursion_oracle(model, t_in):
    """Independent (frames, channels) recursion over the layer list."""
    t, c = t_in, model.in_dim
    shapes = []
    for layer in model.frame_layers():
        if layer.kind == "residual_block":
            t, c = t - 4, layer.out_dim
        elif layer.kind == "time_delay":
            t, c = t - (layer.context - 1), layer.out_dim
        elif layer.kind == "max_pool":
            t, c = t // 2, layer.in_dim // 2
        elif layer.kind == "max_pool_time":
            t, c = t // 2, layer.in_dim
        shapes.append((layer.name, t, c))
    return shapes


@pytest.mark.parametrize("build", [
    lambda: md.build_maxpool_net(n_spk=4, width_scale=0.25),
    lambda: md.build_res_net(2, n_spk=4, width_scale=0.25),
])
def test_intermediate_shapes_match_recursion(build):
    model = build()
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((400, 23)))
    actual = []
    for layer in model.frame_layers():
        x = md._KINDS[layer.kind].forward(model.params, layer, x)
        actual.append((layer.name, x.data.shape[0], x.data.shape[1]))
    assert actual == shape_recursion_oracle(model, 400)


# ---------------------------------------------------------------------------
# receptive field and total context


def influence_oracle(layers):
    """Propagate the set of input frames feeding each output frame and
    return the span of the first output's dependencies."""
    t = 1
    while True:
        deps = [set([i]) for i in range(t)]
        ok = True
        for layer in layers:
            if layer.kind == "residual_block":
                for _ in range(2):
                    new = [set.union(*(deps[i + k] for k in range(layer.context)))
                           for i in range(len(deps) - layer.context + 1)]
                    if not new:
                        ok = False
                        break
                    deps = new
                if not ok:
                    break
            elif layer.kind == "time_delay":
                new = [set.union(*(deps[i + k] for k in range(layer.context)))
                       for i in range(len(deps) - layer.context + 1)]
                if not new:
                    ok = False
                    break
                deps = new
            elif layer.kind in ("max_pool", "max_pool_time"):
                new = [deps[2 * i] | deps[2 * i + 1] for i in range(len(deps) // 2)]
                if not new:
                    ok = False
                    break
                deps = new
        if ok and deps:
            first = deps[0]
            return max(first) - min(first) + 1
        t += 1


def table_context(layers):
    """The tables' total-context column: each frame-layer prefix's receptive
    field, where a context >= 5 layer right after a pool counts its full
    window, one input step (2 ** pools before it) beyond its reach."""
    column, extra = [], 0
    for i, layer in enumerate(layers):
        if layer.context >= 5 and i and layers[i - 1].kind.startswith("max_pool"):
            extra += 2 ** sum(l.kind.startswith("max_pool") for l in layers[:i])
        column.append((layer.name, md.receptive_field(layers[: i + 1]) + extra))
    return column


def test_receptive_field_single_wide_layer():
    layers = [LayerSpec("time_delay", "only", 4, 4, context=7)]
    assert md.receptive_field(layers) == 7
    assert table_context(layers) == [("only", 7)]


def test_receptive_field_matches_influence_oracle_random_stacks():
    rng = np.random.default_rng(1)
    for _ in range(12):
        layers = []
        n = rng.integers(1, 5)
        for i in range(n):
            draw = rng.random()
            if draw < 0.4:
                layers.append(LayerSpec("time_delay", f"td{i}", 4, 4,
                                        context=int(rng.integers(1, 6))))
            elif draw < 0.6:
                layers.append(LayerSpec("residual_block", f"block{i}", 4, 4,
                                        context=int(rng.integers(1, 4))))
            else:
                kind = "max_pool" if rng.random() < 0.5 else "max_pool_time"
                layers.append(LayerSpec(kind, f"pool{i}", 4, 4 if kind == "max_pool_time" else 2))
        assert md.receptive_field(layers) == influence_oracle(layers), layers


def test_receptive_field_matches_influence_oracle_both_nets():
    for model in (md.build_maxpool_net(n_spk=3, width_scale=0.10),
                  md.build_res_net(2, n_spk=3, width_scale=0.10)):
        assert md.receptive_field(model) == influence_oracle(model.frame_layers())


def test_total_context_column_maxpool_net():
    model = md.build_maxpool_net(n_spk=4)
    column = table_context(model.frame_layers())
    assert [tc for _, tc in column[:7]] == [7, 8, 18, 20, 28, 32, 32]


def test_total_context_res_net_grows_8_per_block():
    model = md.build_res_net(5, n_spk=4)
    column = dict(table_context(model.frame_layers()))
    for m in range(2, 6):
        assert column[f"block{m}"] - column[f"block{m - 1}"] == 8
    assert md.receptive_field(md.build_res_net(4, n_spk=4)) - \
        md.receptive_field(md.build_res_net(3, n_spk=4)) == 8


# ---------------------------------------------------------------------------
# one utterance's embedding


def test_forward_embed_shape_and_finite():
    model = md.build_maxpool_net(n_spk=3, width_scale=0.25)
    rng = np.random.default_rng(2)
    emb = md.embed_batch(model, [rng.standard_normal((200, 23))])[0]
    assert emb.shape == (model.embedding_dim,)
    assert np.all(np.isfinite(emb))


def test_forward_embed_length_independent_dim():
    model = md.build_res_net(2, n_spk=3, width_scale=0.25)
    rng = np.random.default_rng(3)
    e1 = md.embed_batch(model, [rng.standard_normal((120, 23))])[0]
    e2 = md.embed_batch(model, [rng.standard_normal((260, 23))])[0]
    assert e1.shape == e2.shape


def test_forward_embed_too_short():
    model = md.build_maxpool_net(n_spk=3, width_scale=0.25)
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="segment shorter than receptive field"):
        md.embed_batch(model, [rng.standard_normal((10, 23))])[0]


def test_forward_embed_matches_layerwise_numpy_replay():
    """Re-run the stack with plain numpy layer math as an independent driver,
    in float64 on a widened model."""
    model = md.build_maxpool_net(n_spk=3, width_scale=0.25, seed=5)
    for t in model.params.values():
        t.data = t.data.astype(np.float64)
    rng = np.random.default_rng(6)
    feats = rng.standard_normal((150, 23))

    def np_prelu(v, a):
        return np.where(v >= 0, v, v * a)

    x = feats
    p = model.params
    for layer in model.frame_layers():
        if layer.kind == "time_delay":
            k = layer.context
            t_out = x.shape[0] - k + 1
            spliced = np.concatenate([x[i : i + t_out] for i in range(k)], axis=1)
            x = np_prelu(spliced @ p[f"{layer.name}.w"].data + p[f"{layer.name}.b"].data,
                         p[f"{layer.name}.slope"].data)
        elif layer.kind == "max_pool":
            t2, c2 = x.shape[0] // 2, x.shape[1] // 2
            x = x[: 2 * t2].reshape(t2, 2, c2, 2).max(axis=(1, 3))
        elif layer.kind == "max_pool_time":
            t2 = x.shape[0] // 2
            x = np.maximum(x[0 : 2 * t2 : 2], x[1 : 2 * t2 : 2])
    pooled = np.concatenate([x.mean(axis=0), np.sqrt(x.var(axis=0) + 1e-8)])[None, :]
    for layer in model.segment_layers():
        h = pooled @ p[f"{layer.name}.w"].data + p[f"{layer.name}.b"].data
        half = h.shape[1] // 2
        pooled = np.maximum(h[:, :half], h[:, half:])
    expected = pooled[0]

    assert np.allclose(md.embed_batch(model, [feats])[0], expected, atol=1e-10)


def test_duplicated_frames_leave_stats_and_embedding_unchanged():
    """Context-1 stack: duplicating the utterance along time duplicates the
    frame-level outputs exactly, so both statistics halves are unchanged."""
    layers = [
        LayerSpec("time_delay", "frame1", 5, 6, context=1),
        LayerSpec("stats_pool", "stats", 6, 12),
        LayerSpec("affine_mfm", "segment6", 12, 4),
        LayerSpec("affine_mfm", "segment7", 4, 2),
        LayerSpec("classifier", "classifier", 2, 2),
    ]
    model = md.ExtractorModel("maxpool", layers, {}, {}, {})
    md._allocate(model, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    feats = rng.standard_normal((20, 5))
    doubled = np.concatenate([feats, feats], axis=0)
    assert np.allclose(md.embed_batch(model, [feats])[0],
                       md.embed_batch(model, [doubled])[0], atol=1e-12)


def test_residual_block_zero_weights_identity():
    block = LayerSpec("residual_block", "block1", 6, 6, context=3)
    model = md.ExtractorModel("resnet", [block], {}, {}, {})
    md._allocate(model, np.random.default_rng(9))
    params = model.params
    for name in ("td1.w", "td1.b", "td2.w", "td2.b"):
        params[f"block1.{name}"].data[...] = 0.0
    for name in ("td1.slope", "td2.slope"):
        params[f"block1.{name}"].data[...] = 1.0
    rng = np.random.default_rng(10)
    xv = rng.standard_normal((12, 6))
    out = md._apply_block(params, block, Tensor(xv))
    assert np.allclose(out.data, xv[2:10], atol=1e-12)


def test_parameter_table_names_are_unique():
    """A model's two dicts are keyed by parameter name, so a name listed twice
    would silently leave one parameter out of training and checkpoints."""
    for width_scale in (0.125, 1.0):
        models = [md.build_maxpool_net(n_spk=3, width_scale=width_scale, seed=None)]
        models += [md.build_res_net(n_blocks, n_spk=3, width_scale=width_scale, seed=None)
                   for n_blocks in range(1, 5)]
        for model in models:
            names = [spec.name for spec in md.parameter_table(model.layers)]
            assert len(names) == len(set(names)), model.arch_dict()


@pytest.mark.parametrize("draw_block", [7, 1000, md.DRAW_BLOCK])
def test_allocate_in_blocks_matches_one_float64_draw_per_parameter(monkeypatch, draw_block):
    """Drawn block by block, every parameter is bit-identical to one float64
    ``rng.uniform`` of its shape rounded to float32, and the generator ends in
    the same state."""
    monkeypatch.setattr(md, "DRAW_BLOCK", draw_block)
    model = md.build_res_net(2, n_spk=5, width_scale=0.125, seed=None)
    rng, reference = np.random.default_rng(21), np.random.default_rng(21)
    md._allocate(model, rng)
    for name, shape, bound in md.parameter_table(model.layers):
        expected = (np.full(shape, 0.25, np.float32) if bound is None
                    else reference.uniform(-bound, bound, size=shape).astype(np.float32))
        assert model.params[name].data.dtype == np.float32
        assert np.array_equal(model.params[name].data, expected), name
        assert not model.velocity[name].any()
    assert rng.bit_generator.state == reference.bit_generator.state


STACKS = {"maxpool": lambda **kw: md.build_maxpool_net(n_spk=3, width_scale=0.125, **kw),
          "resnet": lambda **kw: md.build_res_net(1, n_spk=3, width_scale=0.125, **kw)}


@pytest.mark.parametrize("stack", STACKS)
def test_arch_dict_roundtrip(stack):
    model = STACKS[stack](seed=13)
    clone = md.model_from_arch_dict(model.arch_dict(), seed=None)
    assert clone.layers == model.layers and len(clone.params) == 0
    for name, tensor in model.params.items():
        md.adopt(clone, name, tensor.data.copy(), model.velocity[name].copy())
    feats = np.random.default_rng(14).standard_normal((120, 23))
    assert np.array_equal(md.embed_batch(model, [feats])[0],
                          md.embed_batch(clone, [feats])[0])


@pytest.mark.parametrize("stack,expected", [
    ("resnet", '{"arch": "resnet", "classifier_bias": true, "in_dim": 23, "n_blocks": 1, '
               '"n_spk": 3, "width_scale": 0.125}'),
    ("maxpool", '{"arch": "maxpool", "classifier_bias": true, "in_dim": 23, "n_spk": 3, '
                '"width_scale": 0.125}'),
], ids=["resnet", "maxpool"])
def test_arch_dict_golden(stack, expected):
    """The checkpoint's architecture record, byte for byte: the builder's
    arguments and nothing else."""
    assert json.dumps(STACKS[stack]().arch_dict(), sort_keys=True) == expected


def test_checkpoint_n_blocks_beyond_its_arrays_rejected_before_building(tmp_path, monkeypatch):
    """An ``n_blocks`` the file's arrays cannot hold is rejected before the
    builder runs, so a few bytes cannot ask for 10^9 layers."""
    path = tmp_path / "huge.ckpt"
    fm.save_checkpoint(path, STACKS["resnet"](), step=0, epoch=0, config_hash="")
    arrays, meta = fm.read_archive(path)
    meta["arch"]["n_blocks"] = 10 ** 9
    fm.write_archive(path, arrays, meta, dtype="f4")

    @functools.wraps(md.build_res_net)     # keeps the signature the record is checked by
    def refuse(*args, **kwargs):
        raise AssertionError("builder called for an n_blocks the file cannot hold")

    monkeypatch.setitem(md.ARCHS, "resnet", refuse)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: n_blocks is 1000000000, more than {len(arrays)} arrays hold")):
        fm.load_checkpoint(path)


@pytest.mark.parametrize("edit,message", [
    (lambda arch: arch.update(n_blocks=2), "architecture record: unknown key(s) n_blocks"),
    (lambda arch: arch.pop("classifier_bias"),
     "architecture record: missing key(s) classifier_bias"),
    (lambda arch: arch.update(in_dim=True), "architecture record: key in_dim holds True, not int"),
    (lambda arch: arch.update(in_dim=0), "in_dim is 0, needs at least 1"),
    (lambda arch: arch.update(width_scale=-0.5), "width_scale is -0.5, not a finite"),
], ids=["n_blocks-on-maxpool", "no-classifier_bias", "bool-width", "zero-in_dim",
        "negative-width_scale"])
def test_malformed_architecture_rejected_at_load(edit, message):
    """Direct calls; ``tests/test_cli.py``'s ``ARCH_EDITS`` run the other
    recipe keys through every command that reads a checkpoint."""
    arch = STACKS["maxpool"]().arch_dict()
    edit(arch)
    with pytest.raises(ValueError, match=re.escape(message)):
        md.model_from_arch_dict(arch, seed=0)

