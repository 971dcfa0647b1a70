"""File-format round-trips, byte stability, checkpoint reload fidelity
and load memory, and config parsing."""

import hashlib
import itertools
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spkver import formats as fm
from spkver import models as md
from spkver import training as tr
from spkver.cli import main


def test_archive_roundtrip_and_byte_stability(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {"b": rng.standard_normal((3, 4)), "a": rng.standard_normal(7)}
    meta = {"kind": "features", "frame_shift_ms": 10.0, "dim": 4}
    p1, p2 = tmp_path / "x1.bin", tmp_path / "x2.bin"
    fm.write_archive(p1, arrays, meta, dtype="f4")
    back, meta_back = fm.read_archive(p1)
    assert meta_back == meta
    assert set(back) == {"a", "b"}
    for name in arrays:
        assert np.allclose(back[name], arrays[name], atol=1e-6)
    fm.write_archive(p2, back, meta_back, dtype="f4")
    assert p1.read_bytes() == p2.read_bytes()


def test_archive_f64_lossless(tmp_path):
    rng = np.random.default_rng(1)
    arrays = {"w": rng.standard_normal((5, 5))}
    path = tmp_path / "x.bin"
    fm.write_archive(path, arrays, None, dtype="f8")
    back, _ = fm.read_archive(path)
    assert np.array_equal(back["w"], arrays["w"])


def test_archive_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ValueError, match="bad magic"):
        fm.read_archive(path)


def test_archive_truncated_anywhere_raises_value_error(tmp_path):
    path = tmp_path / "emb.bin"
    fm.write_embeddings(path, {"utt": np.arange(3.0), "utt2": np.ones(3)})
    data = path.read_bytes()
    # every cut after the magic lands in the header (8..16), a name length, a
    # name (the first is 20..28), a dtype/rank, a shape (33..41) or a payload
    assert data[20:28] == fm.META_KEY.encode() and data[33:41] == (32).to_bytes(8, "little")
    for cut in range(len(fm.MAGIC), len(data)):
        (tmp_path / "cut.bin").write_bytes(data[:cut])
        with pytest.raises(ValueError, match="cut.bin: truncated archive"):
            fm.read_archive(tmp_path / "cut.bin")


def test_archive_metadata_record_of_rank_0_raises_value_error(tmp_path):
    path = tmp_path / "emb.bin"
    fm.write_embeddings(path, {"utt": np.arange(3.0)})
    data = path.read_bytes()
    # the __meta__ record comes first: rank at 29..33, its one dimension at 33..41
    assert data[20:28] == fm.META_KEY.encode() and data[29:33] == (1).to_bytes(4, "little")
    path.write_bytes(data[:29] + (0).to_bytes(4, "little") + data[41:])
    with pytest.raises(ValueError, match="emb.bin: metadata record '__meta__' has rank 0"):
        fm.read_archive(path)


def test_archive_unknown_dtype_code_raises_value_error(tmp_path):
    path = tmp_path / "w.bin"
    fm.write_archive(path, {"w": np.ones(2)}, None, dtype="f8")
    data = bytearray(path.read_bytes())
    assert data[20:21] == b"w" and data[21] == 1    # name, then the dtype code
    data[21] = 3
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="w.bin: record 'w' has unknown dtype code 3"):
        fm.read_archive(path)


def test_feature_and_embedding_wrappers(tmp_path):
    rng = np.random.default_rng(2)
    feats = {"u1": rng.standard_normal((8, 3)).astype(np.float32).astype(float),
             "u2": rng.standard_normal((5, 3)).astype(np.float32).astype(float)}
    path = tmp_path / "feats.bin"
    fm.write_features(path, feats, 10.0)
    back, meta = fm.read_features(path)
    assert meta["frame_shift_ms"] == 10.0 and meta["dim"] == 3
    for utt in feats:
        assert np.array_equal(back[utt], feats[utt])

    emb = {"u1": rng.standard_normal(4).astype(np.float32).astype(float)}
    epath = tmp_path / "emb.bin"
    fm.write_embeddings(epath, emb)
    eback = fm.read_embeddings(epath)
    assert np.array_equal(eback["u1"], emb["u1"])
    with pytest.raises(ValueError, match="not a feature archive"):
        fm.read_features(epath)


def test_utt2spk_roundtrip(tmp_path):
    mapping = {"u2": "s1", "u1": "s0"}
    path = tmp_path / "utt2spk.txt"
    fm.write_utt2spk(path, mapping)
    assert fm.read_utt2spk(path) == mapping
    (tmp_path / "bad.txt").write_text("only_one_token\n")
    with pytest.raises(ValueError, match="line 1"):
        fm.read_utt2spk(tmp_path / "bad.txt")


def test_utt2spk_repeated_utterance_is_rejected(tmp_path):
    """A second line for one utterance would silently relabel it."""
    path = tmp_path / "utt2spk.txt"
    path.write_text("u1 spkA\nu2 spkA\n\nu1 spkB\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: line 4: utterance 'u1' is already listed on line 1")):
        fm.read_utt2spk(path)


def test_checkpoint_roundtrip_bit_identical_forward(tmp_path):
    model = md.build_res_net(2, n_spk=4, width_scale=0.25, seed=3)
    model.velocity["frame1.w"][...] = 0.125
    path = tmp_path / "model.ckpt"
    fm.save_checkpoint(path, model, step=17, epoch=2, config_hash="abc",
                       rng_state={"bit_generator": "PCG64", "state": {"state": 1, "inc": 2},
                                  "has_uint32": 0, "uinteger": 0})
    clone, meta = fm.load_checkpoint(path)
    assert meta["step"] == 17 and meta["epoch"] == 2 and meta["config_hash"] == "abc"
    feats = np.random.default_rng(4).standard_normal((150, 23))
    assert np.array_equal(md.embed_batch(model, [feats])[0],
                          md.embed_batch(clone, [feats])[0])
    assert np.array_equal(clone.velocity["frame1.w"],
                          model.velocity["frame1.w"])
    # float32 payloads, adopted as read: 4 bytes an entry, parameter and momentum
    entries = sum(t.data.size for _, t in clone.params.items())
    assert all(t.data.dtype == np.float32 for _, t in clone.params.items())
    assert 8 * entries < path.stat().st_size < 8 * entries + 4096


@pytest.mark.parametrize("edit,message", [
    (lambda arrays, meta: meta.pop("arch"), "checkpoint lacks metadata key arch"),
    (lambda arrays, meta: arrays.pop("param.frame1.b"), "checkpoint lacks array param.frame1.b"),
    (lambda arrays, meta: arrays.pop("momentum.block1.td2.w"),
     "checkpoint lacks array momentum.block1.td2.w"),
    (lambda arrays, meta: arrays.update({"momentum.frame1.b": np.zeros(3)}),
     "array momentum.frame1.b has shape (3,), architecture needs (16,)"),
    (lambda arrays, meta: arrays.update({"param.classifier.w": arrays["param.classifier.w"].T}),
     "array param.classifier.w has shape (3, 64), architecture needs (64, 3)"),
    (lambda arrays, meta: arrays.update({"momentum.bogus": np.zeros(2)}),
     "array momentum.bogus is not part of the architecture"),
    (lambda arrays, meta: arrays.update({"notes": np.zeros(2)}),
     "array notes is not part of the architecture"),
], ids=["no-arch", "missing-param", "missing-momentum", "misshaped-momentum",
        "misshaped-param", "extra-momentum", "extra-array"])
def test_checkpoint_arrays_must_match_architecture(tmp_path, edit, message):
    path = tmp_path / "edited.ckpt"
    fm.save_checkpoint(path, md.build_res_net(1, n_spk=3, width_scale=0.125),
                       step=0, epoch=0, config_hash="")
    arrays, meta = fm.read_archive(path)
    edit(arrays, meta)
    fm.write_archive(path, arrays, meta, dtype="f4")
    for momentum in (True, False):
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            fm.load_checkpoint(path, momentum=momentum)


def test_load_checkpoint_adopts_the_archive_arrays(tmp_path, monkeypatch):
    """No random draw and no parameter or momentum array beyond the ones
    read: the load peaks within 15% of the archive's payload bytes."""
    model = md.build_res_net(3, n_spk=4, width_scale=0.25, seed=6)
    path = tmp_path / "m.ckpt"
    fm.save_checkpoint(path, model, step=0, epoch=0, config_hash="")
    payload = sum(t.data.nbytes + model.velocity[n].nbytes
                  for n, t in model.params.items())

    def no_draw(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    tracemalloc.start()
    try:
        clone, _ = fm.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * payload, (peak, payload)
    assert [n for n, _ in clone.params.items()] == [n for n, _ in model.params.items()]
    for name, tensor in model.params.items():
        assert np.array_equal(clone.params[name].data, tensor.data)
        assert np.array_equal(clone.velocity[name], model.velocity[name])


def test_checkpoint_write_is_deterministic(tmp_path):
    model = md.build_maxpool_net(n_spk=3, width_scale=0.125, seed=5)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    fm.save_checkpoint(p1, model, step=0, epoch=0, config_hash="h")
    fm.save_checkpoint(p2, model, step=0, epoch=0, config_hash="h")
    assert p1.read_bytes() == p2.read_bytes()


# The sha256 of one archive per payload dtype pins the byte format.
# ``write_archive`` stores a rank-0 array as shape (1,).
_PINNED_ARRAYS = {"w": np.linspace(-1.0, 1.0, 7) / 3.0,
                  "m": np.arange(12.0).reshape(3, 4) / 7.0,
                  "scalar": np.array(np.pi),
                  "empty": np.zeros((0, 3)),
                  "grüße/µ": np.array([1e-30, -2.5, 1e30])}
_PINNED_META = {"kind": "fixture", "note": "naïve ✓", "n": 3, "nested": {"a": [1, 2.5, None]}}


@pytest.mark.parametrize("dtype,sha256", [
    ("f4", "6256a81813516deb8c7c0f397fbc79ece5212463b5f31fd0fc8070bfd6d6b883"),
    ("f8", "77124fad2c94e6ef6c568b7702288b96bdbad07815d7a67e6f685239e1ae9caf"),
])
def test_archive_bytes_are_pinned(tmp_path, dtype, sha256):
    path = tmp_path / "pinned.bin"
    fm.write_archive(path, _PINNED_ARRAYS, _PINNED_META, dtype=dtype)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
    back, meta = fm.read_archive(path)
    assert meta == _PINNED_META and set(back) == set(_PINNED_ARRAYS)
    for name, arr in _PINNED_ARRAYS.items():
        stored = np.atleast_1d(arr).astype("<" + dtype).astype(np.float64)
        assert back[name].shape == stored.shape and np.array_equal(back[name], stored)
    fm.write_archive(tmp_path / "again.bin", back, meta, dtype=dtype)
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


_names = st.text(max_size=6).filter(lambda name: name != fm.META_KEY)
_arrays = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                     elements=st.floats(-1e30, 1e30, allow_subnormal=False))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(arrays=st.dictionaries(_names, _arrays, max_size=4),
       meta=st.one_of(st.none(), st.dictionaries(st.text(max_size=4), st.integers(), max_size=3)),
       dtype=st.sampled_from(["f4", "f8"]))
def test_archive_write_read_write_is_byte_identical(tmp_path_factory, arrays, meta, dtype):
    path = tmp_path_factory.mktemp("rt") / "x.bin"
    fm.write_archive(path, arrays, meta, dtype=dtype)
    back, meta_back = fm.read_archive(path)
    assert meta_back == meta and set(back) == set(arrays)
    for name, arr in arrays.items():
        expected = np.atleast_1d(arr)
        if dtype == "f4":
            expected = expected.astype(np.float32).astype(np.float64)
        assert back[name].shape == expected.shape and np.array_equal(back[name], expected)
    again = path.with_name("again.bin")
    fm.write_archive(again, back, meta_back, dtype=dtype)
    assert again.read_bytes() == path.read_bytes()


def _one_record_archive(header_fields, payload):
    """An archive of one record: name length, name, dtype code, rank, dims; then bytes."""
    name_len, name, code, ndim, *dims = header_fields
    return (fm.MAGIC + struct.pack("<II", fm.FORMAT_VERSION, 1)
            + struct.pack(f"<I{len(name)}sBI{len(dims)}Q", name_len, name, code, ndim, *dims)
            + payload)


@pytest.mark.parametrize("data", [
    _one_record_archive((1, b"w", 1, 1, 2**40), bytes(300)),     # 8 TiB claimed
    _one_record_archive((1, b"w", 1, 1, 25), bytes(199)),        # one byte short
    _one_record_archive((2**32 - 1, b"w", 1, 1, 1), bytes(8)),   # a 4 GiB name
    _one_record_archive((1, b"w", 1, 2**31), bytes(300)),        # a 16 GiB shape
], ids=["huge-payload", "payload-one-byte-short", "huge-name", "huge-rank"])
def test_archive_sizes_are_checked_before_allocation(tmp_path, data):
    path = tmp_path / "lying.bin"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=re.escape(f"{path}: truncated archive")):
        fm.read_archive(path)


def _assert_fresh(arrays, dtype):
    for arr in arrays:
        assert arr.dtype == dtype
        assert arr.flags.c_contiguous and arr.flags.aligned and arr.flags.writeable
    for a, b in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b)


def test_archive_arrays_are_fresh_writable_in_their_payload_dtype(tmp_path):
    arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4), "c": np.zeros((0, 2))}
    for dtype, np_dtype in (("f4", np.float32), ("f8", np.float64)):
        fm.write_archive(tmp_path / "x.bin", arrays, {"kind": "x"}, dtype=dtype)
        back, _ = fm.read_archive(tmp_path / "x.bin")
        _assert_fresh(list(back.values()), np_dtype)
        assert all(np.array_equal(back[k], arrays[k]) for k in arrays)
        wide, _ = fm.read_archive(tmp_path / "x.bin", dtype=np.float64)
        _assert_fresh(list(wide.values()), np.float64)
    embeddings = {"u": np.linspace(-1.0, 1.0, 5).astype(np.float32)}
    fm.write_embeddings(tmp_path / "e.bin", embeddings)
    _assert_fresh(list(fm.read_embeddings(tmp_path / "e.bin").values()), np.float64)


def test_load_without_momentum_reads_only_the_parameters(tmp_path):
    """The extraction load peaks within 15% of the ``param.*`` payload bytes,
    embeds like a full load and refuses to train.  (Width 0.35 gives 2.7 MB
    of float32 parameters, the payload the bound was set on: the loader's
    fixed costs, its 256 KiB file buffer first, are not 15% of less.)"""
    model = md.build_res_net(3, n_spk=4, width_scale=0.35, seed=6)
    path = tmp_path / "m.ckpt"
    fm.save_checkpoint(path, model, step=0, epoch=0, config_hash="")
    payload = sum(t.data.nbytes for _, t in model.params.items())
    tracemalloc.start()
    try:
        clone, _ = fm.load_checkpoint(path, momentum=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * payload, (peak, payload)
    feats = np.random.default_rng(5).standard_normal((120, 23))
    assert np.array_equal(md.embed_batch(clone, [feats])[0], md.embed_batch(model, [feats])[0])
    for name, vel in clone.velocity.items():
        assert vel.shape == model.velocity[name].shape and not vel.flags.writeable
        clone.params[name].grad = np.zeros(vel.shape)
    with pytest.raises(ValueError, match="read-only"):
        tr.sgd_step(clone.params, clone.velocity, lr=0.1, momentum=0.9)


def test_checkpoint_of_huge_finite_values_loads_without_a_warning(tmp_path):
    """The finite check's one-pass sum of squares overflows on these values,
    which are finite: the load neither refuses them nor warns."""
    model = md.build_maxpool_net(n_spk=3, width_scale=0.125, seed=2)
    model.params["segment7.w"].data[:] = 1e20
    path = tmp_path / "huge.ckpt"
    fm.save_checkpoint(path, model, step=0, epoch=0, config_hash="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clone, _ = fm.load_checkpoint(path)
    assert (clone.params["segment7.w"].data == np.float32(1e20)).all()


def test_skipped_records_are_checked_against_the_file(tmp_path):
    path = tmp_path / "x.bin"
    fm.write_archive(path, {"a": np.arange(4.0), "skip.b": np.ones((2, 3))}, {"kind": "x"},
                     dtype="f4")
    arrays, meta = fm.read_archive(path, skip_prefix="skip.")
    assert meta == {"kind": "x"} and np.array_equal(arrays["a"], np.arange(4.0))
    assert arrays["skip.b"].shape == (2, 3) and np.isnan(arrays["skip.b"]).all()
    blob = path.read_bytes()
    (tmp_path / "cut.bin").write_bytes(blob[:blob.index(b"skip.b") + 30])
    with pytest.raises(ValueError, match="truncated archive"):
        fm.read_archive(tmp_path / "cut.bin", skip_prefix="skip.")
    code_at = blob.index(b"skip.b") + len("skip.b")
    (tmp_path / "code.bin").write_bytes(blob[:code_at] + b"\x07" + blob[code_at + 1:])
    with pytest.raises(ValueError, match="record 'skip.b' has unknown dtype code 7"):
        fm.read_archive(tmp_path / "code.bin", skip_prefix="skip.")


def test_loaded_checkpoint_trains_in_place(tmp_path):
    model = md.build_res_net(1, n_spk=3, width_scale=0.125, seed=2)
    for i, vel in enumerate(model.velocity.values()):
        vel[...] = 0.01 * i
    path = tmp_path / "m.ckpt"
    fm.save_checkpoint(path, model, step=0, epoch=0, config_hash="")
    clone, _ = fm.load_checkpoint(path)
    names = [n for n, _ in clone.params.items()]
    params = {n: clone.params[n].data for n in names}
    velocity = dict(clone.velocity)
    _assert_fresh(list(params.values()) + list(velocity.values()), np.float32)
    for n in names:
        clone.params[n].grad = np.full(params[n].shape, 0.5, np.float32)
    tr.sgd_step(clone.params, clone.velocity, lr=0.1, momentum=0.9)
    for n in names:
        assert clone.params[n].data is params[n] and clone.velocity[n] is velocity[n]
        expected_vel = 0.9 * model.velocity[n] + 0.5
        assert np.array_equal(velocity[n], expected_vel)
        assert np.array_equal(params[n], model.params[n].data - 0.1 * expected_vel)


def test_config_parse_and_hash(tmp_path):
    text = """\
[model]
arch = resnet
resnet_blocks = 4
width_scale = 0.5

[loss]
loss = asoftmax
margin = 3

[optimizer]
learning_rate = 0.05
epochs = 2
seed = 9

[data]
segment_min_s = 2.0
segment_max_s = 4.0
"""
    path = tmp_path / "exp.ini"
    path.write_text(text)
    cfg = fm.load_config(path)
    assert cfg.arch == "resnet" and cfg.resnet_blocks == 4
    assert cfg.margin == 3 and cfg.learning_rate == 0.05
    assert cfg.segment_max_s == 4.0
    assert cfg.config_hash() == fm.load_config(path).config_hash()
    assert cfg.config_hash() != fm.ExperimentConfig().config_hash()

    (tmp_path / "bad.ini").write_text("[model]\nnot_a_key = 3\n")
    with pytest.raises(ValueError, match="unknown key"):
        fm.load_config(tmp_path / "bad.ini")


def test_config_states_no_feature_width(tmp_path, capsys):
    """The feature width comes from the features: an ``in_dim`` key is unknown."""
    path = tmp_path / "old.ini"
    path.write_text("[model]\nin_dim = 23\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: unknown key 'in_dim' in [model]")):
        fm.load_config(path)
    missing = str(tmp_path / "missing")
    assert main(["train", "--config", str(path), "--features", missing,
                 "--utt2spk", missing, "--out", missing]) == 2
    assert capsys.readouterr().err == f"spkver: {path}: unknown key 'in_dim' in [model]\n"


@pytest.mark.parametrize("text", [
    "[model]\narch = resnet\n[model]\nwidth_scale = 0.5\n",
    "[model]\narch = resnet\narch = maxpool\n",
    "arch = resnet\n",
    "[optimizer]\nlearning_rate = 5%\n",
    "[optimizer]\nepochs = three\n",
    "[optimiser]\nlearning_rate = 1e9\n",
], ids=["duplicate-section", "duplicate-key", "no-section-header", "bad-interpolation",
        "bad-number", "unknown-section"])
def test_malformed_config_names_path_and_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
        fm.load_config(path)
    missing = str(tmp_path / "missing")
    assert main(["train", "--config", str(path), "--features", missing,
                 "--utt2spk", missing, "--out", missing]) == 2
    assert f"spkver: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("[model]\nwidth_scale = inf\n", "width_scale is inf, not a finite positive number"),
    ("[model]\nwidth_scale = nan\n", "width_scale is nan, not a finite positive number"),
    ("[model]\nwidth_scale = -1\n", "width_scale is -1.0, not a finite positive number"),
    ("[model]\nresnet_blocks = 0\n", "resnet_blocks is 0, needs at least 1"),
    ("[optimizer]\nbatch_size = 0\n", "batch_size is 0, needs at least 1"),
    ("[optimizer]\nsteps_per_epoch = 0\n", "steps_per_epoch is 0, needs at least 1"),
    ("[data]\nsegment_min_s = inf\nsegment_max_s = inf\n",
     "segment range needs 0 < segment_min_s <= segment_max_s < inf"),
    ("[data]\nval_fraction = nan\n", "val_fraction is nan, needs 0 to 1"),
    ("[data]\nval_fraction = 1.5\n", "val_fraction is 1.5, needs 0 to 1"),
    ("[loss]\nmargin = 5\n", "margin is 5, needs one of (1, 2, 3, 4)"),
    ("[loss]\nloss = softmax\nmargin = 5\n", "margin is 5, needs one of (1, 2, 3, 4)"),
    ("[loss]\nlambda_start = nan\n", "lambda_start is nan, needs a finite value >= 0"),
    ("[loss]\nlambda_start = -1\n", "lambda_start is -1.0, needs a finite value >= 0"),
    ("[loss]\nlambda_decay = inf\n", "lambda_decay is inf, needs a finite value >= 0"),
    ("[loss]\nlambda_decay = 2\n", "lambda_decay is 2.0, needs 0 to 1"),
    ("[loss]\nlambda_floor = nan\n", "lambda_floor is nan, needs a finite value >= 0"),
    ("[optimizer]\nlearning_rate = nan\n", "learning_rate is nan, needs a finite value >= 0"),
    ("[optimizer]\nmomentum = -0.5\n", "momentum is -0.5, needs a finite value >= 0"),
    ("[optimizer]\nlr_decay = -2\n", "lr_decay is -2.0, needs a finite value >= 0"),
    ("[optimizer]\ngrad_clip = nan\n", "grad_clip is nan, needs a finite value >= 0"),
    ("[optimizer]\nseed = -1\n", "seed is -1, needs at least 0"),
], ids=["inf-width_scale", "nan-width_scale", "negative-width_scale", "zero-resnet_blocks",
        "zero-batch_size", "zero-steps_per_epoch", "infinite-segments",
        "nan-val_fraction", "above-one-val_fraction", "asoftmax-margin-5", "softmax-margin-5",
        "nan-lambda_start", "negative-lambda_start", "inf-lambda_decay",
        "above-one-lambda_decay", "nan-lambda_floor", "nan-learning_rate", "negative-momentum",
        "negative-lr_decay", "nan-grad_clip", "negative-seed"])
def test_config_value_out_of_range_names_path_and_key(tmp_path, capsys, text, message):
    """Each value would end training in a traceback, a NaN loss or a net of
    width-2 layers; it is rejected when the file is read."""
    path = tmp_path / "range.ini"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        fm.load_config(path)
    missing = str(tmp_path / "missing")
    assert main(["train", "--config", str(path), "--features", missing,
                 "--utt2spk", missing, "--out", missing]) == 2
    assert f"spkver: {path}: {message}" in capsys.readouterr().err


def test_config_dump_reparses(tmp_path):
    cfg = fm.ExperimentConfig(arch="resnet", margin=4, epochs=7)
    path = tmp_path / "round.ini"
    path.write_text(fm.dump_config(cfg))
    assert fm.load_config(path) == cfg


def test_config_validation():
    with pytest.raises(ValueError, match="unknown architecture"):
        fm.ExperimentConfig(arch="mlp")
    with pytest.raises(ValueError, match="segment range"):
        fm.ExperimentConfig(segment_min_s=5.0, segment_max_s=2.0)
