"""File-format round-trips, byte stability, checkpoint reload fidelity,
and config parsing."""

import re

import numpy as np
import pytest

from spkver import formats as fm
from spkver import models as md
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


def test_checkpoint_roundtrip_bit_identical_forward(tmp_path):
    model = md.build_res_net(2, n_spk=4, width_scale=0.25, seed=3)
    model.params.velocity["frame1.w"][...] = 0.125
    path = tmp_path / "model.ckpt"
    fm.save_checkpoint(path, model, step=17, epoch=2, config_hash="abc",
                       rng_state={"bit_generator": "PCG64", "state": {"state": 1, "inc": 2},
                                  "has_uint32": 0, "uinteger": 0})
    clone, meta = fm.load_checkpoint(path)
    assert meta["step"] == 17 and meta["epoch"] == 2 and meta["config_hash"] == "abc"
    feats = np.random.default_rng(4).standard_normal((150, 23))
    assert np.array_equal(md.forward_embed(model, feats),
                          md.forward_embed(clone, feats))
    assert np.array_equal(clone.params.velocity["frame1.w"],
                          model.params.velocity["frame1.w"])


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
    fm.write_archive(path, arrays, meta, dtype="f8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        fm.load_checkpoint(path)


def test_checkpoint_write_is_deterministic(tmp_path):
    model = md.build_maxpool_net(n_spk=3, width_scale=0.125, seed=5)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    fm.save_checkpoint(p1, model, step=0, epoch=0, config_hash="h")
    fm.save_checkpoint(p2, model, step=0, epoch=0, config_hash="h")
    assert p1.read_bytes() == p2.read_bytes()


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
