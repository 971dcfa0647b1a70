"""End-to-end CLI behavior: subcommand plumbing, exit codes, and
equality with the library-level results."""

import argparse
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import spkver
from spkver import backend as bk
from spkver import formats as fm
from spkver import metrics as mt
from spkver import models as md
from spkver import training as tr
from spkver.cli import build_parser, main
from spkver.corpus import SyntheticCorpusSpec, generate_synthetic_corpus
from spkver.frontend import FrontendConfig, read_wav, voiced_features


def write_wav(path, samples, rate):
    wavfile.write(path, rate, (np.clip(samples, -1.0, 1.0) * 32767.0).astype(np.int16))


def write_trials(path, trials):
    path.write_text("".join(f"{t.enroll} {t.test} {'target' if t.is_target else 'nontarget'}\n"
                            for t in trials))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def toy_dir(tmp_path, capsys):
    code, _, err = run(capsys, "synth", "--out-dir", str(tmp_path / "corpus"),
                       "--n-speakers", "3", "--utts-per-speaker", "6",
                       "--seconds", "2.0", "--separation", "2.0", "--seed", "5")
    assert code == 0, err
    return tmp_path


def write_toy_config(path, **overrides):
    cfg = fm.ExperimentConfig(arch="maxpool", width_scale=0.125, loss="softmax",
                              learning_rate=0.05, batch_size=4, epochs=1,
                              steps_per_epoch=3, segment_min_s=0.8,
                              segment_max_s=1.2, val_fraction=0.0, seed=0)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    path.write_text(fm.dump_config(cfg))
    return cfg


def test_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, "no-such-command")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "eval", "--scores", str(tmp_path / "missing.txt"))
    assert code == 2 and "spkver:" in err
    code, _, err = run(capsys, "synth", "--unknown-flag", "x")
    assert code == 1


def subparsers():
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", [None, *subparsers()])
def test_every_help_exits_0(capsys, command):
    code, out, _ = run(capsys, *([command] if command else []), "--help")
    assert code == 0 and "usage:" in out


@pytest.mark.parametrize("command,record,paths", [
    ("synth", SyntheticCorpusSpec, {"out_dir"}),
    ("mfcc", FrontendConfig, {"wav", "wav_dir", "out"}),
])
def test_value_options_set_their_record_fields(command, record, paths):
    """Every option but the paths and switches (nargs 0) is one field of the
    record, under the field's name and without a default of its own, so an
    option not given keeps the field's default and a misspelt ``dest`` fails."""
    values = [a for a in subparsers()[command]._actions if a.nargs != 0 and a.dest not in paths]
    assert sorted(a.dest for a in values) == sorted(f.name for f in fields(record))
    assert all(a.default is None for a in values)


def test_synth_without_options_writes_the_default_corpus(capsys, tmp_path):
    code, _, err = run(capsys, "synth", "--out-dir", str(tmp_path / "cli"))
    assert code == 0, err
    spec = SyntheticCorpusSpec()
    features, utt2spk = generate_synthetic_corpus(spec)
    fm.write_features(tmp_path / "lib.bin", features, spec.frame_shift_ms)
    fm.write_utt2spk(tmp_path / "lib.txt", utt2spk)
    assert (tmp_path / "cli" / "feats.bin").read_bytes() == (tmp_path / "lib.bin").read_bytes()
    assert (tmp_path / "cli" / "utt2spk.txt").read_bytes() == (tmp_path / "lib.txt").read_bytes()


def test_synth_writes_deterministic_corpus(capsys, tmp_path):
    for name in ("a", "b"):
        code, _, _ = run(capsys, "synth", "--out-dir", str(tmp_path / name),
                         "--n-speakers", "2", "--utts-per-speaker", "2",
                         "--seconds", "1.0", "--seed", "3")
        assert code == 0
    assert (tmp_path / "a" / "feats.bin").read_bytes() == \
        (tmp_path / "b" / "feats.bin").read_bytes()
    assert (tmp_path / "a" / "utt2spk.txt").read_text() == \
        (tmp_path / "b" / "utt2spk.txt").read_text()


@pytest.mark.parametrize("flags,message", [
    (["--frame-shift-ms", "0"], "frame_shift_ms must be finite and > 0, got 0.0"),
    (["--seconds", "inf"], "utterance_s must be finite and >= 0, got inf"),
    (["--separation", "nan"], "separation must be finite, got nan"),
    (["--dim", "0"], "feature_dim must be at least 1, got 0"),
    (["--seed", "-2"], "seed must be at least 0, got -2"),
], ids=["zero-frame-shift", "infinite-seconds", "nan-separation", "zero-dim", "negative-seed"])
def test_synth_value_out_of_range_exits_2_naming_it(capsys, tmp_path, flags, message):
    code, _, err = run(capsys, "synth", "--out-dir", str(tmp_path / "c"), "--n-speakers", "2",
                       "--utts-per-speaker", "1", "--seconds", "0.2", *flags)
    assert code == 2 and f"spkver: {message}" in err, err
    assert not (tmp_path / "c").exists()


def test_mfcc_subcommand(capsys, tmp_path):
    rate = 8000
    rng = np.random.default_rng(0)
    for i in range(2):
        tone = 0.3 * np.sin(2 * np.pi * (500 + 200 * i) * np.arange(rate) / rate)
        tone += 0.02 * rng.standard_normal(rate)
        write_wav(tmp_path / f"utt{i}.wav", tone, rate)
    out = tmp_path / "feats.bin"
    code, _, err = run(capsys, "mfcc", "--wav-dir", str(tmp_path), "--out", str(out))
    assert code == 0, err
    feats, meta = fm.read_features(out)
    assert set(feats) == {"utt0", "utt1"}
    assert meta["dim"] == 23
    cfg = FrontendConfig()
    fm.write_features(tmp_path / "lib.bin", {f"utt{i}": voiced_features(
        read_wav(tmp_path / f"utt{i}.wav"), cfg) for i in range(2)}, cfg.frame_shift_ms)
    assert out.read_bytes() == (tmp_path / "lib.bin").read_bytes()


def riff(*chunks):
    body = b"".join(cid + struct.pack("<I", len(data)) + data for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def fmt_chunk(tag=1, channels=1, bits=16, rate=8000):
    align = channels * bits // 8
    return b"fmt ", struct.pack("<HHIIHH", tag, channels, rate, rate * align, align, bits)


SILENCE = (b"data", bytes(1600))


@pytest.mark.parametrize("blob,message", [
    (b"hello, not audio\n", "not a RIFF/WAVE file"),
    (b"", "not a RIFF/WAVE file"),
    (riff(SILENCE), "no fmt chunk before the data chunk"),
    (riff(fmt_chunk()), "no data chunk"),
    (riff((b"fmt ", b"\x01\x00\x01\x00")), "fmt chunk cut short"),
    (riff(fmt_chunk(tag=3, bits=32), SILENCE), "WAVE format tag 0x3 is not integer PCM"),
    (riff(fmt_chunk(tag=6, bits=8), SILENCE), "WAVE format tag 0x6 is not integer PCM"),
    (riff(fmt_chunk(bits=8), SILENCE), "expected 16-bit PCM, got 8-bit"),
    (riff(fmt_chunk(bits=32), SILENCE), "expected 16-bit PCM, got 32-bit"),
    (riff(fmt_chunk(channels=2), SILENCE), "expected mono audio, got 2 channels"),
    (riff(fmt_chunk(rate=0), SILENCE), "sample rate must be positive"),
    (riff(fmt_chunk(), SILENCE)[:-10], "data chunk cut short: 1590 of 1600 bytes"),
    (riff(fmt_chunk(rate=10), SILENCE),
     "invalid signal: at 10 Hz the 10 ms frame shift is 0 samples, under one"),
    (riff(fmt_chunk(), (b"data", bytes(100))),
     "input too short: 50 samples < one 200-sample frame"),
], ids=["text", "empty", "no-fmt", "no-data", "short-fmt", "float", "a-law", "8-bit",
        "32-bit", "stereo", "zero-rate", "cut-short", "ten-hz", "too-short"])
def test_mfcc_malformed_wav_exits_2_naming_it(capsys, tmp_path, blob, message):
    path = tmp_path / "bad.wav"
    path.write_bytes(blob)
    code, _, err = run(capsys, "mfcc", "--wav", str(path), "--out", str(tmp_path / "f.bin"))
    assert code == 2 and f"spkver: {path}: {message}" in err, err
    assert not (tmp_path / "f.bin").exists()


@pytest.mark.parametrize("flags,message", [
    (["--cepstra", "0"], "n_cepstra is 0, needs 1 to n_mel_filters = 23"),
    (["--mel-filters", "0", "--cepstra", "0"], "n_cepstra is 0, needs 1 to n_mel_filters = 0"),
    (["--cmn-window-s", "inf"], "cmn_window_s must be finite, got inf"),
    (["--frame-length-ms", "inf"], "frame_length_ms must be finite, got inf"),
    (["--vad-offset", "nan"], "vad_energy_offset must be finite, got nan"),
], ids=["zero-cepstra", "zero-mel-filters", "infinite-cmn-window", "infinite-frame-length",
        "nan-vad-offset"])
def test_mfcc_config_out_of_range_exits_2_naming_it(capsys, tmp_path, flags, message):
    write_wav(tmp_path / "a.wav", 0.3 * np.sin(0.3 * np.arange(8000)), 8000)
    code, _, err = run(capsys, "mfcc", "--wav", str(tmp_path / "a.wav"),
                       "--out", str(tmp_path / "f.bin"), *flags)
    assert code == 2 and f"spkver: {message}" in err, err
    assert not (tmp_path / "f.bin").exists()


@pytest.mark.parametrize("layout", ["two-dirs", "wav-and-wav-dir"])
def test_mfcc_inputs_sharing_a_stem_exit_2_naming_both(capsys, tmp_path, layout):
    """Features are keyed by file stem, so a second input with a stem already
    seen would overwrite the first; nothing is written."""
    first, second = tmp_path / "a" / "x.wav", tmp_path / "b" / "x.wav"
    for path in (first, second):
        path.parent.mkdir()
        write_wav(path, 0.3 * np.sin(0.3 * np.arange(8000)), 8000)
    inputs = ["--wav", str(first), str(second)]
    if layout == "wav-and-wav-dir":
        inputs, second = ["--wav", str(first), "--wav-dir", str(first.parent)], first
    code, _, err = run(capsys, "mfcc", *inputs, "--out", str(tmp_path / "f.bin"))
    assert code == 2
    assert err == f"spkver: {first} and {second} both give utterance id 'x'\n"
    assert not (tmp_path / "f.bin").exists()


@pytest.mark.parametrize("with_wav", [True, False], ids=["with-wav", "without-wav"])
def test_mfcc_missing_wav_dir_exits_2_naming_it(capsys, tmp_path, with_wav):
    write_wav(tmp_path / "a.wav", 0.3 * np.sin(0.3 * np.arange(8000)), 8000)
    missing = tmp_path / "no" / "such" / "dir"
    inputs = ["--wav", str(tmp_path / "a.wav")] if with_wav else []
    code, _, err = run(capsys, "mfcc", *inputs, "--wav-dir", str(missing),
                       "--out", str(tmp_path / "f.bin"))
    assert code == 2
    assert err == f"spkver: --wav-dir {missing}: no such directory\n"
    assert not (tmp_path / "f.bin").exists()


def test_mfcc_wav_dir_without_wavs_names_it(capsys, tmp_path):
    (tmp_path / "empty").mkdir()
    code, _, err = run(capsys, "mfcc", "--wav-dir", str(tmp_path / "empty"),
                       "--out", str(tmp_path / "f.bin"))
    assert code == 2
    assert err == f"spkver: no input WAV files in {tmp_path / 'empty'}\n"


def test_commands_never_import_scipy(tmp_path):
    """mfcc, LDA-PLDA training and PLDA scoring in a fresh interpreter leave no
    ``scipy`` module in ``sys.modules``."""
    def p(name):
        return str(tmp_path / name)
    rng = np.random.default_rng(3)
    write_wav(p("a.wav"), 0.3 * rng.standard_normal(4000), 8000)
    emb = {f"u{i}": 2.0 * np.eye(3)[i // 4] + rng.standard_normal(3) for i in range(12)}
    fm.write_embeddings(p("emb.bin"), emb)
    fm.write_utt2spk(p("utt2spk.txt"), {utt: f"s{i // 4}" for i, utt in enumerate(emb)})
    (tmp_path / "trials.txt").write_text("u0 u1 target\nu0 u4 nontarget\n")
    commands = [
        ["mfcc", "--wav", p("a.wav"), "--out", p("feats.bin")],
        ["backend-train", "--kind", "lda-plda", "--embeddings", p("emb.bin"),
         "--utt2spk", p("utt2spk.txt"), "--out", p("plda.bin"), "--lda-dim", "2"],
        ["score", "--backend", "plda", "--embeddings", p("emb.bin"), "--trials",
         p("trials.txt"), "--model", p("plda.bin"), "--out", p("scores.txt")],
    ]
    script = ("import sys\nfrom spkver.cli import main\n"
              f"codes = [main(argv) for argv in {commands!r}]\n"
              "print(codes, sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = str(Path(spkver.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0] []", done.stdout + done.stderr


def test_train_epochs_zero_emits_loadable_checkpoint(capsys, toy_dir, tmp_path):
    corpus = toy_dir / "corpus"
    cfg_path = tmp_path / "exp.ini"
    write_toy_config(cfg_path, epochs=0)
    ckpt = tmp_path / "init.ckpt"
    code, _, err = run(capsys, "train", "--config", str(cfg_path),
                       "--features", str(corpus / "feats.bin"),
                       "--utt2spk", str(corpus / "utt2spk.txt"),
                       "--out", str(ckpt))
    assert code == 0, err
    emb_path = tmp_path / "emb.bin"
    code, _, err = run(capsys, "extract", "--checkpoint", str(ckpt),
                       "--features", str(corpus / "feats.bin"),
                       "--out", str(emb_path))
    assert code == 0, err
    emb = fm.read_embeddings(emb_path)
    assert len(emb) == 18


def test_extract_checkpoint_with_extra_momentum_exits_2(capsys, toy_dir, tmp_path):
    ckpt = tmp_path / "extra.ckpt"
    fm.save_checkpoint(ckpt, md.build_maxpool_net(n_spk=3, width_scale=0.125),
                       step=0, epoch=0, config_hash="")
    arrays, meta = fm.read_archive(ckpt)
    arrays["momentum.bogus"] = np.zeros(2)
    fm.write_archive(ckpt, arrays, meta, dtype="f4")
    code, _, err = run(capsys, "extract", "--checkpoint", str(ckpt),
                       "--features", str(toy_dir / "corpus" / "feats.bin"),
                       "--out", str(tmp_path / "emb.bin"))
    assert code == 2 and "extra.ckpt: array momentum.bogus" in err
    assert not (tmp_path / "emb.bin").exists()


@pytest.mark.parametrize("command", ["extract", "train-resume"])
def test_checkpoint_with_float64_payloads_exits_2_naming_file_and_array(
        capsys, toy_dir, tmp_path, command):
    """Checkpoints store float32.  A file with 64-bit payloads, as checkpoints
    were once written, is refused rather than narrowed, naming the first
    array in name order."""
    corpus = toy_dir / "corpus"
    write_toy_config(tmp_path / "exp.ini", epochs=0)
    train = train_argv(corpus, tmp_path / "exp.ini")
    ckpt, out = tmp_path / "wide.ckpt", tmp_path / "out.bin"
    assert run(capsys, *train, "--out", str(ckpt))[0] == 0
    arrays, meta = fm.read_archive(ckpt)
    fm.write_archive(ckpt, arrays, meta, dtype="f8")
    array = sorted(arrays)[0]
    argv = (["extract", "--checkpoint", str(ckpt), "--features", str(corpus / "feats.bin")]
            if command == "extract" else [*train, "--resume", str(ckpt)])
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err == f"spkver: {ckpt}: array {array} is float64, checkpoints store float32\n"
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
@pytest.mark.parametrize("command", ["extract", "train"])
def test_non_finite_features_exit_2_naming_file_and_utterance(capsys, toy_dir, tmp_path,
                                                              command, bad):
    """A NaN or inf in a feature archive stops the command as the file is read,
    naming the file and the utterance, instead of writing a non-finite
    embedding or failing later as a diverged run."""
    corpus = toy_dir / "corpus"
    features, meta = fm.read_features(corpus / "feats.bin")
    utt = sorted(features)[4]
    features[utt][7, 3] = bad
    bad_path, out = tmp_path / "bad_feats.bin", tmp_path / "out.bin"
    fm.write_features(bad_path, features, meta["frame_shift_ms"])
    if command == "extract":
        ckpt = tmp_path / "m.ckpt"
        fm.save_checkpoint(ckpt, md.build_maxpool_net(n_spk=3, width_scale=0.125),
                           step=0, epoch=0, config_hash="")
        argv = ["extract", "--checkpoint", str(ckpt), "--features", str(bad_path)]
    else:
        write_toy_config(tmp_path / "exp.ini")
        argv = train_argv(corpus, tmp_path / "exp.ini")
        argv[argv.index("--features") + 1] = str(bad_path)
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err == f"spkver: {bad_path}: features of {utt!r} hold a non-finite value\n"
    assert not out.exists()


def test_extract_all_short_writes_empty_archive(capsys, tmp_path):
    feats = {f"u{i}": np.random.default_rng(i).standard_normal((10 + i, 23))
             for i in range(3)}
    fm.write_features(tmp_path / "feats.bin", feats, 10.0)
    ckpt = tmp_path / "m.ckpt"
    fm.save_checkpoint(ckpt, md.build_maxpool_net(n_spk=3, width_scale=0.125),
                       step=0, epoch=0, config_hash="")
    code, out, err = run(capsys, "extract", "--checkpoint", str(ckpt),
                         "--features", str(tmp_path / "feats.bin"),
                         "--out", str(tmp_path / "emb.bin"),
                         "--manifest", str(tmp_path / "skipped.txt"))
    assert code == 0, err
    assert fm.read_embeddings(tmp_path / "emb.bin") == {}
    assert (tmp_path / "skipped.txt").read_text() == "u0 skipped\nu1 skipped\nu2 skipped\n"
    assert "wrote 0 embeddings" in out and "(3 skipped)" in out


def test_train_best_out_builds_no_second_random_model(capsys, toy_dir, tmp_path,
                                                      monkeypatch):
    """The best checkpoint holds the live run at the end of its best epoch,
    momentum included, and no second model is built to write it."""
    corpus = toy_dir / "corpus"
    write_toy_config(tmp_path / "exp.ini", epochs=2, val_fraction=0.34)
    builds, live = [], []
    build_model, all_pairs_eer = tr.build_model, tr.all_pairs_eer

    def counted_build(*args):
        builds.append(build_model(*args))
        return builds[-1]

    def snapshot_then_score(*args, **kwargs):     # validation ends each epoch
        model = builds[0]
        live.append({name: (t.data.copy(), model.velocity[name].copy())
                     for name, t in model.params.items()})
        return all_pairs_eer(*args, **kwargs)
    monkeypatch.setattr(tr, "build_model", counted_build)
    monkeypatch.setattr(tr, "all_pairs_eer", snapshot_then_score)
    best = tmp_path / "best.ckpt"
    code, _, err = run(capsys, "train", "--config", str(tmp_path / "exp.ini"),
                       "--features", str(corpus / "feats.bin"),
                       "--utt2spk", str(corpus / "utt2spk.txt"),
                       "--out", str(tmp_path / "last.ckpt"), "--best-out", str(best))
    assert code == 0, err
    assert len(builds) == 1 and len(live) == 2
    model, meta = fm.load_checkpoint(best)
    state = live[meta["epoch"] - 1]
    assert any(np.any(velocity != 0.0) for _, velocity in state.values())
    for name, (data, velocity) in state.items():
        assert model.params[name].data.tobytes() == data.tobytes(), name
        assert model.velocity[name].tobytes() == velocity.tobytes(), name


def test_train_best_out_is_labelled_with_the_best_epoch(capsys, toy_dir, tmp_path):
    """The best checkpoint's epoch, step, rng_state, momentum and history are
    those at the end of the epoch whose parameters it holds: the state of a
    run that stopped after that epoch, so a --resume from it continues from
    there."""
    corpus = toy_dir / "corpus"
    cfg = write_toy_config(tmp_path / "exp.ini", epochs=3, val_fraction=0.34)
    last, best = tmp_path / "last.ckpt", tmp_path / "best.ckpt"
    code, _, err = run(capsys, "train", "--config", str(tmp_path / "exp.ini"),
                       "--features", str(corpus / "feats.bin"),
                       "--utt2spk", str(corpus / "utt2spk.txt"),
                       "--out", str(last), "--best-out", str(best))
    assert code == 0, err
    history = fm.load_checkpoint(last)[1]["extra"]["history"]
    best_epoch = min(range(len(history)), key=lambda e: history[e]["val_eer"])
    assert best_epoch < cfg.epochs - 1          # the best epoch is not the last

    cfg.epochs = best_epoch + 1
    features, feats_meta = fm.read_features(corpus / "feats.bin")
    stopped = tr.train_extractor(features, fm.read_utt2spk(corpus / "utt2spk.txt"), cfg,
                                 frame_shift_ms=feats_meta["frame_shift_ms"])
    model, meta = fm.load_checkpoint(best)
    assert meta["epoch"] == best_epoch + 1
    assert meta["step"] == stopped.final_step == history[best_epoch]["step"]
    assert meta["rng_state"] == stopped.rng_state
    assert meta["extra"] == {"history": history[:best_epoch + 1],
                             "best_val_eer": history[best_epoch]["val_eer"]}
    for name, tensor in stopped.model.params.items():
        assert tensor.data.tobytes() == model.params[name].data.tobytes(), name
        assert stopped.model.velocity[name].tobytes() == \
            model.velocity[name].tobytes(), name


def train_argv(corpus, config):
    return ["train", "--config", str(config), "--features", str(corpus / "feats.bin"),
            "--utt2spk", str(corpus / "utt2spk.txt")]


def test_resume_from_best_out_writes_the_uninterrupted_checkpoint(capsys, toy_dir, tmp_path):
    """Resuming from the best checkpoint continues the run bit for bit: the
    resumed ``--out`` is byte for byte the uninterrupted run's."""
    write_toy_config(tmp_path / "exp.ini", epochs=3, val_fraction=0.34)
    train = train_argv(toy_dir / "corpus", tmp_path / "exp.ini")
    full, best, resumed = (tmp_path / f"{n}.ckpt" for n in ("full", "best", "resumed"))
    code, _, err = run(capsys, *train, "--out", str(full), "--best-out", str(best))
    assert code == 0, err
    assert fm.load_checkpoint(best)[1]["epoch"] == 1        # two epochs left to resume
    code, _, err = run(capsys, *train, "--resume", str(best), "--out", str(resumed))
    assert code == 0, err
    assert resumed.read_bytes() == full.read_bytes()


def test_resume_from_another_configuration_exits_2(capsys, toy_dir, tmp_path):
    corpus = toy_dir / "corpus"
    write_toy_config(tmp_path / "one.ini", epochs=1)
    write_toy_config(tmp_path / "two.ini", epochs=2)
    first, second = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    code, _, err = run(capsys, *train_argv(corpus, tmp_path / "one.ini"), "--out", str(first))
    assert code == 0, err
    code, _, err = run(capsys, *train_argv(corpus, tmp_path / "two.ini"),
                       "--resume", str(first), "--out", str(second))
    assert code == 2
    one, two = (fm.load_config(tmp_path / f"{n}.ini").config_hash() for n in ("one", "two"))
    assert err.splitlines()[-1] == (f"spkver: {first}: checkpoint was produced by a different "
                                    f"configuration (config hash {one}, this run's {two})")
    assert not second.exists()


def test_resume_into_a_loss_that_leaves_a_parameter_without_gradient_exits_2(
        capsys, toy_dir, tmp_path):
    """A softmax checkpoint whose config hash was rewritten to an A-softmax
    configuration's resumes past the hash check, but A-softmax never reaches
    the softmax classifier's bias: the first step stops naming it."""
    corpus, first, second = toy_dir / "corpus", tmp_path / "softmax.ckpt", tmp_path / "out.ckpt"
    write_toy_config(tmp_path / "softmax.ini")
    asoftmax = write_toy_config(tmp_path / "asoftmax.ini", loss="asoftmax", epochs=2)
    code, _, err = run(capsys, *train_argv(corpus, tmp_path / "softmax.ini"), "--out", str(first))
    assert code == 0, err
    model, meta = fm.load_checkpoint(first)
    assert "classifier.b" in model.params
    fm.save_checkpoint(first, model, step=meta["step"], epoch=meta["epoch"],
                       config_hash=asoftmax.config_hash(), rng_state=meta["rng_state"],
                       extra=meta["extra"])
    code, _, err = run(capsys, *train_argv(corpus, tmp_path / "asoftmax.ini"),
                       "--resume", str(first), "--out", str(second))
    assert code == 2
    assert err.splitlines()[-1] == "spkver: parameter classifier.b received no gradient"
    assert not second.exists()


@pytest.mark.parametrize("command", ["train", "extract"])
@pytest.mark.parametrize("shape", [(300,), (300, 23, 1)], ids=["1-D", "3-D"])
def test_features_not_2d_exit_2_naming_archive_and_utterance(capsys, tmp_path, command, shape):
    feats, out = tmp_path / "feats.bin", tmp_path / "out.bin"
    fm.write_archive(feats, {"good": np.ones((300, 23)), "odd": np.ones(shape)},
                     {"kind": "features", "frame_shift_ms": 10.0, "dim": 23}, dtype="f4")
    (tmp_path / "utt2spk.txt").write_text("good s0\nodd s1\n")
    if command == "train":
        write_toy_config(tmp_path / "exp.ini")
        argv = train_argv(tmp_path, tmp_path / "exp.ini")
    else:
        ckpt = tmp_path / "m.ckpt"
        fm.save_checkpoint(ckpt, md.build_maxpool_net(n_spk=3, width_scale=0.125),
                           step=0, epoch=0, config_hash="")
        argv = ["extract", "--checkpoint", str(ckpt), "--features", str(feats)]
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err == f"spkver: {feats}: features of 'odd' have shape {shape}, not (T, dim)\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "extract"])
def test_features_of_another_width_exit_2_naming_archive_and_in_dim(capsys, tmp_path, command):
    """20-dim features against a 23-dim checkpoint stop before any training or
    forward pass, naming the checkpoint, in_dim and the features' width: for
    ``train --resume`` a checkpoint of the same configuration, for extract any,
    and then the feature archive too."""
    corpus, out, ckpt = tmp_path / "corpus", tmp_path / "out.bin", tmp_path / "m.ckpt"
    code, _, err = run(capsys, "synth", "--out-dir", str(corpus), "--n-speakers", "3",
                       "--utts-per-speaker", "2", "--seconds", "2.0", "--dim", "20")
    assert code == 0, err
    feats = corpus / "feats.bin"
    if command == "train":
        cfg = write_toy_config(tmp_path / "exp.ini")
        state = np.random.default_rng(cfg.seed).bit_generator.state
        tr.save_train_checkpoint(ckpt, tr.TrainResult(tr.build_model(cfg, 3), rng_state=state),
                                 cfg)
        argv = [*train_argv(corpus, tmp_path / "exp.ini"), "--resume", str(ckpt)]
        message = f"{ckpt}: checkpoint has in_dim 23, the features have width 20"
    else:
        fm.save_checkpoint(ckpt, md.build_maxpool_net(n_spk=3, width_scale=0.125),
                           step=0, epoch=0, config_hash="")
        argv = ["extract", "--checkpoint", str(ckpt), "--features", str(feats)]
        message = f"{feats}: features of width 20, but checkpoint {ckpt} has in_dim 23"
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err == f"spkver: {message}\n"
    assert not out.exists()


def test_train_takes_in_dim_from_the_features(capsys, tmp_path):
    """The configuration states no feature width: a model trained on 20-dim
    features has in_dim 20 in its architecture record, and extracts from them."""
    corpus, ckpt = tmp_path / "corpus", tmp_path / "m.ckpt"
    code, _, err = run(capsys, "synth", "--out-dir", str(corpus), "--n-speakers", "3",
                       "--utts-per-speaker", "2", "--seconds", "2.0", "--dim", "20")
    assert code == 0, err
    write_toy_config(tmp_path / "exp.ini")
    code, _, err = run(capsys, *train_argv(corpus, tmp_path / "exp.ini"), "--out", str(ckpt))
    assert code == 0, err
    model, meta = fm.load_checkpoint(ckpt)
    assert meta["arch"]["in_dim"] == model.in_dim == 20
    code, _, err = run(capsys, "extract", "--checkpoint", str(ckpt), "--features",
                       str(corpus / "feats.bin"), "--out", str(tmp_path / "emb.bin"))
    assert code == 0, err
    embeddings = fm.read_embeddings(tmp_path / "emb.bin").values()
    assert {e.shape for e in embeddings} == {(model.embedding_dim,)}


@pytest.mark.parametrize("command", ["train", "extract"])
def test_features_of_mixed_width_exit_2_naming_archive_and_utterances(capsys, tmp_path,
                                                                      command):
    feats, out = tmp_path / "feats.bin", tmp_path / "out.bin"
    fm.write_archive(feats, {"a": np.ones((300, 23)), "b": np.ones((300, 20))},
                     {"kind": "features", "frame_shift_ms": 10.0, "dim": 23}, dtype="f4")
    (tmp_path / "utt2spk.txt").write_text("a s0\nb s1\n")
    if command == "train":
        write_toy_config(tmp_path / "exp.ini")
        argv = train_argv(tmp_path, tmp_path / "exp.ini")
    else:
        ckpt = tmp_path / "m.ckpt"
        fm.save_checkpoint(ckpt, md.build_maxpool_net(n_spk=3, width_scale=0.125),
                           step=0, epoch=0, config_hash="")
        argv = ["extract", "--checkpoint", str(ckpt), "--features", str(feats)]
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err == f"spkver: {feats}: features of 'b' have width 20, those of 'a' 23\n"
    assert not out.exists()


def test_best_out_survives_divergence_after_the_best_epoch(capsys, toy_dir, tmp_path,
                                                           monkeypatch):
    """A run that diverges after its best epoch exits 2 without ``--out``,
    but the best checkpoint was written when that epoch ended, and resuming
    from it (without the fault) finishes the run as an uninterrupted one."""
    write_toy_config(tmp_path / "exp.ini", epochs=3, val_fraction=0.34)
    train = train_argv(toy_dir / "corpus", tmp_path / "exp.ini")
    full, last, best, resumed = (tmp_path / f"{n}.ckpt"
                                 for n in ("full", "last", "best", "resumed"))
    assert run(capsys, *train, "--out", str(full))[0] == 0
    clip, calls = tr.clip_gradients, []

    def nan_from_step_6(params, max_norm):         # step 6 opens epoch 2
        calls.append(len(calls))
        return clip(params, max_norm) * (np.nan if calls[-1] >= 6 else 1.0)
    monkeypatch.setattr(tr, "clip_gradients", nan_from_step_6)
    code, _, err = run(capsys, *train, "--out", str(last), "--best-out", str(best))
    assert code == 2
    assert "spkver: training diverged at step 6 (epoch 2," in err
    assert not last.exists()
    assert fm.load_checkpoint(best)[1]["epoch"] == 1
    monkeypatch.undo()
    code, _, err = run(capsys, *train, "--resume", str(best), "--out", str(resumed))
    assert code == 0, err
    assert resumed.read_bytes() == full.read_bytes()


def test_train_best_out_without_validation_split_exits_2(capsys, toy_dir, tmp_path):
    """With no validation split there is no best epoch: ``--out`` is still
    written, then the command fails naming ``--best-out`` and the split."""
    corpus = toy_dir / "corpus"
    write_toy_config(tmp_path / "exp.ini")                  # val_fraction = 0
    last, best = tmp_path / "last.ckpt", tmp_path / "best.ckpt"
    code, out, err = run(capsys, "train", "--config", str(tmp_path / "exp.ini"),
                         "--features", str(corpus / "feats.bin"),
                         "--utt2spk", str(corpus / "utt2spk.txt"),
                         "--out", str(last), "--best-out", str(best))
    assert code == 2
    assert f"spkver: --best-out {best} not written" in err and "validation split" in err
    assert last.exists() and f"wrote checkpoint to {last}" in out
    assert not best.exists()


def test_train_utt2spk_id_without_features_exits_2(capsys, toy_dir, tmp_path):
    corpus = toy_dir / "corpus"
    utt2spk = tmp_path / "utt2spk.txt"
    text = (corpus / "utt2spk.txt").read_text()
    utt2spk.write_text(f"{text}ghost-utt {text.split()[1]}\n")
    write_toy_config(tmp_path / "exp.ini")
    ckpt = tmp_path / "model.ckpt"
    code, _, err = run(capsys, "train", "--config", str(tmp_path / "exp.ini"),
                       "--features", str(corpus / "feats.bin"), "--utt2spk", str(utt2spk),
                       "--out", str(ckpt))
    assert code == 2
    assert err == f"spkver: {corpus / 'feats.bin'}: no features for utt2spk id 'ghost-utt'\n"
    assert not ckpt.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflow is the point
def test_train_divergence_exits_2_without_checkpoint(capsys, toy_dir, tmp_path):
    corpus = toy_dir / "corpus"
    cfg_path = tmp_path / "exp.ini"
    write_toy_config(cfg_path, learning_rate=1e9, epochs=2, steps_per_epoch=10)
    ckpt = tmp_path / "model.ckpt"
    code, _, err = run(capsys, "train", "--config", str(cfg_path),
                       "--features", str(corpus / "feats.bin"),
                       "--utt2spk", str(corpus / "utt2spk.txt"),
                       "--out", str(ckpt))
    assert code == 2
    assert "training diverged" in err
    assert not ckpt.exists()


def test_full_pipeline_matches_library(capsys, toy_dir, tmp_path):
    corpus = toy_dir / "corpus"
    cfg_path = tmp_path / "exp.ini"
    write_toy_config(cfg_path, epochs=1)
    ckpt = tmp_path / "model.ckpt"
    code, _, err = run(capsys, "train", "--config", str(cfg_path),
                       "--features", str(corpus / "feats.bin"),
                       "--utt2spk", str(corpus / "utt2spk.txt"),
                       "--out", str(ckpt))
    assert code == 0, err

    emb_path = tmp_path / "emb.bin"
    code, _, _ = run(capsys, "extract", "--checkpoint", str(ckpt),
                     "--features", str(corpus / "feats.bin"),
                     "--out", str(emb_path))
    assert code == 0

    utt2spk = fm.read_utt2spk(corpus / "utt2spk.txt")
    utts = sorted(utt2spk)
    trials = []
    for i, a in enumerate(utts):
        for b in utts[i + 1 : i + 4]:
            trials.append(mt.Trial(a, b, utt2spk[a] == utt2spk[b]))
    trials_path = tmp_path / "trials.txt"
    write_trials(trials_path, trials)

    scores_path = tmp_path / "scores.txt"
    code, _, err = run(capsys, "score", "--backend", "cosine",
                       "--embeddings", str(emb_path),
                       "--trials", str(trials_path),
                       "--out", str(scores_path))
    assert code == 0, err

    emb = fm.read_embeddings(emb_path)
    expected = np.array([bk.score_pairs(None, bk.scoring_rows(None, [emb[t.enroll], emb[t.test]]),
                                        [0], [1])[0] for t in trials])
    score_set = mt.parse_scores(scores_path.read_text())
    assert np.array_equal(score_set.scores, expected)

    json_path = tmp_path / "metrics.json"
    code, out, _ = run(capsys, "eval", "--scores", str(scores_path),
                       "--json", str(json_path))
    assert code == 0
    assert "EER" in out and "minDCF" in out
    import json
    summary = json.loads(json_path.read_text())
    assert summary["eer"] == pytest.approx(mt.compute_eer(score_set))


def test_eval_perfect_fixture_prints_zero(capsys, tmp_path):
    trials = [mt.Trial("a", "b", True), mt.Trial("a", "c", False),
              mt.Trial("d", "e", True), mt.Trial("d", "f", False)]
    s = mt.ScoreSet.from_trials(trials, np.array([0.9, 0.1, 0.8, 0.2]))
    path = tmp_path / "scores.txt"
    path.write_text(mt.write_scores(s))
    code, out, _ = run(capsys, "eval", "--scores", str(path))
    assert code == 0
    assert "0.000%" in out


def test_eval_builds_no_trial_rows(capsys, tmp_path, monkeypatch):
    path = tmp_path / "scores.txt"
    path.write_text("a b target 0.9\na c nontarget 0.1\n")
    monkeypatch.setattr(mt, "Trial", None)            # calling it would raise TypeError
    code, out, err = run(capsys, "eval", "--scores", str(path))
    assert code == 0, err
    assert "0.000%" in out


def test_eval_parse_keeps_no_ids(capsys, tmp_path, monkeypatch):
    """``eval`` parses 50k lines of unique ids into 9 bytes a trial (mask and score),
    peaking below the size of the text beyond it.  A parse that keeps the ids holds
    about 160 bytes a trial here and peaks at 3.4 times the text."""
    lines = 50_000
    path = tmp_path / "scores.txt"
    path.write_text("".join(f"spk{i % 997:04d}-enr{i:06d} spk{i % 991:04d}-tst{i:06d} "
                            f"{'target' if i % 10 == 0 else 'nontarget'} {i % 997 / 7:.2f}\n"
                            for i in range(lines)))
    parse_scores, seen = mt.parse_scores, {}

    def traced(text, **options):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        score_set = parse_scores(text, **options)
        held, peak = tracemalloc.get_traced_memory()
        seen.update(text=sys.getsizeof(text), held=held - before, peak=peak - before)
        return score_set

    monkeypatch.setattr(mt, "parse_scores", traced)
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "eval", "--scores", str(path))
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert seen["held"] < 12 * lines and seen["peak"] < seen["text"], seen


@pytest.mark.parametrize("text,message", [
    (b"a b target\n", "line 1: expected"),
    (b"a b target 0.5\nc d nontarget 0.5 x\n", "line 2: expected"),
    (b"a b maybe 0.5\n", "line 1: expected"),
    (b"a b target 0.5\nc d nontarget 0.5.1\n", "line 2: bad score '0.5.1'"),
    (b"a b target 0.5\nc d nontarget nan\n", "line 2: score 'nan' is not finite"),
    (b"", "no trials"),
    (b"a b target 0.5\n\xff\n", "'utf-8' codec can't decode"),
    (b"a b target 0.5\nc d target 0.1\n", "degenerate trial set"),
    (b"a b nontarget 0.5\nc d nontarget 0.1\n", "degenerate trial set"),
], ids=["3-fields", "5-fields", "bad-label", "bad-float", "nan", "empty", "not-utf-8",
        "all-target", "all-nontarget"])
def test_eval_malformed_score_file_exits_2_naming_it(capsys, tmp_path, text, message):
    path = tmp_path / "scores.txt"
    path.write_bytes(text)
    code, _, err = run(capsys, "eval", "--scores", str(path))
    assert code == 2 and f"spkver: {path}: {message}" in err


@pytest.mark.parametrize("score", ["0.25", "-3", "0"])
def test_eval_of_constant_scores_exits_2_naming_the_file(capsys, tmp_path, score):
    """Equal scores leave no threshold to place: EER 0.5 would be an artefact."""
    path = tmp_path / "scores.txt"
    path.write_text(f"a b target {score}\na c nontarget {score}\nb c nontarget {score}\n")
    code, out, err = run(capsys, "eval", "--scores", str(path), "--json", str(tmp_path / "e.json"))
    assert code == 2 and out == ""
    assert err == (f"spkver: {path}: every score is {float(score):g}: "
                   f"no threshold separates the trials\n")
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("value", ["1.5", "0", "-0.2", "nan"])
def test_eval_p_target_out_of_range_exits_2_naming_the_option(capsys, tmp_path, value):
    path = tmp_path / "scores.txt"
    path.write_text("a b target 0.9\na c nontarget 0.1\n")
    code, out, err = run(capsys, "eval", "--scores", str(path), "--p-target", "0.01", value,
                         "--json", str(tmp_path / "eval.json"))
    assert code == 2 and out == ""
    assert err == f"spkver: --p-target {float(value):g}: p_target must be in (0, 1)\n"
    assert not (tmp_path / "eval.json").exists()


def _score_all_backends(capsys, tmp_path):
    """Fit CSML and LDA-PLDA through the CLI, score one trial list with all
    three backends; returns the written embeddings, the trials and the
    model files."""
    rng = np.random.default_rng(1)
    centers = 3.0 * rng.standard_normal((4, 8))
    emb, utt2spk = {}, {}
    for s in range(4):
        for u in range(6):
            utt = f"s{s}u{u}"
            emb[utt] = centers[s] + 0.5 * rng.standard_normal(8)
            utt2spk[utt] = f"s{s}"
    emb_path = tmp_path / "emb.bin"
    fm.write_embeddings(emb_path, {k: v.astype(np.float32).astype(float)
                                   for k, v in emb.items()})
    fm.write_utt2spk(tmp_path / "utt2spk.txt", utt2spk)

    # every utterance recurs; the last trial puts one on both sides
    utts = sorted(emb)
    trials = [mt.Trial(a, b, utt2spk[a] == utt2spk[b])
              for i, a in enumerate(utts) for b in utts[i + 1 :]]
    trials.append(mt.Trial(utts[3], utts[3], True))
    trials_path = tmp_path / "trials.txt"
    write_trials(trials_path, trials)

    models = {"csml": tmp_path / "csml.bin", "plda": tmp_path / "plda.bin"}
    code, _, err = run(capsys, "backend-train", "--kind", "csml",
                       "--embeddings", str(emb_path),
                       "--utt2spk", str(tmp_path / "utt2spk.txt"),
                       "--out", str(models["csml"]), "--epochs", "2", "--n-hard", "10")
    assert code == 0, err
    code, _, err = run(capsys, "backend-train", "--kind", "lda-plda",
                       "--embeddings", str(emb_path),
                       "--utt2spk", str(tmp_path / "utt2spk.txt"),
                       "--out", str(models["plda"]), "--em-iters", "5", "--lda-dim", "3")
    assert code == 0, err
    for backend in ("cosine", "csml", "plda"):
        extra = ["--model", str(models[backend])] if backend in models else []
        code, _, err = run(capsys, "score", "--backend", backend,
                           "--embeddings", str(emb_path), "--trials", str(trials_path),
                           "--out", str(tmp_path / f"{backend}_scores.txt"), *extra)
        assert code == 0, err
    return fm.read_embeddings(emb_path), trials, models


def _assert_scores_match_library(tmp_path, embeddings, trials, models):
    """Each backend's score file equals an independent library reference
    within 1e-9: numpy cosine, cosine of the transformed pair, and
    ``plda_score_many`` with preprocessing."""
    e1 = np.stack([embeddings[t.enroll] for t in trials])
    e2 = np.stack([embeddings[t.test] for t in trials])

    def cosine(a, b):
        return (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    transform = bk.load_backend(models["csml"], "csml").matrix
    expected = {"cosine": cosine(e1, e2),
                "csml": cosine(e1 @ transform.T, e2 @ transform.T),
                "plda": bk.plda_score_many(bk.load_backend(models["plda"], "plda"), e1, e2)}
    for backend, ref in expected.items():
        parsed = mt.parse_scores((tmp_path / f"{backend}_scores.txt").read_text())
        assert parsed.trials == trials
        np.testing.assert_allclose(parsed.scores, ref, rtol=1e-9, atol=1e-9, err_msg=backend)


def test_backend_train_and_score_csml_plda(capsys, tmp_path):
    embeddings, trials, models = _score_all_backends(capsys, tmp_path)
    _assert_scores_match_library(tmp_path, embeddings, trials, models)
    for name in ("csml_scores.txt", "plda_scores.txt"):
        code, out, _ = run(capsys, "eval", "--scores", str(tmp_path / name))
        assert code == 0

    # centering changes cosine scores to the cosines of the centered pairs
    mean_path = tmp_path / "mean.bin"
    mean = np.stack([embeddings[u] for u in sorted(embeddings)]).mean(axis=0)
    fm.write_archive(mean_path, {"mean": mean}, None, dtype="f8")
    code, _, _ = run(capsys, "score", "--backend", "cosine",
                     "--embeddings", str(tmp_path / "emb.bin"),
                     "--trials", str(tmp_path / "trials.txt"),
                     "--center", str(mean_path),
                     "--out", str(tmp_path / "centered.txt"))
    assert code == 0
    assert (tmp_path / "centered.txt").read_text() != \
        (tmp_path / "cosine_scores.txt").read_text()
    e1 = np.stack([embeddings[t.enroll] for t in trials]) - mean
    e2 = np.stack([embeddings[t.test] for t in trials]) - mean
    centered = mt.parse_scores((tmp_path / "centered.txt").read_text())
    assert centered.trials == trials
    np.testing.assert_allclose(centered.scores, (e1 * e2).sum(axis=1) / (
        np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)), rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind,flags,message", [
    ("csml", ["--n-hard", "0"], "n_hard must be at least 1, got 0"),
    ("csml", ["--n-hard", "-3"], "n_hard must be at least 1, got -3"),
    ("csml", ["--max-triplets", "-1"], "max_triplets must be at least 1, got -1"),
    ("csml", ["--epochs", "-1"], "epochs must be at least 0, got -1"),
    ("lda-plda", ["--em-iters", "-1"], "n_iter must be at least 0, got -1"),
], ids=["zero-n-hard", "negative-n-hard", "negative-max-triplets", "negative-epochs",
        "negative-em-iters"])
def test_backend_train_option_out_of_range_exits_2_naming_it(capsys, tmp_path, kind, flags,
                                                             message):
    """6 speakers x 5 embeddings: enough for either backend, so only the option fails."""
    rng = np.random.default_rng(0)
    centers = rng.standard_normal((6, 8))
    emb = {f"s{s}u{u}": centers[s] + 0.5 * rng.standard_normal(8)
           for s in range(6) for u in range(5)}
    fm.write_embeddings(tmp_path / "emb.bin", emb)
    fm.write_utt2spk(tmp_path / "utt2spk.txt", {utt: utt.split("u")[0] for utt in emb})
    code, _, err = run(capsys, "backend-train", "--kind", kind,
                       "--embeddings", str(tmp_path / "emb.bin"),
                       "--utt2spk", str(tmp_path / "utt2spk.txt"),
                       "--out", str(tmp_path / "model.bin"), *flags)
    assert code == 2 and f"spkver: {message}" in err, err
    assert not (tmp_path / "model.bin").exists()


@pytest.mark.parametrize("command,flags,message", [
    ("backend-train", ["--lda-dim", "0"], "--lda-dim 0: not in [1, 16], the dimension of the "
                                          "embeddings in {emb}"),
    ("backend-train", ["--lda-dim", "99"], "--lda-dim 99: not in [1, 16], the dimension of "
                                           "the embeddings in {emb}"),
    ("extract", ["--threads", "-3"], "--threads -3: needs at least 1"),
    ("extract", ["--threads", "0"], "--threads 0: needs at least 1"),
    ("backend-train", ["--seed", "-1"], "--seed -1: needs at least 0"),
], ids=["zero-lda-dim", "lda-dim-over-width", "negative-threads", "zero-threads",
        "negative-seed"])
def test_option_out_of_range_exits_2_naming_the_option(capsys, tmp_path, command, flags,
                                                       message):
    """16-dim embeddings of 4 speakers; a 23-dim corpus and checkpoint for extract."""
    emb, out = tmp_path / "emb.bin", tmp_path / "out.bin"
    if command == "backend-train":
        rng = np.random.default_rng(1)
        fm.write_embeddings(emb, {f"s{i % 4}u{i}": rng.standard_normal(16) for i in range(24)})
        fm.write_utt2spk(tmp_path / "utt2spk.txt", {f"s{i % 4}u{i}": f"s{i % 4}"
                                                    for i in range(24)})
        argv = ["backend-train", "--kind", "lda-plda", "--embeddings", str(emb),
                "--utt2spk", str(tmp_path / "utt2spk.txt")]
    else:
        feats = {f"u{i}": np.random.default_rng(i).standard_normal((200, 23)) for i in range(2)}
        fm.write_features(tmp_path / "feats.bin", feats, 10.0)
        fm.save_checkpoint(tmp_path / "m.ckpt", md.build_maxpool_net(n_spk=3, width_scale=0.125),
                           step=0, epoch=0, config_hash="")
        argv = ["extract", "--checkpoint", str(tmp_path / "m.ckpt"),
                "--features", str(tmp_path / "feats.bin")]
    code, _, err = run(capsys, *argv, "--out", str(out), *flags)
    assert code == 2
    assert err == f"spkver: {message.format(emb=emb)}\n"
    assert not out.exists()


@pytest.mark.parametrize("n_rows,warned", [(48, True), (75, True), (76, False)])
def test_lda_plda_warns_when_within_class_scatter_is_singular(capsys, tmp_path, n_rows,
                                                              warned):
    """12 speakers in 64 dimensions: 48 embeddings (the fingerprint's sizes) and 75
    leave fewer than 64 within-class degrees of freedom and a warning, 76 leave 64
    and none.  The model is written either way."""
    rng = np.random.default_rng(4)
    centers = 3.0 * rng.standard_normal((12, 64))
    emb = {f"s{i % 12:02d}u{i}": centers[i % 12] + rng.standard_normal(64)
           for i in range(n_rows)}
    fm.write_embeddings(tmp_path / "emb.bin", emb)
    fm.write_utt2spk(tmp_path / "utt2spk.txt", {utt: utt[:3] for utt in emb})
    code, _, err = run(capsys, "backend-train", "--kind", "lda-plda",
                       "--embeddings", str(tmp_path / "emb.bin"),
                       "--utt2spk", str(tmp_path / "utt2spk.txt"),
                       "--out", str(tmp_path / "plda.bin"), "--lda-dim", "8",
                       "--em-iters", "2")
    assert code == 0 and (tmp_path / "plda.bin").exists()
    assert err == (f"spkver: warning: {tmp_path / 'emb.bin'}: {n_rows} embeddings of 12 "
                   f"speakers leave {n_rows - 12} within-class degrees of freedom for 64 "
                   f"dimensions, so the within-class scatter is singular\n" if warned else "")


EMBEDDING_COMMANDS = pytest.mark.parametrize("argv", [
    ["backend-train", "--kind", "lda-plda"], ["backend-train", "--kind", "csml"],
    ["score", "--backend", "cosine"], ["score", "--backend", "csml"],
    ["score", "--backend", "plda"],
], ids=["lda-plda", "csml", "score-cosine", "score-csml", "score-plda"])


@EMBEDDING_COMMANDS
def test_non_finite_embedding_exits_2_naming_file_and_utterance(capsys, tmp_path, argv):
    """Backend training and scoring stack embeddings through one check, which
    names the archive and the utterance: no model is fitted on a NaN and no
    score is left to fail as merely non-finite."""
    emb = _random_embeddings()
    emb["s2u3"][5] = np.nan
    emb_path = tmp_path / "emb.bin"
    fm.write_embeddings(emb_path, emb)
    code, err = _run_on_embeddings(capsys, tmp_path, argv, emb_path)
    assert code == 2
    assert err == f"spkver: {emb_path}: embedding of 's2u3' holds a non-finite value\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the norm of 1e200 overflows
def test_finite_float64_embedding_past_overflow_is_not_called_non_finite(capsys, tmp_path):
    """A float64 archive may hold a finite entry whose square overflows; the row's
    sum of squares is then inf, but the embedding is finite and is scored."""
    emb = _random_embeddings()
    emb["s2u3"][5] = 1e200
    emb_path = tmp_path / "emb.bin"
    fm.write_archive(emb_path, emb, {"kind": "embeddings", "dim": 8}, dtype="f8")
    (tmp_path / "t.txt").write_text("s0u0 s1u1 target\ns0u0 s2u3 nontarget\n")
    code, out, err = run(capsys, "score", "--backend", "cosine", "--embeddings", str(emb_path),
                         "--trials", str(tmp_path / "t.txt"), "--out", str(tmp_path / "s.txt"))
    assert (code, err) == (0, "")
    assert mt.parse_scores((tmp_path / "s.txt").read_text()).scores.size == 2


@EMBEDDING_COMMANDS
@pytest.mark.parametrize("bad,message", [
    (np.ones((8, 1)), "has shape (8, 1), not (dim,)"),
    (None, "has shape (), not (dim,)"),
    (np.ones(7), "has 7 entries, that of 's0u0' 8"),
], ids=["2-D", "0-D", "shorter"])
def test_malformed_embedding_exits_2_naming_file_and_utterance(capsys, tmp_path, argv, bad,
                                                               message):
    """An embedding that is not 1-D, or not as long as the first, is refused
    when the archive is read, naming the archive and the utterance."""
    emb = _random_embeddings()
    emb["s2u3"] = np.ones(1) if bad is None else bad
    emb_path = tmp_path / "emb.bin"
    fm.write_archive(emb_path, emb, {"kind": "embeddings", "dim": 8}, dtype="f4")
    if bad is None:         # rank 0: the 1-entry record's header loses its one dimension
        header = b"s2u3" + struct.pack("<BI", 0, 1)
        emb_path.write_bytes(emb_path.read_bytes().replace(header + struct.pack("<Q", 1),
                                                           b"s2u3" + struct.pack("<BI", 0, 0)))
    code, err = _run_on_embeddings(capsys, tmp_path, argv, emb_path)
    assert code == 2
    assert err == f"spkver: {emb_path}: embedding of 's2u3' {message}\n"


def _random_embeddings():
    """30 embeddings of 8 entries: utterance s<speaker>u<index>, 6 speakers."""
    rng = np.random.default_rng(3)
    return {f"s{s}u{u}": rng.standard_normal(8) for s in range(6) for u in range(5)}


def _run_on_embeddings(capsys, tmp_path, argv, emb_path):
    """(exit code, stderr) of ``argv`` on ``emb_path``, given the speakers of
    ``_random_embeddings`` or trials of s0u0, s1u1 and s2u3 and, to score, a
    model; nothing may be written to ``--out``."""
    out = tmp_path / "out.bin"
    if argv[0] == "backend-train":
        emb = _random_embeddings()
        fm.write_utt2spk(tmp_path / "utt2spk.txt", {utt: utt.split("u")[0] for utt in emb})
        extra = ["--utt2spk", str(tmp_path / "utt2spk.txt")]
    else:
        (tmp_path / "t.txt").write_text("s0u0 s1u1 target\ns0u0 s2u3 nontarget\n")
        extra = ["--trials", str(tmp_path / "t.txt")]
        models = {"csml": bk.CsmlTransform(np.eye(8)),
                  "plda": bk.PldaModel(np.zeros(8), np.eye(8), np.eye(8))}
        if argv[-1] in models:
            bk.save_backend(tmp_path / "model.bin", models[argv[-1]])
            extra += ["--model", str(tmp_path / "model.bin")]
    code, _, err = run(capsys, *argv, "--embeddings", str(emb_path), *extra,
                       "--out", str(out))
    assert not out.exists()
    return code, err


def test_score_blocks_cross_boundaries_and_match_library(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(bk, "SCORE_BLOCK", 7)      # 277 trials: 39 full blocks and 4
    embeddings, trials, models = _score_all_backends(capsys, tmp_path)
    assert len(trials) % 7 != 0 and len(trials) > 7
    _assert_scores_match_library(tmp_path, embeddings, trials, models)


def test_gradcheck_subcommand_quick(capsys):
    code, out, err = run(capsys, "gradcheck", "--samples", "1")
    assert code == 0, err
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_gradcheck_without_a_sample_exits_2_naming_the_option(capsys, samples):
    """A check that probes no entry would pass vacuously."""
    code, out, err = run(capsys, "gradcheck", "--samples", samples)
    assert code == 2 and out == ""
    assert err == f"spkver: --samples {samples}: needs at least 1\n"


def test_gradcheck_negative_seed_exits_2_naming_the_option(capsys):
    code, out, err = run(capsys, "gradcheck", "--seed", "-1")
    assert code == 2 and out == ""
    assert err == "spkver: --seed -1: needs at least 0\n"


def test_gradcheck_frames_is_a_usage_error(capsys):
    """The full-net checks take the segment length from the model."""
    code, out, err = run(capsys, "gradcheck", "--frames", "50")
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == "spkver: error: unrecognized arguments: --frames 50"


def test_gradcheck_full_nets_differentiate_the_training_loss(capsys, monkeypatch):
    """The full-net checks go through ``training.batch_loss``: one softmax
    segment per call, for both stacks as ``training.build_model`` builds them,
    of receptive field + 8 frames of ``in_dim`` features."""
    calls, batch_loss = [], tr.batch_loss

    def spy(model, segments, labels, cfg, lam):
        assert cfg.arch == model.arch and segments[0].shape == (md.receptive_field(model) + 8,
                                                               model.in_dim)
        calls.append((model.arch, len(segments), cfg.loss, lam))
        return batch_loss(model, segments, labels, cfg, lam)
    monkeypatch.setattr(tr, "batch_loss", spy)
    code, out, err = run(capsys, "gradcheck", "--samples", "1")
    assert code == 0, err
    assert "PASS maxpool_net" in out and "PASS res_net" in out
    assert {arch for arch, *_ in calls} == {"maxpool", "resnet"}
    assert {tuple(rest) for _, *rest in calls} == {(1, "softmax", 0.0)}


def test_score_requires_model_for_csml(capsys, tmp_path):
    emb_path = tmp_path / "emb.bin"
    fm.write_embeddings(emb_path, {"a": np.ones(3), "b": np.ones(3)})
    trials_path = tmp_path / "t.txt"
    trials_path.write_text("a b target\n")
    code, _, err = run(capsys, "score", "--backend", "csml",
                       "--embeddings", str(emb_path), "--trials", str(trials_path),
                       "--out", str(tmp_path / "s.txt"))
    assert code == 2 and "--model" in err


def test_score_names_only_the_missing_utterance(capsys, tmp_path):
    emb_path = tmp_path / "emb.bin"
    fm.write_embeddings(emb_path, {"alpha": np.ones(3), "beta": np.arange(3.0)})
    trials_path = tmp_path / "t.txt"
    trials_path.write_text("alpha beta nontarget\nalpha ghost target\n")
    code, _, err = run(capsys, "score", "--backend", "cosine",
                       "--embeddings", str(emb_path), "--trials", str(trials_path),
                       "--out", str(tmp_path / "s.txt"))
    assert code == 2
    assert "'ghost'" in err and "alpha" not in err


def test_score_unknown_trial_utterance_names_the_trials_and_the_archive(capsys, tmp_path):
    emb_path = tmp_path / "emb.bin"
    fm.write_embeddings(emb_path, {"alpha": np.ones(3), "beta": np.arange(3.0)})
    trials_path = tmp_path / "t.txt"
    trials_path.write_text("alpha beta nontarget\nbeta ghost target\n")
    code, _, err = run(capsys, "score", "--backend", "cosine",
                       "--embeddings", str(emb_path), "--trials", str(trials_path),
                       "--out", str(tmp_path / "s.txt"))
    assert code == 2
    assert err == (f"spkver: {trials_path}: trial references utterance 'ghost', which "
                   f"{emb_path} does not hold\n")
    assert not (tmp_path / "s.txt").exists()


@pytest.mark.parametrize("argv,used", [
    (["score", "--backend", "cosine"], {"s0u0", "s1u1", "s2u3"}),
    (["backend-train", "--kind", "lda-plda"], {f"s{s}u{u}" for s in range(4) for u in range(5)}),
], ids=["score", "backend-train"])
def test_commands_read_only_the_embeddings_they_use(capsys, tmp_path, monkeypatch, argv, used):
    """``score`` reads the payloads of the utterances its trials name, and
    ``backend-train`` those its utt2spk names; the archive's other records come
    back as read-only placeholders."""
    emb = _random_embeddings()
    emb_path = tmp_path / "emb.bin"
    fm.write_embeddings(emb_path, emb)
    fm.write_utt2spk(tmp_path / "utt2spk.txt", {utt: utt.split("u")[0] for utt in used})
    (tmp_path / "t.txt").write_text("s0u0 s1u1 target\ns0u0 s2u3 nontarget\n")
    extra = {"score": ["--trials", str(tmp_path / "t.txt")],
             "backend-train": ["--utt2spk", str(tmp_path / "utt2spk.txt")]}[argv[0]]
    read_archive, read = fm.read_archive, []

    def spy(*args, **kwargs):
        arrays, meta = read_archive(*args, **kwargs)
        read.append({name for name, array in arrays.items() if array.flags.writeable})
        return arrays, meta
    monkeypatch.setattr(fm, "read_archive", spy)
    code, _, err = run(capsys, *argv, "--embeddings", str(emb_path), *extra,
                       "--out", str(tmp_path / "out"))
    assert code == 0, err
    assert read == [used]


@pytest.mark.parametrize("backend", ["cosine", "csml", "plda"])
@pytest.mark.parametrize("fault,message", [
    ("cut", "truncated archive"),
    ("code", "record 's5u4' has unknown dtype code 7"),
    ("2-D", "embedding of 's5u4' has shape (8, 1), not (dim,)"),
])
def test_score_checks_records_no_trial_names(capsys, tmp_path, backend, fault, message):
    """A fault in the last record, which no trial names, still exits 2 naming the
    archive: its payload is not read, but its header is checked."""
    emb = _random_embeddings()
    if fault == "2-D":
        emb["s5u4"] = np.ones((8, 1))
    emb_path = tmp_path / "emb.bin"
    fm.write_archive(emb_path, emb, {"kind": "embeddings", "dim": 8}, dtype="f4")
    blob = emb_path.read_bytes()
    code_at = blob.index(b"s5u4") + len("s5u4")
    if fault == "cut":                  # past the header, inside the 32-byte payload
        emb_path.write_bytes(blob[:code_at + 5 + 8 + 16])
    elif fault == "code":
        emb_path.write_bytes(blob[:code_at] + b"\x07" + blob[code_at + 1:])
    code, err = _run_on_embeddings(capsys, tmp_path, ["score", "--backend", backend], emb_path)
    assert code == 2
    assert err == f"spkver: {emb_path}: {message}\n"


def test_score_malformed_trial_file_exits_2_naming_it(capsys, tmp_path):
    emb_path = tmp_path / "emb.bin"
    fm.write_embeddings(emb_path, {"a": np.ones(3), "b": np.arange(3.0)})
    trials_path = tmp_path / "t.txt"
    trials_path.write_text("a b target\na b maybe\n")
    code, _, err = run(capsys, "score", "--backend", "cosine",
                       "--embeddings", str(emb_path), "--trials", str(trials_path),
                       "--out", str(tmp_path / "s.txt"))
    assert code == 2 and f"spkver: {trials_path}: line 2: expected" in err


@pytest.mark.parametrize("backend,model", [
    ("csml", bk.CsmlTransform(np.eye(3))),
    ("plda", bk.PldaModel(np.zeros(2), np.eye(2), np.eye(2),
                          lda=bk.LdaProjection(np.eye(2, 3), np.ones(2)))),
    ("plda", bk.PldaModel(np.zeros(3), np.eye(3), np.eye(3))),
], ids=["csml", "plda-lda", "plda"])
def test_score_model_of_other_width_exits_2_naming_it(capsys, tmp_path, backend, model):
    emb_path = tmp_path / "emb.bin"
    fm.write_embeddings(emb_path, {"a": np.arange(1.0, 5.0), "b": np.ones(4)})
    trials_path = tmp_path / "t.txt"
    trials_path.write_text("a b nontarget\n")
    model_path = tmp_path / "model.bin"
    bk.save_backend(model_path, model)
    code, _, err = run(capsys, "score", "--backend", backend, "--model", str(model_path),
                       "--embeddings", str(emb_path), "--trials", str(trials_path),
                       "--out", str(tmp_path / "s.txt"))
    assert code == 2
    assert f"spkver: {model_path}: model input width 3 differs from embedding width 4" in err


@pytest.mark.parametrize("backend", ["cosine", "csml", "plda"])
def test_score_zero_norm_embedding_exits_2(capsys, tmp_path, backend):
    emb_path = tmp_path / "emb.bin"
    fm.write_embeddings(emb_path, {"a": np.array([1.0, 2.0, 0.5]), "z": np.zeros(3)})
    trials_path = tmp_path / "t.txt"
    trials_path.write_text("a z nontarget\n")
    models = {"csml": bk.CsmlTransform(np.eye(3)),
              "plda": bk.PldaModel(np.zeros(3), np.eye(3), np.eye(3))}
    extra = []
    if backend in models:
        bk.save_backend(tmp_path / "model.bin", models[backend])
        extra = ["--model", str(tmp_path / "model.bin")]
    code, _, err = run(capsys, "score", "--backend", backend, *extra,
                       "--embeddings", str(emb_path), "--trials", str(trials_path),
                       "--out", str(tmp_path / "s.txt"))
    assert code == 2
    assert err == f"spkver: {emb_path}: degenerate embedding: zero norm, utterance 'z'\n"
    assert not (tmp_path / "s.txt").exists()


@pytest.mark.parametrize("kind", ["csml", "lda-plda"])
def test_backend_train_zero_norm_embedding_exits_2(capsys, tmp_path, kind):
    emb_path, out = tmp_path / "emb.bin", tmp_path / "model.bin"
    rng = np.random.default_rng(4)
    embeddings = {f"s{s}u{u}": rng.standard_normal(3) for s in range(4) for u in range(3)}
    embeddings["s2u1"] = np.zeros(3)
    fm.write_embeddings(emb_path, embeddings)
    (tmp_path / "utt2spk.txt").write_text("".join(f"{u} {u[:2]}\n" for u in embeddings))
    code, _, err = run(capsys, "backend-train", "--kind", kind, "--embeddings", str(emb_path),
                       "--utt2spk", str(tmp_path / "utt2spk.txt"), "--out", str(out))
    assert code == 2
    assert err == f"spkver: {emb_path}: degenerate embedding: zero norm, utterance 's2u1'\n"
    assert not out.exists()


@pytest.mark.parametrize("utt2spk,n_spk,largest", [
    ("s0u0 s0\n", 1, 1),
    ("s0u0 s0\ns0u1 s0\n", 1, 2),
    ("s0u0 s0\ns1u0 s1\ns2u0 s2\n", 3, 1),
], ids=["one-utterance", "one-speaker", "singletons"])
@pytest.mark.parametrize("kind", ["csml", "lda-plda"])
def test_backend_train_without_both_trial_kinds_exits_2_naming_the_labels(
        capsys, tmp_path, kind, utt2spk, n_spk, largest):
    """Labels that give no target or no nontarget trial fit no backend: the utt2spk
    file is named, with its speaker count and largest speaker, before any warning."""
    emb_path, out = tmp_path / "emb.bin", tmp_path / "model.bin"
    rng = np.random.default_rng(5)
    fm.write_embeddings(emb_path, {f"s{s}u{u}": rng.standard_normal(4)
                                   for s in range(3) for u in range(2)})
    (tmp_path / "utt2spk.txt").write_text(utt2spk)
    code, out_text, err = run(capsys, "backend-train", "--kind", kind,
                              "--embeddings", str(emb_path),
                              "--utt2spk", str(tmp_path / "utt2spk.txt"), "--out", str(out))
    assert code == 2 and out_text == ""
    assert err == (f"spkver: {tmp_path / 'utt2spk.txt'}: the labeled embeddings are of "
                   f"{n_spk} speaker(s), the largest with {largest} embedding(s): a backend "
                   f"needs target and nontarget trials, so 2 speakers, one with 2 embeddings\n")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["csml", "lda-plda"])
def test_backend_train_without_labeled_embeddings_names_both_files(capsys, tmp_path, kind):
    emb_path, utt2spk_path = tmp_path / "emb.bin", tmp_path / "utt2spk.txt"
    fm.write_embeddings(emb_path, {"a": np.ones(3), "b": np.arange(3.0)})
    utt2spk_path.write_text("c s0\nd s1\n")
    code, _, err = run(capsys, "backend-train", "--kind", kind, "--embeddings", str(emb_path),
                       "--utt2spk", str(utt2spk_path), "--out", str(tmp_path / "model.bin"))
    assert code == 2
    assert err == (f"spkver: no labeled embeddings found: no utterance of {emb_path} "
                   f"is in {utt2spk_path}\n")


def _jittered_rows(jitter):
    """6 speakers x 4 copies of one 16-d row, each plus ``jitter`` times white noise."""
    rng = np.random.default_rng(6)
    row = rng.standard_normal(16)
    return {f"s{s}u{u}": row + jitter * rng.standard_normal(16)
            for s in range(6) for u in range(4)}


@pytest.mark.parametrize("jitter", [0.0, 1e-7], ids=["identical", "jitter-1e-7"])
@pytest.mark.parametrize("kind", ["csml", "lda-plda"])
def test_backend_train_refuses_collapsed_embeddings_naming_the_archive(capsys, tmp_path, kind,
                                                                       jitter):
    """Rows that all point one way, as a dead or diverged extractor gives, fit
    no backend: the archive and its spread are named."""
    emb_path, out = tmp_path / "emb.bin", tmp_path / "model.bin"
    embeddings = _jittered_rows(jitter)
    fm.write_embeddings(emb_path, embeddings)
    (tmp_path / "utt2spk.txt").write_text("".join(f"{u} {u[:2]}\n" for u in embeddings))
    code, _, err = run(capsys, "backend-train", "--kind", kind, "--embeddings", str(emb_path),
                       "--utt2spk", str(tmp_path / "utt2spk.txt"), "--out", str(out))
    stored = fm.read_embeddings(emb_path)
    spread = bk.spread(np.stack([stored[u] for u in sorted(stored)]))
    assert code == 2 and spread < bk.SPREAD_FLOOR
    assert err == (f"spkver: {emb_path}: collapsed embeddings: the length-normalised rows "
                   f"have spread {spread:.3g}, below 1e-10\n")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["csml", "lda-plda"])
def test_backend_train_accepts_a_small_but_real_spread(capsys, tmp_path, kind):
    embeddings = _jittered_rows(1.2e-3)
    assert 1e-7 < bk.spread(np.stack(list(embeddings.values()))) < 1e-5
    fm.write_embeddings(tmp_path / "emb.bin", embeddings)
    (tmp_path / "utt2spk.txt").write_text("".join(f"{u} {u[:2]}\n" for u in embeddings))
    code, _, err = run(capsys, "backend-train", "--kind", kind,
                       "--embeddings", str(tmp_path / "emb.bin"),
                       "--utt2spk", str(tmp_path / "utt2spk.txt"),
                       "--out", str(tmp_path / "model.bin"), "--epochs", "2")
    assert code == 0, err
    assert (tmp_path / "model.bin").exists()


@pytest.mark.parametrize("same_frames", [True, False], ids=["collapsed", "spread"])
def test_extract_warns_when_its_embeddings_collapse(capsys, tmp_path, same_frames):
    """Three utterances with one feature matrix give three equal embeddings:
    the archive is still written, with a warning naming it."""
    rng = np.random.default_rng(2)
    frames = rng.standard_normal((120, 23))
    feats = {f"u{i}": frames if same_frames else rng.standard_normal((120, 23))
             for i in range(3)}
    fm.write_features(tmp_path / "feats.bin", feats, 10.0)
    fm.save_checkpoint(tmp_path / "m.ckpt", md.build_maxpool_net(n_spk=3, width_scale=0.125),
                       step=0, epoch=0, config_hash="")
    out = tmp_path / "emb.bin"
    code, _, err = run(capsys, "extract", "--checkpoint", str(tmp_path / "m.ckpt"),
                       "--features", str(tmp_path / "feats.bin"), "--out", str(out))
    stored = fm.read_embeddings(out)
    assert code == 0 and set(stored) == set(feats)
    spread = bk.spread(list(stored.values()))
    assert (spread < bk.SPREAD_FLOOR) == same_frames
    warned = [line for line in err.splitlines() if "collapsed" in line]
    assert warned == ([f"spkver: warning: {out}: collapsed embeddings: the length-normalised "
                       f"rows have spread {spread:.3g}, below 1e-10"] if same_frames else [])


def _two_utterance_inputs(tmp_path):
    emb_path = tmp_path / "emb.bin"
    fm.write_embeddings(emb_path, {"a": np.array([1.0, 2.0]), "b": np.array([2.0, 1.0])})
    trials_path = tmp_path / "t.txt"
    trials_path.write_text("a b nontarget\n")
    return emb_path, trials_path


def test_score_center_without_mean_exits_2(capsys, tmp_path):
    emb_path, trials_path = _two_utterance_inputs(tmp_path)
    center_path = tmp_path / "avg.bin"
    fm.write_archive(center_path, {"avg": np.zeros(2)}, None, dtype="f8")
    code, _, err = run(capsys, "score", "--backend", "cosine", "--center", str(center_path),
                       "--embeddings", str(emb_path), "--trials", str(trials_path),
                       "--out", str(tmp_path / "s.txt"))
    assert code == 2
    assert "avg.bin" in err and "'mean'" in err and "Traceback" not in err


def test_score_center_mean_of_wrong_length_names_file_and_lengths(capsys, tmp_path):
    emb_path, trials_path = _two_utterance_inputs(tmp_path)
    center_path = tmp_path / "dev_mean.bin"
    fm.write_archive(center_path, {"mean": np.zeros(3)}, None, dtype="f8")
    code, _, err = run(capsys, "score", "--backend", "cosine", "--center", str(center_path),
                       "--embeddings", str(emb_path), "--trials", str(trials_path),
                       "--out", str(tmp_path / "s.txt"))
    assert code == 2
    assert err.strip() == f"spkver: {center_path}: mean has 3 entries, embeddings have 2"
    assert not (tmp_path / "s.txt").exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_score_center_non_finite_mean_names_file_and_array(capsys, tmp_path, bad):
    emb_path, trials_path = _two_utterance_inputs(tmp_path)
    center_path = tmp_path / "dev_mean.bin"
    fm.write_archive(center_path, {"mean": np.array([bad, 0.0])}, None, dtype="f8")
    code, _, err = run(capsys, "score", "--backend", "cosine", "--center", str(center_path),
                       "--embeddings", str(emb_path), "--trials", str(trials_path),
                       "--out", str(tmp_path / "s.txt"))
    assert code == 2
    assert err == f"spkver: {center_path}: array mean holds a non-finite value\n"
    assert not (tmp_path / "s.txt").exists()


@pytest.mark.parametrize("backend,arrays,missing", [
    ("csml", {"matrix": np.eye(2)}, "transform"),
    ("plda", {"mean": np.zeros(2), "between": np.eye(2)}, "within"),
    ("plda", {"mean": np.zeros(2), "between": np.eye(2), "within": np.eye(2),
              "lda": np.eye(2)}, "lda_eigenvalues"),
    ("plda", {"mean": np.zeros(2), "between": np.eye(2), "within": np.eye(2)},
     "length_norm"),
])
def test_score_model_missing_array_exits_2(capsys, tmp_path, backend, arrays, missing):
    emb_path, trials_path = _two_utterance_inputs(tmp_path)
    model_path = tmp_path / "model.bin"
    meta = {"kind": backend, "length_norm": True}
    meta.pop(missing, None)             # a missing metadata key rather than an array
    fm.write_archive(model_path, arrays, meta, dtype="f8")
    with pytest.raises(ValueError,
                       match=f"model.bin: .* lacks (array\\(s\\)|metadata key) {missing}$"):
        bk.load_backend(model_path, backend)
    code, _, err = run(capsys, "score", "--backend", backend, "--model", str(model_path),
                       "--embeddings", str(emb_path), "--trials", str(trials_path),
                       "--out", str(tmp_path / "s.txt"))
    assert code == 2 and missing in err and not (tmp_path / "s.txt").exists()


@pytest.mark.parametrize("value", ["no", None, 1], ids=["string", "null", "int"])
def test_score_plda_length_norm_not_a_bool_exits_2_naming_the_key(capsys, tmp_path, value):
    """Only a JSON bool switches length normalisation: "no" would switch it on
    and null off."""
    emb_path, trials_path = _two_utterance_inputs(tmp_path)
    model_path = tmp_path / "plda.bin"
    fm.write_archive(model_path, {"mean": np.zeros(2), "between": np.eye(2),
                                  "within": np.eye(2)},
                     {"kind": "plda", "length_norm": value}, dtype="f8")
    code, _, err = run(capsys, "score", "--backend", "plda", "--model", str(model_path),
                       "--embeddings", str(emb_path), "--trials", str(trials_path),
                       "--out", str(tmp_path / "s.txt"))
    assert code == 2
    assert err == (f"spkver: {model_path}: metadata key length_norm holds {value!r}, "
                   f"not true or false\n")
    assert not (tmp_path / "s.txt").exists()


def test_score_truncated_embeddings_exits_2(capsys, tmp_path):
    emb_path, trials_path = _two_utterance_inputs(tmp_path)
    emb_path.write_bytes(emb_path.read_bytes()[:40])
    code, _, err = run(capsys, "score", "--backend", "cosine",
                       "--embeddings", str(emb_path), "--trials", str(trials_path),
                       "--out", str(tmp_path / "s.txt"))
    assert code == 2 and "emb.bin: truncated archive" in err


def _plda_arrays():
    """A valid 3-dimensional PLDA model over 2-dimensional embeddings."""
    return {"mean": np.zeros(3), "between": np.diag([1.0, 2.0, 3.0]),
            "within": np.eye(3) + 0.1, "lda": np.arange(6.0).reshape(3, 2) - 2.0,
            "lda_eigenvalues": np.array([3.0, 2.0, 1.0])}


@pytest.mark.parametrize("name,edit", [
    ("within", lambda a: -np.eye(3)),
    ("between", lambda a: a + np.triu(np.ones_like(a), 1)),
    ("between", lambda a: a[:2, :2]),
    ("mean", lambda a: a[:2]),
    ("lda", lambda a: a[:2]),
    ("between", lambda a: a * np.array([1.0, np.nan, 1.0])),
], ids=["within-negative-definite", "between-asymmetric", "between-too-small",
        "mean-too-short", "lda-too-few-rows", "between-nan"])
def test_score_malformed_plda_model_exits_2(capsys, tmp_path, name, edit):
    emb_path, trials_path = _two_utterance_inputs(tmp_path)
    model_path = tmp_path / "plda.bin"
    arrays = _plda_arrays()
    argv = ["score", "--backend", "plda", "--model", str(model_path),
            "--embeddings", str(emb_path), "--trials", str(trials_path),
            "--out", str(tmp_path / "s.txt")]
    fm.write_archive(model_path, arrays, {"kind": "plda", "length_norm": True}, dtype="f8")
    assert run(capsys, *argv)[0] == 0
    (tmp_path / "s.txt").unlink()
    arrays[name] = edit(arrays[name])
    fm.write_archive(model_path, arrays, {"kind": "plda", "length_norm": True}, dtype="f8")
    code, _, err = run(capsys, *argv)
    assert code == 2 and f"spkver: {model_path}: array {name} " in err
    assert not (tmp_path / "s.txt").exists()


@pytest.mark.parametrize("transform,message", [
    (np.diag([1.0, np.nan]), "array transform must be finite"),
    (np.array([[1.0, np.inf], [0.0, 1.0]]), "array transform must be finite"),
    (np.ones((2, 3)), "transform must be square"),
    (np.array([[1.0, 0.0], [0.5, 1.0]]), "transform must be upper triangular"),
    (np.diag([1.0, 0.0]), "transform diagonal must be positive"),
], ids=["nan-diagonal", "inf-above-diagonal", "not-square", "lower-entry", "zero-diagonal"])
def test_score_malformed_csml_model_exits_2(capsys, tmp_path, transform, message):
    emb_path, trials_path = _two_utterance_inputs(tmp_path)
    model_path, out = tmp_path / "csml.bin", tmp_path / "s.txt"
    argv = ["score", "--backend", "csml", "--model", str(model_path),
            "--embeddings", str(emb_path), "--trials", str(trials_path), "--out", str(out)]
    fm.write_archive(model_path, {"transform": np.eye(2)}, {"kind": "csml"}, dtype="f8")
    assert run(capsys, *argv)[0] == 0
    out.unlink()
    fm.write_archive(model_path, {"transform": transform}, {"kind": "csml"}, dtype="f8")
    code, _, err = run(capsys, *argv)
    assert code == 2 and err == f"spkver: {model_path}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["config_hash", "step", "epoch", "rng_state"])
def test_resume_checkpoint_missing_metadata_key_exits_2(capsys, toy_dir, tmp_path, key):
    corpus = toy_dir / "corpus"
    cfg_path = tmp_path / "exp.ini"
    write_toy_config(cfg_path, epochs=0)
    ckpt = tmp_path / "init.ckpt"
    train = ["train", "--config", str(cfg_path), "--features", str(corpus / "feats.bin"),
             "--utt2spk", str(corpus / "utt2spk.txt")]
    resume = [*train, "--out", str(tmp_path / "next.ckpt"), "--resume", str(ckpt)]
    code, _, err = run(capsys, *train, "--out", str(ckpt))
    assert code == 0, err
    assert run(capsys, *resume)[0] == 0
    arrays, meta = fm.read_archive(ckpt)
    del meta[key]
    fm.write_archive(ckpt, arrays, meta, dtype="f4")
    code, _, err = run(capsys, *resume)
    assert code == 2
    assert f"spkver: {ckpt}: checkpoint lacks metadata key {key}" in err


RESUME_META_EDITS = {
    "list-rng_state": ("rng_state", lambda meta: meta.update(rng_state=[1, 2])),
    "list-extra": ("extra", lambda meta: meta.update(extra=[1])),
    "string-history": ("extra.history", lambda meta: meta["extra"].update(history="epoch 0")),
    "string-best_val_eer": ("extra.best_val_eer",
                            lambda meta: meta["extra"].update(best_val_eer="0.2")),
    "string-step": ("step", lambda meta: meta.update(step="x")),
    "fraction-step": ("step", lambda meta: meta.update(step=0.5)),
    "bool-step": ("step", lambda meta: meta.update(step=True)),
    "negative-epoch": ("epoch", lambda meta: meta.update(epoch=-3)),
}


@pytest.mark.parametrize("edit", RESUME_META_EDITS)
def test_resume_checkpoint_metadata_of_wrong_type_exits_2(capsys, toy_dir, tmp_path, edit):
    """``train --resume`` checks the types of the bookkeeping it restores, so a
    bad value exits 2 naming the file and the key instead of a traceback or a
    run that silently trains a different number of epochs."""
    write_toy_config(tmp_path / "exp.ini", epochs=2)
    train = train_argv(toy_dir / "corpus", tmp_path / "exp.ini")
    ckpt, out = tmp_path / "init.ckpt", tmp_path / "next.ckpt"
    assert run(capsys, *train, "--out", str(ckpt))[0] == 0
    arrays, meta = fm.read_archive(ckpt)
    meta["epoch"] = 1                           # one epoch left to resume
    key, apply_edit = RESUME_META_EDITS[edit]
    apply_edit(meta)
    fm.write_archive(ckpt, arrays, meta, dtype="f4")
    code, _, err = run(capsys, *train, "--resume", str(ckpt), "--out", str(out))
    assert code == 2
    assert err.startswith(f"spkver: {ckpt}: metadata key {key} "), err
    assert not out.exists()


@pytest.mark.parametrize("array", ["param.segment7.w", "momentum.frame1.b"])
@pytest.mark.parametrize("command", ["extract", "train-resume"])
def test_checkpoint_with_non_finite_array_exits_2_naming_file_and_array(
        capsys, toy_dir, tmp_path, command, array):
    """A NaN in an array a command reads stops it as the checkpoint loads,
    instead of writing NaN embeddings.  ``extract`` does not read the
    momenta, so a NaN there does not stop it."""
    corpus = toy_dir / "corpus"
    write_toy_config(tmp_path / "exp.ini", epochs=0)
    train = train_argv(corpus, tmp_path / "exp.ini")
    ckpt, out = tmp_path / "nan.ckpt", tmp_path / "out.bin"
    assert run(capsys, *train, "--out", str(ckpt))[0] == 0
    arrays, meta = fm.read_archive(ckpt)
    arrays[array].reshape(-1)[0] = np.nan
    fm.write_archive(ckpt, arrays, meta, dtype="f4")
    argv = (["extract", "--checkpoint", str(ckpt), "--features", str(corpus / "feats.bin")]
            if command == "extract" else [*train, "--resume", str(ckpt)])
    code, _, err = run(capsys, *argv, "--out", str(out))
    if command == "extract" and array.startswith("momentum."):
        assert code == 0, err
        assert np.isfinite(np.stack(list(fm.read_embeddings(out).values()))).all()
        return
    assert code == 2
    assert err == f"spkver: {ckpt}: array {array} holds a non-finite value\n"
    assert not out.exists()


@pytest.mark.parametrize("shift", ["missing", 0, "10", math.nan, True])
def test_feature_archive_with_bad_frame_shift_exits_2_naming_file_and_key(
        capsys, toy_dir, tmp_path, shift):
    """``frame_shift_ms`` sets the segment lengths in frames: a feature archive
    whose value is missing, not a number or not > 0 is refused as it is read."""
    corpus = toy_dir / "corpus"
    arrays, meta = fm.read_archive(corpus / "feats.bin")
    if shift == "missing":
        del meta["frame_shift_ms"]
    else:
        meta["frame_shift_ms"] = shift
    bad_path, out = tmp_path / "bad_feats.bin", tmp_path / "out.ckpt"
    fm.write_archive(bad_path, arrays, meta, dtype="f4")
    write_toy_config(tmp_path / "exp.ini")
    argv = train_argv(corpus, tmp_path / "exp.ini")
    argv[argv.index("--features") + 1] = str(bad_path)
    code, _, err = run(capsys, *argv, "--out", str(out))
    value = None if shift == "missing" else shift
    assert code == 2
    assert err == (f"spkver: {bad_path}: key frame_shift_ms holds {value!r}, "
                   f"not a finite number > 0\n")
    assert not out.exists()


def test_resume_with_best_out_that_no_epoch_beats_exits_2(capsys, toy_dir, tmp_path):
    """A resumed run none of whose epochs beats the restored best validation
    EER writes ``--out``, then fails naming ``--best-out`` and that EER."""
    write_toy_config(tmp_path / "exp.ini", epochs=3, val_fraction=0.34)
    train = train_argv(toy_dir / "corpus", tmp_path / "exp.ini")
    full, best, resumed, unwritten = (tmp_path / f"{n}.ckpt"
                                      for n in ("full", "best", "resumed", "unwritten"))
    assert run(capsys, *train, "--out", str(full), "--best-out", str(best))[0] == 0
    meta = fm.load_checkpoint(best)[1]
    assert meta["epoch"] == 1                   # epochs 2 and 3 did not beat epoch 1
    code, out, err = run(capsys, *train, "--resume", str(best), "--out", str(resumed),
                         "--best-out", str(unwritten))
    assert code == 2
    assert f"spkver: --best-out {unwritten} not written" in err
    assert f"best_val_eer {meta['extra']['best_val_eer']:g} of {best}" in err
    assert resumed.read_bytes() == full.read_bytes()
    assert not unwritten.exists()


def _previous_format(arch):
    """The one-block res-net's record as the previous format wrote it: stack
    name, depth label, width scale and the expanded layer list."""
    arch.clear()
    arch.update(arch="resnet", depth_name="res-tdnn-6", width_scale=0.125, layers=[
        {"kind": "time_delay", "name": "frame1", "in_dim": 23, "out_dim": 16, "context": 3,
         "has_bias": True}])


ARCH_EDITS = {
    "unknown-arch": (lambda arch: arch.update(arch="tdnn"),
                     "architecture record: key arch holds 'tdnn', not one of maxpool, resnet"),
    "resnet-without-n_blocks": (lambda arch: arch.pop("n_blocks"),
                                "architecture record: missing key(s) n_blocks"),
    "maxpool-with-n_blocks": (lambda arch: arch.update(arch="maxpool"),
                              "architecture record: unknown key(s) n_blocks"),
    "zero-n_blocks": (lambda arch: arch.update(n_blocks=0), "n_blocks is 0, needs at least 1"),
    "bool-n_spk": (lambda arch: arch.update(n_spk=True),
                   "architecture record: key n_spk holds True, not int"),
    "one-speaker": (lambda arch: arch.update(n_spk=1), "n_spk is 1, needs at least 2"),
    "string-in_dim": (lambda arch: arch.update(in_dim="23"),
                      "architecture record: key in_dim holds '23', not int"),
    "string-width_scale": (lambda arch: arch.update(width_scale="0.125"),
                           "architecture record: key width_scale holds '0.125', not a number"),
    "inf-width_scale": (lambda arch: arch.update(width_scale=math.inf),
                        "width_scale is inf, not a finite positive number"),
    "nan-width_scale": (lambda arch: arch.update(width_scale=math.nan),
                        "width_scale is nan, not a finite positive number"),
    "zero-width_scale": (lambda arch: arch.update(width_scale=0),
                         "width_scale is 0, not a finite positive number"),
    "previous-format": (_previous_format,
                        "architecture record: unknown key(s) depth_name, layers"),
}


@pytest.mark.parametrize("command", ["extract", "resume"])
@pytest.mark.parametrize("edit", ARCH_EDITS)
def test_malformed_architecture_record_exits_2_naming_the_key(capsys, toy_dir, tmp_path,
                                                               edit, command):
    """``load_checkpoint`` checks the architecture record's keys, types and
    ranges, so every command that reads a checkpoint exits 2 naming the file
    and the key; records in the previous format are rejected the same way."""
    corpus = toy_dir / "corpus"
    write_toy_config(tmp_path / "exp.ini", arch="resnet", resnet_blocks=1, epochs=0)
    train = train_argv(corpus, tmp_path / "exp.ini")
    ckpt, out = tmp_path / "init.ckpt", tmp_path / "out.bin"
    assert run(capsys, *train, "--out", str(ckpt))[0] == 0
    arrays, meta = fm.read_archive(ckpt)
    apply_edit, message = ARCH_EDITS[edit]
    apply_edit(meta["arch"])
    fm.write_archive(ckpt, arrays, meta, dtype="f4")
    argv = (["extract", "--checkpoint", str(ckpt), "--features", str(corpus / "feats.bin")]
            if command == "extract" else [*train, "--resume", str(ckpt)])
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert f"spkver: {ckpt}: {message}" in err
    assert not out.exists()
