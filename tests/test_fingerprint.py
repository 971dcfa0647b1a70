"""Behaviour fingerprint: one tiny fixed-seed pipeline run through ``cli.main``.

Stages: mfcc (WAVs written here, with and without VAD) -> synth -> train
(max-pool A-softmax on the no-VAD MFCC features, whose digital-silence gaps
give runs of identical frames and so ties in every max pool; res-net softmax
on a synthetic corpus) -> extract -> backend-train (CSML, LDA-PLDA) -> score
(cosine, CSML, PLDA) -> eval.  The sha256 of every file a stage writes, and
the EER and minDCF of each backend, must equal ``tests/fingerprint.json``.

The values are bit-exact only for the numpy and BLAS build they were recorded
with; the file names those, and a different build fails with a message
naming both.  Regenerate the file only in a change whose ``CHANGES.md`` names
the entries that moved and why:

    PYTHONPATH=src python tests/test_fingerprint.py --write
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from spkver import formats as fm
from spkver.cli import main

FINGERPRINT = Path(__file__).with_name("fingerprint.json")
P_TARGETS = ["0.5", "0.25"]      # minDCF is below 1 at both for every backend
BACKENDS = ("cosine", "csml", "plda")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version')}",
            "machine": platform.machine()}


def cli(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code == 0, (argv[0], err.getvalue())


def write_recordings(wav_dir: Path):
    """4 speakers x 4 recordings of 2.5 s at 8 kHz: a speaker-specific pair of
    partials with a wobbling envelope and noise, and 0.4 s of exact zeros."""
    rate = 8000
    t = np.arange(int(2.5 * rate)) / rate
    utt2spk = {}
    for s in range(4):
        f0 = 140.0 + 45.0 * s
        for u in range(4):
            rng = np.random.default_rng([s, u])
            envelope = 0.5 + 0.4 * np.sin(2 * np.pi * (1.5 + 0.3 * u) * t + rng.uniform(0, 6))
            x = envelope * (0.3 * np.sin(2 * np.pi * f0 * t)
                            + 0.15 * np.sin(2 * np.pi * (5 + s) * f0 * t))
            x += 0.02 * rng.standard_normal(t.size)
            gap = int(rng.integers(rate // 2, rate * 3 // 2))
            x[gap:gap + int(0.4 * rate)] = 0.0
            name = f"w{s}_{u}"
            wavfile.write(wav_dir / f"{name}.wav", rate, (np.clip(x, -1, 1) * 32767).astype("<i2"))
            utt2spk[name] = f"w{s}"
    return utt2spk


def write_config(path, **settings):
    cfg = fm.ExperimentConfig(width_scale=0.125, learning_rate=0.05, batch_size=4, epochs=2,
                              steps_per_epoch=3, segment_min_s=0.5, segment_max_s=1.2,
                              val_fraction=0.5, seed=1, **settings)
    path.write_text(fm.dump_config(cfg))


def run_pipeline(work: Path) -> dict:
    wav_dir = work / "wav"
    wav_dir.mkdir()
    fm.write_utt2spk(work / "wav_utt2spk.txt", write_recordings(wav_dir))
    cli("mfcc", "--wav-dir", wav_dir, "--out", work / "feats_vad.bin")
    cli("mfcc", "--wav-dir", wav_dir, "--out", work / "feats_novad.bin", "--no-vad")
    cli("synth", "--out-dir", work / "train", "--n-speakers", 6, "--utts-per-speaker", 4,
        "--seconds", 2.0, "--seed", 3)
    cli("synth", "--out-dir", work / "eval", "--n-speakers", 16, "--utts-per-speaker", 4,
        "--seconds", 1.5, "--separation", 0.5, "--seed", 5, "--prefix", "ev")

    write_config(work / "maxpool.ini", arch="maxpool", loss="asoftmax", margin=2)
    write_config(work / "resnet.ini", arch="resnet", resnet_blocks=2, loss="softmax")
    cli("train", "--config", work / "maxpool.ini", "--features", work / "feats_novad.bin",
        "--utt2spk", work / "wav_utt2spk.txt", "--out", work / "maxpool.ckpt",
        "--best-out", work / "maxpool_best.ckpt")
    cli("train", "--config", work / "resnet.ini", "--features", work / "train" / "feats.bin",
        "--utt2spk", work / "train" / "utt2spk.txt", "--out", work / "resnet.ckpt")
    cli("extract", "--checkpoint", work / "maxpool.ckpt", "--features", work / "feats_vad.bin",
        "--out", work / "emb_maxpool.bin", "--manifest", work / "skipped_maxpool.txt")
    cli("extract", "--checkpoint", work / "resnet.ckpt", "--features", work / "eval" / "feats.bin",
        "--out", work / "emb_resnet.bin", "--manifest", work / "skipped_resnet.txt")

    # speakers ev00-ev11 fit the backends; trials pair every two utterances of ev12-ev15
    utt2spk = fm.read_utt2spk(work / "eval" / "utt2spk.txt")
    dev_speakers = sorted(set(utt2spk.values()))[:12]
    fm.write_utt2spk(work / "dev_utt2spk.txt",
                     {u: s for u, s in utt2spk.items() if s in dev_speakers})
    probes = sorted(u for u, s in utt2spk.items() if s not in dev_speakers)
    (work / "trials.txt").write_text("".join(
        f"{a} {b} {'target' if utt2spk[a] == utt2spk[b] else 'nontarget'}\n"
        for i, a in enumerate(probes) for b in probes[i + 1:]))
    common = ["--embeddings", work / "emb_resnet.bin", "--utt2spk", work / "dev_utt2spk.txt"]
    cli("backend-train", "--kind", "csml", *common, "--out", work / "csml.bin",
        "--epochs", 3, "--n-hard", 20, "--max-triplets", 400, "--seed", 2)
    cli("backend-train", "--kind", "lda-plda", *common, "--out", work / "plda.bin",
        "--lda-dim", 8, "--em-iters", 5)
    metrics = {}
    for b in BACKENDS:
        model = [] if b == "cosine" else ["--model", work / f"{b}.bin"]
        cli("score", "--backend", b, "--embeddings", work / "emb_resnet.bin",
            "--trials", work / "trials.txt", "--out", work / f"scores_{b}.txt", *model)
        cli("eval", "--scores", work / f"scores_{b}.txt", "--p-target", *P_TARGETS,
            "--json", work / f"eval_{b}.json")
        metrics[b] = json.loads((work / f"eval_{b}.json").read_text())

    files = sorted(p for p in work.rglob("*") if p.is_file()
                   and p.suffix in (".bin", ".ckpt", ".txt", ".json"))
    return {"sha256": {p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in files},
            "metrics": metrics}


def test_pipeline_matches_committed_fingerprint(tmp_path):
    recorded = json.loads(FINGERPRINT.read_text())
    here = environment()
    if recorded["environment"] != here:
        pytest.fail(f"fingerprint recorded under {recorded['environment']}, running under "
                    f"{here}: outputs are bit-exact only on the recorded numpy/BLAS build; "
                    f"regenerate with 'PYTHONPATH=src python tests/test_fingerprint.py --write' "
                    f"on this build and say so in CHANGES.md")
    got = run_pipeline(tmp_path)
    moved = [f"{kind} {name}" for kind in ("sha256", "metrics")
             for name in sorted(recorded[kind].keys() | got[kind].keys())
             if recorded[kind].get(name) != got[kind].get(name)]
    assert not moved, "fingerprint entries moved: " + ", ".join(moved)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        result = run_pipeline(Path(tmp))
    FINGERPRINT.write_text(json.dumps({"environment": environment(), **result},
                                      indent=1, sort_keys=True) + "\n")
    print(f"wrote {FINGERPRINT}")
