"""Seeded input generators for the benchmark workloads.

Run as a script to write one workload's inputs into a directory:

    python3 perfbench/inputs.py --workload score --seed 3 --out DIR

The same (workload, seed) always gives byte-identical files.  The program
under test sees only these files.  Generators:

* ``synth_wav``: 8 kHz 16-bit speech-like recordings.  Each speaker is a
  source-filter voice (pulse-train source with its own pitch, spectral
  tilt and breathiness, shaped by vowel formants scaled by the speaker's
  vocal-tract factor).  Syllables are separated by near-silent gaps, so
  energy VAD drops frames; "short" clips hold a single brief syllable and
  are left below the extractor's receptive field by VAD.
* ``two_cov_embeddings``: embeddings from a two-covariance Gaussian model
  (speaker means with between-class covariance, plus within-class noise
  with a few strong nuisance directions), with a trial list holding every
  target pair and a fixed number of sampled non-target pairs.
* ``tied_scores``: a large score file whose scores are rounded so that
  many trials tie.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
from scipy.io import wavfile
from scipy.signal import lfilter

from plans import CHECKPOINT_SEED, PANEL_SEED, PLANS, SAMPLE_RATE, Plan

# Canonical (F1, F2, F3) of five vowels in Hz, and formant bandwidths.
VOWELS = np.array([[730.0, 1090.0, 2440.0], [270.0, 2290.0, 3010.0],
                   [300.0, 870.0, 2240.0], [530.0, 1840.0, 2480.0],
                   [570.0, 840.0, 2410.0]])
BANDWIDTHS = np.array([80.0, 110.0, 160.0])
NOISE_FLOOR = 3e-4


def speaker_panel(n: int, offset: int) -> list[dict]:
    """Fixed voices: pitch, vocal-tract scale, tilt, breathiness, vowel mix."""
    voices = []
    for s in range(n):
        rng = np.random.default_rng([PANEL_SEED, offset, s])
        voices.append({
            "f0": rng.uniform(90.0, 230.0),
            "formant_scale": rng.uniform(0.85, 1.15),
            "tilt": rng.uniform(0.6, 0.95),
            "breath": rng.uniform(0.02, 0.15),
            "vowel_mix": rng.dirichlet(np.full(len(VOWELS), 0.7)),
            "syllable_s": rng.uniform(0.15, 0.3),
        })
    return voices


def _resonate(signal: np.ndarray, freq: float, bandwidth: float) -> np.ndarray:
    r = np.exp(-np.pi * bandwidth / SAMPLE_RATE)
    theta = 2.0 * np.pi * freq / SAMPLE_RATE
    return lfilter([1.0 - r], [1.0, -2.0 * r * np.cos(theta), r * r], signal)


def _syllable(voice: dict, n: int, rng: np.random.Generator) -> np.ndarray:
    t = np.arange(n) / SAMPLE_RATE
    f0 = voice["f0"] * rng.uniform(0.92, 1.08) * (1.0 + 0.04 * np.sin(2 * np.pi * 3.0 * t))
    phase = np.cumsum(f0) / SAMPLE_RATE
    pulses = np.diff(np.floor(phase), prepend=0.0)
    source = lfilter([1.0], [1.0, -voice["tilt"]], pulses)
    source += voice["breath"] * rng.standard_normal(n)
    vowel = rng.choice(len(VOWELS), p=voice["vowel_mix"])
    formants = VOWELS[vowel] * voice["formant_scale"] * rng.uniform(0.97, 1.03, size=3)
    out = source
    for freq, bw in zip(np.minimum(formants, 0.45 * SAMPLE_RATE), BANDWIDTHS):
        out = _resonate(out, freq, bw)
    ramp = min(n // 2, int(0.01 * SAMPLE_RATE))
    env = np.ones(n)
    env[:ramp] = np.linspace(0.0, 1.0, ramp)
    env[n - ramp:] = np.linspace(1.0, 0.0, ramp)
    out = out * env
    return out / (np.abs(out).max() + 1e-12) * rng.uniform(0.5, 1.0)


def synth_wav(voice: dict, duration_s: float, rng: np.random.Generator,
              layout: np.random.Generator | None = None) -> np.ndarray:
    """One recording as int16 samples.

    ``layout`` draws where syllables and gaps fall, ``rng`` everything else.
    Without a layout the clip is "short": one brief syllable mid-clip.
    """
    n_total = int(round(duration_s * SAMPLE_RATE))
    audio = NOISE_FLOOR * rng.standard_normal(n_total)
    if layout is None:
        n = int(0.12 * SAMPLE_RATE)
        start = n_total // 2 - n // 2
        audio[start:start + n] += _syllable(voice, n, rng)
    else:
        pos = int(layout.uniform(0.05, 0.2) * SAMPLE_RATE)
        while True:
            n = int(voice["syllable_s"] * layout.uniform(0.6, 1.5) * SAMPLE_RATE)
            if pos + n > n_total:
                break
            audio[pos:pos + n] += _syllable(voice, n, rng)
            pos += n + int(layout.uniform(0.05, 0.35) * SAMPLE_RATE)
    gain = rng.uniform(0.3, 0.8) / (np.abs(audio).max() + 1e-12)
    return np.round(audio * gain * 32767.0).astype(np.int16)


def write_wavs(plan: Plan, seed: int, out: Path) -> dict:
    """All recordings of a workload; returns their durations and the short clips."""
    wp = plan.wav
    wav_dir = out / "wav"
    wav_dir.mkdir(parents=True)
    durations: dict[str, float] = {}
    short: list[str] = []
    for part, n_spk, n_utt, offset in (("dev", wp.n_dev_speakers, wp.dev_utts, 0),
                                       ("eval", wp.n_eval_speakers, wp.eval_utts, 1)):
        # Durations (a log-spaced ladder) and the syllable layout of each
        # recording are fixed like the speaker panel; the seed draws the
        # signal.  Every seed thus has the same audio length and nearly the
        # same frames left by VAD, so the frontend and extraction
        # throughputs do not move with the seed.
        ladder = np.geomspace(wp.min_s, wp.max_s, n_spk * n_utt)
        order = np.random.default_rng([PANEL_SEED, offset]).permutation(len(ladder))
        for s, voice in enumerate(speaker_panel(n_spk, offset)):
            spk = f"{part}-s{s:03d}"
            for u in range(n_utt):
                rng = np.random.default_rng([seed, offset, s, u])
                layout = np.random.default_rng([PANEL_SEED, offset, s, u])
                dur = float(ladder[order[s * n_utt + u]])
                utt = f"{spk}-u{u:02d}"
                wavfile.write(wav_dir / f"{utt}.wav", SAMPLE_RATE,
                              synth_wav(voice, dur, rng, layout))
                durations[utt] = dur
    eval_voices = speaker_panel(wp.n_eval_speakers, 1)
    for k in range(wp.n_short):
        rng = np.random.default_rng([seed, 2, k])
        utt = f"short-{k:02d}"
        voice = eval_voices[k % len(eval_voices)]
        wavfile.write(wav_dir / f"{utt}.wav", SAMPLE_RATE, synth_wav(voice, 2.0, rng))
        durations[utt] = 2.0
        short.append(utt)
    return {"durations": durations, "short": short}


def two_cov_embeddings(plan: Plan, seed: int, out: Path) -> dict:
    ep = plan.generated
    d = ep.dim
    # The model's covariances are fixed like the WAV speaker panel; the seed
    # draws speakers, utterances and trials.
    fixed = np.random.default_rng([PANEL_SEED, d])
    between = ep.between_scale * np.exp(-np.arange(d) / ep.speaker_rank)
    rotation = np.linalg.qr(fixed.standard_normal((d, d)))[0]
    nuisance = np.linalg.qr(fixed.standard_normal((d, 8)))[0] * np.sqrt(6.0)
    rng = np.random.default_rng([seed, 7])
    embeddings: dict[str, np.ndarray] = {}
    utt2spk: dict[str, str] = {}
    for part, n_spk, n_utt in (("dev", ep.n_dev_speakers, ep.dev_utts),
                               ("eval", ep.n_eval_speakers, ep.eval_utts)):
        for s in range(n_spk):
            spk = f"{part}-s{s:04d}"
            mean = rotation @ (np.sqrt(between) * rng.standard_normal(d))
            for u in range(n_utt):
                noise = rng.standard_normal(d) + nuisance @ rng.standard_normal(8)
                utt = f"{spk}-u{u:02d}"
                embeddings[utt] = mean + noise
                utt2spk[utt] = spk
    dev = {u: s for u, s in utt2spk.items() if u.startswith("dev-")}
    evals = sorted(u for u in utt2spk if u.startswith("eval-"))
    targets, nontargets = [], []
    for i, a in enumerate(evals):
        for b in evals[i + 1:]:
            (targets if utt2spk[a] == utt2spk[b] else nontargets).append((a, b))
    keep = np.sort(rng.choice(len(nontargets), size=ep.n_nontarget_trials, replace=False))
    pairs = sorted(targets + [nontargets[k] for k in keep])
    lines = [f"{a} {b} {'target' if utt2spk[a] == utt2spk[b] else 'nontarget'}\n"
             for a, b in pairs]
    (out / "emb_trials.txt").write_text("".join(lines))
    from spkver import formats as fm

    fm.write_utt2spk(out / "emb_dev_utt2spk.txt", dev)
    fm.write_embeddings(out / "embeddings.bin", embeddings)
    return {"n_embeddings": len(embeddings), "n_trials": len(lines)}


def tied_scores(n: int, seed: int, out: Path) -> dict:
    rng = np.random.default_rng([seed, 11])
    is_target = rng.random(n) < 0.1
    scores = np.round(rng.standard_normal(n) + 1.8 * is_target, 2)
    lines = [f"enr{i:06d} tst{i:06d} {'target' if t else 'nontarget'} {float(s)!r}\n"
             for i, (t, s) in enumerate(zip(is_target, scores))]
    (out / "tied_scores.txt").write_text("".join(lines))
    return {"n_trials": n, "n_distinct": int(np.unique(scores).size)}


def training_corpus(plan: Plan, seed: int, out: Path) -> dict:
    from spkver import formats as fm
    from spkver.corpus import SyntheticCorpusSpec, generate_synthetic_corpus

    tp = plan.train
    spec = SyntheticCorpusSpec(n_speakers=tp.n_speakers, utts_per_speaker=tp.utts_per_speaker,
                               utterance_s=tp.utterance_s, seed=seed)
    features, utt2spk = generate_synthetic_corpus(spec)
    fm.write_features(out / "corpus_feats.bin", features, spec.frame_shift_ms)
    fm.write_utt2spk(out / "corpus_utt2spk.txt", utt2spk)
    return {"n_utts": len(features), "n_speakers": tp.n_speakers}


def random_checkpoint(out: Path) -> None:
    """Fixed-seed, randomly initialised full-width res-tdnn-10."""
    from spkver import formats as fm
    from spkver import models as md

    model = md.build_res_net(3, 32, width_scale=1.0, seed=CHECKPOINT_SEED)
    fm.save_checkpoint(out / "random_resnet.ckpt", model, step=0, epoch=0,
                       config_hash="0" * 16)


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write every input file of ``workload`` into ``out``; return a manifest."""
    plan = PLANS[workload]
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed,
                "wav": write_wavs(plan, seed, out),
                "corpus": training_corpus(plan, seed, out),
                "embeddings": two_cov_embeddings(plan, seed, out)}
    if plan.generated.tied_trials:
        manifest["tied"] = tied_scores(plan.generated.tied_trials, seed, out)
    random_checkpoint(out)
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PLANS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
