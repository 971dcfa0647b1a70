"""Synthetic labeled corpora and training-segment sampling.

Corpora are emitted directly as feature matrices.  All speakers share K
mixture components (RMS ``mixture_spread`` per dimension), shifted by a
speaker-specific mean (RMS ``separation``).  Each speaker also has its own
random K-cycle as the successor order of the components: a frame stays in
its component with probability ``DWELL`` and otherwise moves to the
successor.  Each utterance gets a random channel offset, and frames add
white noise.  At separation 0 every speaker has the same frame distribution,
so any statistic that ignores frame order sits near chance, while a
frame-context extractor can still see the order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DWELL = 0.8     # probability that a frame stays in its predecessor's component


@dataclass
class SyntheticCorpusSpec:
    n_speakers: int = 8
    utts_per_speaker: int = 10
    utterance_s: float = 6.0
    feature_dim: int = 23
    frame_shift_ms: float = 10.0
    separation: float = 1.0
    mixture_components: int = 4
    mixture_spread: float = 0.5
    channel_scale: float = 0.2
    noise_scale: float = 1.0
    seed: int = 0
    speaker_prefix: str = "spk"

    def __post_init__(self):
        if self.n_speakers < 2:
            raise ValueError("need at least 2 speakers")
        if self.utts_per_speaker < 1 or self.mixture_components < 1:
            raise ValueError("need at least one utterance and mixture component")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be at least 1, got {self.feature_dim}")
        if not 0 < self.frame_shift_ms < math.inf:
            raise ValueError(f"frame_shift_ms must be finite and > 0, got {self.frame_shift_ms}")
        if not 0 <= self.utterance_s < math.inf:
            raise ValueError(f"utterance_s must be finite and >= 0, got {self.utterance_s}")
        for name in ("separation", "mixture_spread", "channel_scale", "noise_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


def generate_synthetic_corpus(spec: SyntheticCorpusSpec):
    """Deterministic labeled corpus: (float32 features by utterance id, utt2spk)."""
    rng = np.random.default_rng(spec.seed)
    n_frames = int(round(spec.utterance_s * 1000.0 / spec.frame_shift_ms))
    d = spec.feature_dim
    # One mixture shape shared by all speakers; only the mean and the cycle
    # order are per speaker, so at separation 0 speakers differ in order alone.
    shared_offsets = spec.mixture_spread * rng.standard_normal(
        (spec.mixture_components, d))
    features: dict[str, np.ndarray] = {}
    utt2spk: dict[str, str] = {}
    for s in range(spec.n_speakers):
        spk = f"{spec.speaker_prefix}{s:03d}"
        speaker_mean = spec.separation * rng.standard_normal(d)
        comp_means = speaker_mean + shared_offsets
        cycle = rng.permutation(spec.mixture_components)
        for u in range(spec.utts_per_speaker):
            utt = f"{spk}-utt{u:03d}"
            channel = spec.channel_scale * rng.standard_normal(d)
            pos = (rng.integers(spec.mixture_components)
                   + np.cumsum(rng.random(n_frames) >= DWELL))
            comps = cycle[pos % spec.mixture_components]
            frames = (comp_means[comps] + channel
                      + spec.noise_scale * rng.standard_normal((n_frames, d)))
            features[utt] = frames.astype(np.float32)
            utt2spk[utt] = spk
    return features, utt2spk


def segment_frame_bounds(range_s: tuple[float, float], frame_shift_ms: float) -> tuple[int, int]:
    min_frames = max(1, int(round(range_s[0] * 1000.0 / frame_shift_ms)))
    max_frames = max(min_frames, int(round(range_s[1] * 1000.0 / frame_shift_ms)))
    return min_frames, max_frames


def sample_segments(utterances: list[np.ndarray], bounds: tuple[int, int],
                    rng: np.random.Generator) -> list[np.ndarray]:
    """Contiguous slices of one shared length, drawn in whole frames from
    ``bounds`` capped at the shortest utterance (never below the lower bound),
    then one uniformly drawn start per utterance, in order."""
    lo, hi = bounds
    shortest = min(u.shape[0] for u in utterances)
    if shortest < lo:
        raise ValueError(
            f"utterance shorter than minimum segment: {shortest} < {lo} frames")
    length = int(rng.integers(lo, max(lo, min(hi, shortest)) + 1))
    starts = [int(rng.integers(0, u.shape[0] - length + 1)) for u in utterances]
    return [u[start : start + length] for u, start in zip(utterances, starts)]
