"""Synthetic corpus determinism, separation behavior, the per-speaker
component order, and segment sampling distribution."""

import numpy as np
import pytest
from scipy.stats import chi2

from spkver.corpus import (SyntheticCorpusSpec, generate_synthetic_corpus,
                           sample_segments, segment_frame_bounds)
from spkver.metrics import ScoreSet, Trial, compute_eer


def lag5_covariance(x):
    c = x - x.mean(axis=0)
    return (c[:-5].T @ c[5:]).ravel()


def cosine_eer(features, utt2spk, statistic=lambda x: x.mean(axis=0)):
    """Cosine EER over every pair of utterances, each represented by
    ``statistic`` of its frames (the pooled mean by default)."""
    utts = sorted(features)
    vectors = {u: statistic(features[u]) for u in utts}
    trials, scores = [], []
    for i, a in enumerate(utts):
        for b in utts[i + 1 :]:
            va, vb = vectors[a], vectors[b]
            denom = np.linalg.norm(va) * np.linalg.norm(vb)
            trials.append(Trial(a, b, utt2spk[a] == utt2spk[b]))
            scores.append(va @ vb / denom)
    return compute_eer(ScoreSet.from_trials(trials, np.asarray(scores)))


def test_same_seed_identical_corpora():
    spec = SyntheticCorpusSpec(n_speakers=3, utts_per_speaker=2, utterance_s=1.0, seed=7)
    f1, u1 = generate_synthetic_corpus(spec)
    f2, u2 = generate_synthetic_corpus(spec)
    assert u1 == u2
    assert set(f1) == set(f2)
    for utt in f1:
        assert np.array_equal(f1[utt], f2[utt])
    f3, _ = generate_synthetic_corpus(SyntheticCorpusSpec(
        n_speakers=3, utts_per_speaker=2, utterance_s=1.0, seed=8))
    assert not np.array_equal(f1[sorted(f1)[0]], f3[sorted(f3)[0]])


def test_zero_separation_is_chance():
    spec = SyntheticCorpusSpec(n_speakers=6, utts_per_speaker=8, utterance_s=2.0,
                               separation=0.0, channel_scale=0.0, seed=1)
    features, utt2spk = generate_synthetic_corpus(spec)
    eer = cosine_eer(features, utt2spk)
    assert 0.3 < eer < 0.7


def test_huge_separation_is_trivial():
    spec = SyntheticCorpusSpec(n_speakers=2, utts_per_speaker=8, utterance_s=2.0,
                               separation=50.0, seed=2)
    features, utt2spk = generate_synthetic_corpus(spec)
    assert cosine_eer(features, utt2spk) < 0.01


def test_speakers_differ_in_component_order_alone_at_zero_separation():
    """Every speaker has the same frame distribution, so the pooled mean is
    at chance, but its own cycle through the components, which the lag-5
    cross-covariance sees."""
    spec = SyntheticCorpusSpec(n_speakers=12, utts_per_speaker=4, utterance_s=2.0,
                               separation=0.0, mixture_components=8, mixture_spread=1.5,
                               channel_scale=0.5, noise_scale=0.7, seed=1)
    features, utt2spk = generate_synthetic_corpus(spec)
    assert cosine_eer(features, utt2spk) >= 0.4
    assert cosine_eer(features, utt2spk, lag5_covariance) <= 0.15


@pytest.mark.parametrize("settings,frames", [({"utterance_s": 0.0}, 0),
                                             ({"mixture_components": 1}, 100)],
                         ids=["no-frames", "one-component"])
def test_corpus_edge_sizes_generate(settings, frames):
    spec = SyntheticCorpusSpec(**{"n_speakers": 2, "utts_per_speaker": 2, "utterance_s": 1.0,
                                  "feature_dim": 5, "seed": 4, **settings})
    features, _ = generate_synthetic_corpus(spec)
    assert [f.shape for f in features.values()] == [(frames, 5)] * 4


def test_corpus_shapes_and_labels():
    spec = SyntheticCorpusSpec(n_speakers=4, utts_per_speaker=3, utterance_s=1.5,
                               feature_dim=10, seed=3)
    features, utt2spk = generate_synthetic_corpus(spec)
    assert len(features) == 12
    assert len(set(utt2spk.values())) == 4
    for utt, mat in features.items():
        assert mat.shape == (150, 10) and mat.dtype == np.float32
        assert utt2spk[utt] in utt

    with pytest.raises(ValueError, match="2 speakers"):
        SyntheticCorpusSpec(n_speakers=1)


# ---------------------------------------------------------------------------
# segment sampling


def test_segment_exact_range_returns_full_utterance():
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((300, 5))
    out = sample_segments([feats], segment_frame_bounds((3.0, 3.0), 10.0),
                          np.random.default_rng(0))
    assert len(out) == 1 and np.array_equal(out[0], feats)


def test_segment_too_short_rejected():
    rng = np.random.default_rng(5)
    utts = [rng.standard_normal((600, 5)), rng.standard_normal((100, 5))]
    with pytest.raises(ValueError, match="utterance shorter than minimum segment"):
        sample_segments(utts, segment_frame_bounds((3.0, 5.0), 10.0), rng)


def test_segment_fixed_seed_reproducible():
    rng_feats = np.random.default_rng(6)
    utts = [rng_feats.standard_normal((800, 4)), rng_feats.standard_normal((500, 4))]
    bounds = segment_frame_bounds((1.0, 4.0), 10.0)
    a = sample_segments(utts, bounds, np.random.default_rng(42))
    b = sample_segments(utts, bounds, np.random.default_rng(42))
    assert len({seg.shape[0] for seg in a}) == 1       # one length per batch
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_segment_duration_uniform_chi_square():
    """10^4 draws over a small frame range: frequencies pass a chi-square
    uniformity test at the 0.001 level."""
    feats = np.zeros((1000, 2))
    rng = np.random.default_rng(7)
    lo, hi = 50, 59                      # 0.5 s .. 0.59 s at 10 ms shift
    bounds = segment_frame_bounds((0.50, 0.59), 10.0)
    assert bounds == (lo, hi)
    draws = [sample_segments([feats], bounds, rng)[0].shape[0] for _ in range(10_000)]
    counts = np.bincount(draws, minlength=hi + 1)[lo : hi + 1]
    expected = 10_000 / (hi - lo + 1)
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(0.999, df=hi - lo)


def test_segment_start_positions_cover_utterance():
    feats = np.arange(2000, dtype=float).reshape(200, 10)
    rng = np.random.default_rng(8)
    bounds = segment_frame_bounds((0.5, 0.5), 10.0)
    starts = {int(sample_segments([feats], bounds, rng)[0][0, 0] // 10)
              for _ in range(500)}
    assert min(starts) == 0
    assert max(starts) == 150
