"""The learning check: trained embeddings generalise to unseen speakers.

Every speaker of the corpus shares one frame distribution, K = 8 components
in 23 dimensions; speakers differ only in the temporal order of the
components.  Each speaker has one random K-cycle as its successor order, and
each frame stays in its component with probability 0.8, else it moves to the
successor.  Each utterance adds a channel offset and white noise.  Any
statistic that ignores frame order (the pooled mean, standard deviation or
covariance) therefore sits near chance, while the order is visible to a
frame-context network, and to the lag-5 cross-covariance, which is reported
as the corpus's ceiling but not gated on.

The res-net trained with A-softmax on 28 speakers must beat, on the 12
held-out speakers (2,556 pairs, 180 of them target), both its own untrained
initialisation and every order-blind statistic by three standard errors of
one EER at 180 target trials, 3 * sqrt(0.25 / 180), about 0.11.
"""

import numpy as np

from spkver import training as tr
from spkver.backend import all_pairs_eer
from spkver.formats import ExperimentConfig
from spkver.models import embed_batch

K, DIM, FRAMES = 8, 23, 200
N_SPEAKERS, UTTS, N_TRAIN = 40, 6, 28
MARGIN = 3 * np.sqrt(0.25 / 180)


def order_corpus(seed: int):
    """(utterance id -> (FRAMES, DIM) float32 features, utterance id -> speaker
    index), all drawn from one generator: the components are shared by the
    training and the held-out speakers."""
    rng = np.random.default_rng(seed)
    means = 1.5 * rng.standard_normal((K, DIM))
    features, speaker = {}, {}
    for s in range(N_SPEAKERS):
        cycle = rng.permutation(K)
        for u in range(UTTS):
            pos = (rng.integers(K) + np.cumsum(rng.random(FRAMES) >= 0.8)) % K
            frames = (means[cycle[pos]] + 0.5 * rng.standard_normal(DIM)
                      + 0.7 * rng.standard_normal((FRAMES, DIM)))
            features[f"s{s:02d}u{u}"] = frames.astype(np.float32)
            speaker[f"s{s:02d}u{u}"] = s
    return features, speaker


def pooled_statistics(feats) -> dict[str, np.ndarray]:
    """The order-blind statistics of one utterance, and its lag-5 cross-covariance."""
    x = feats.astype(np.float64)
    c = x - x.mean(axis=0)
    return {"mean": x.mean(axis=0),
            "mean+std": np.concatenate([x.mean(axis=0), x.std(axis=0)]),
            "covariance": (c.T @ c / len(c)).ravel(),
            "lag-5": (c[:-5].T @ c[5:] / (len(c) - 5)).ravel()}


def held_out_eers(seed: int) -> dict[str, float]:
    """Cosine EER over every held-out pair for the trained and the untrained
    res-net and for each pooled statistic."""
    features, speaker = order_corpus(seed)
    train = {u: f"spk{s:02d}" for u, s in speaker.items() if s < N_TRAIN}
    held = sorted(u for u, s in speaker.items() if s >= N_TRAIN)
    labels = np.array([speaker[u] for u in held])
    cfg = ExperimentConfig(arch="resnet", resnet_blocks=3, loss="asoftmax", width_scale=0.125,
                           learning_rate=0.03, lr_decay=1.0, batch_size=16,
                           segment_min_s=1.0, segment_max_s=1.5, epochs=6,
                           steps_per_epoch=50, val_fraction=0.0, seed=seed)

    def eer(rows):
        n_pairs = labels.size * (labels.size - 1) // 2
        return all_pairs_eer(None, np.asarray(rows), labels, np.random.default_rng(0), n_pairs)

    held_feats = [features[u] for u in held]
    trained = tr.train_extractor({u: features[u] for u in train}, train, cfg).model
    eers = {"trained": eer(embed_batch(trained, held_feats)),
            "untrained": eer(embed_batch(tr.build_model(cfg, N_TRAIN), held_feats))}
    stats = [pooled_statistics(f) for f in held_feats]
    for kind in stats[0]:
        eers[kind] = eer([s[kind] for s in stats])
    return eers


def test_trained_res_net_beats_untrained_net_and_order_blind_statistics():
    eers = held_out_eers(seed=3)
    print(" ".join(f"{name} {value:.3f}" for name, value in eers.items()))
    for baseline in ("untrained", "mean", "mean+std", "covariance"):
        assert eers["trained"] <= eers[baseline] - MARGIN, (baseline, eers)
