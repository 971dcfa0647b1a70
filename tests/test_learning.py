"""The learning check: trained embeddings generalise to unseen speakers.

The corpus is what ``spkver synth`` draws (``corpus.generate_synthetic_corpus``)
at separation 0: every speaker shares one frame distribution, K = 8
components in 23 dimensions, and speakers differ only in the temporal order
of the components, their own random K-cycle walked with dwell probability
``corpus.DWELL``.  Each utterance adds a channel offset and white noise.  Any
statistic that ignores frame order (the pooled mean, standard deviation or
covariance) therefore sits near chance, while the order is visible to a
frame-context network, and to the lag-5 cross-covariance, which is reported
as the corpus's ceiling but not gated on.

The res-net trained with A-softmax on the first 28 of 40 speakers must beat,
on the 12 held-out speakers (2,556 pairs, 180 of them target), both its own
untrained initialisation and every order-blind statistic by three standard
errors of one EER at 180 target trials, 3 * sqrt(0.25 / 180), about 0.11.
Tier-1 runs seed 3; to print the EERs and the margin of other seeds:

    PYTHONPATH=src python tests/test_learning.py 3 5 7 11 13
"""

import sys

import numpy as np

from spkver import training as tr
from spkver.backend import all_pairs_eer
from spkver.corpus import SyntheticCorpusSpec, generate_synthetic_corpus
from spkver.formats import ExperimentConfig
from spkver.models import embed_batch

N_TRAIN = 28
MARGIN = 3 * np.sqrt(0.25 / 180)
BASELINES = ("untrained", "mean", "mean+std", "covariance")


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
    features, utt2spk = generate_synthetic_corpus(SyntheticCorpusSpec(
        n_speakers=40, utts_per_speaker=6, utterance_s=2.0, feature_dim=23, separation=0.0,
        mixture_components=8, mixture_spread=1.5, channel_scale=0.5, noise_scale=0.7,
        seed=seed))
    trained_on = sorted(set(utt2spk.values()))[:N_TRAIN]
    train = {u: s for u, s in utt2spk.items() if s in trained_on}
    held = sorted(u for u, s in utt2spk.items() if s not in trained_on)
    labels = np.array([utt2spk[u] for u in held])
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


def margin(eers: dict[str, float]) -> float:
    """How far the trained net's EER is below the best baseline's."""
    return min(eers[b] for b in BASELINES) - eers["trained"]


def test_trained_res_net_beats_untrained_net_and_order_blind_statistics():
    eers = held_out_eers(seed=3)
    print(" ".join(f"{name} {value:.3f}" for name, value in eers.items()))
    for baseline in BASELINES:
        assert eers["trained"] <= eers[baseline] - MARGIN, (baseline, eers)


if __name__ == "__main__":
    if not sys.argv[1:] or not all(a.isdigit() for a in sys.argv[1:]):
        sys.exit(__doc__)
    names = ["trained", *BASELINES, "lag-5"]
    print("seed " + " ".join(f"{n:>10}" for n in names) + "     margin")
    for seed in map(int, sys.argv[1:]):
        eers = held_out_eers(seed)
        print(f"{seed:>4} " + " ".join(f"{eers[n]:>10.3f}" for n in names)
              + f" {margin(eers):>10.3f}" + ("" if margin(eers) >= MARGIN else "  below gate"))
