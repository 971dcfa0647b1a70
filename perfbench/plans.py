"""Workload plans: input sizes and the CLI options of every stage.

Every workload runs the same stage sequence so that every end-to-end
metric is measured on every workload:

    mfcc -> train (max-pool A-softmax, residual softmax) -> extract
    -> backend-train (csml, lda-plda) -> score (cosine, csml, plda) -> eval

What differs is where the work sits.  A plan's dominant stage is sized to
carry the run; the other stages get small "probe" inputs that keep their
metrics defined without moving the workload's character.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The WAV speaker panel, the embedding model's covariances and the random
# checkpoint are fixed, so a seed changes utterances, durations and trial
# draws but not who the speakers are; this keeps the quality metrics
# comparable across seeds.
PANEL_SEED = 20180426
CHECKPOINT_SEED = 1804
# The training runs' own seed (batch picks and segment lengths) is fixed too,
# like backend-train's ``--seed 0``: every seed then trains on the same
# number of frames, so frames/s and peak memory do not move with the seed.
TRAIN_SEED = 7
SAMPLE_RATE = 8000


@dataclass(frozen=True)
class WavPlan:
    """Synthetic 8 kHz recordings: dev and eval speakers plus short clips."""

    n_dev_speakers: int
    dev_utts: int
    n_eval_speakers: int
    eval_utts: int
    min_s: float
    max_s: float
    n_short: int = 2           # clips that VAD leaves below the receptive field


@dataclass(frozen=True)
class TrainPlan:
    """Both training runs share these settings; see ``train_configs``."""

    n_speakers: int
    utts_per_speaker: int
    utterance_s: float
    width_scale: float
    batch_size: int
    epochs: int
    steps_per_epoch: int
    segment_min_s: float
    segment_max_s: float
    val_fraction: float


@dataclass(frozen=True)
class EmbeddingPlan:
    """Two-covariance Gaussian embeddings with a fixed-seed trial list."""

    dim: int
    n_dev_speakers: int
    dev_utts: int
    n_eval_speakers: int
    eval_utts: int
    n_nontarget_trials: int
    between_scale: float       # leading eigenvalue of the between-speaker covariance
    speaker_rank: float        # e-folding length of its eigenvalue spectrum
    tied_trials: int = 0       # size of the extra tied score file (0: none)


@dataclass(frozen=True)
class Plan:
    wav: WavPlan
    train: TrainPlan
    generated: EmbeddingPlan   # what backend-train, score and eval consume
    extract_with: str          # "trained" residual checkpoint or "random" one
    # Stages that run once per round only, those taking a second or more;
    # every other stage also joins the filler rotation of
    # ``run.Bench.run_rounds``, which gives the short stages more runs.
    round_only: tuple = ()
    csml: dict = field(default_factory=dict)
    plda: dict = field(default_factory=dict)


# Recordings of 2-12 s for both workloads: forward-only extraction of long
# single utterances, so that the forward pass takes more of the extract
# stage than the memory-bound load of the 88 MB checkpoint does.
_AUDIO_WAV = WavPlan(n_dev_speakers=4, dev_utts=2, n_eval_speakers=4, eval_utts=3,
                     min_s=2.0, max_s=12.0, n_short=2)
_PROBE_TRAIN = TrainPlan(n_speakers=12, utts_per_speaker=4, utterance_s=3.0,
                         width_scale=0.25, batch_size=8, epochs=2, steps_per_epoch=2,
                         segment_min_s=2.0, segment_max_s=3.0, val_fraction=0.5)

PLANS = {
    "train": Plan(
        wav=_AUDIO_WAV,
        train=TrainPlan(n_speakers=12, utts_per_speaker=8, utterance_s=4.0,
                        width_scale=1.0, batch_size=16, epochs=2, steps_per_epoch=2,
                        segment_min_s=2.0, segment_max_s=4.0, val_fraction=0.25),
        generated=EmbeddingPlan(dim=128, n_dev_speakers=80, dev_utts=8,
                                n_eval_speakers=100, eval_utts=6, n_nontarget_trials=2500,
                                between_scale=3.0, speaker_rank=8.0),
        extract_with="trained",
        round_only=("train.maxpool", "train.resnet", "score.plda"),
        csml={"epochs": 1, "n_hard": 10, "max_triplets": 5000},
        plda={"lda_dim": 48, "em_iters": 10},
    ),
    "score": Plan(
        wav=_AUDIO_WAV,            # through a random full-width res-tdnn-10
        train=_PROBE_TRAIN,
        generated=EmbeddingPlan(dim=512, n_dev_speakers=240, dev_utts=4,
                                n_eval_speakers=100, eval_utts=4, n_nontarget_trials=900,
                                between_scale=3.0, speaker_rank=16.0, tied_trials=200_000),
        extract_with="random",
        round_only=("backend.csml", "backend.plda", "score.plda"),
        csml={"epochs": 1, "n_hard": 5, "max_triplets": 2000},
        plda={"lda_dim": 150, "em_iters": 10},
    ),
}


def train_configs(plan: Plan) -> dict:
    """The two training runs: max-pool stack with A-softmax (m=2) and the
    residual stack (res-tdnn-10) with softmax, on identical settings."""
    from spkver.formats import ExperimentConfig

    tp = plan.train
    common = dict(width_scale=tp.width_scale, batch_size=tp.batch_size, epochs=tp.epochs,
                  steps_per_epoch=tp.steps_per_epoch, segment_min_s=tp.segment_min_s,
                  segment_max_s=tp.segment_max_s, val_fraction=tp.val_fraction, seed=TRAIN_SEED)
    return {"maxpool": ExperimentConfig(arch="maxpool", loss="asoftmax", margin=2, **common),
            "resnet": ExperimentConfig(arch="resnet", resnet_blocks=3, loss="softmax", **common)}
