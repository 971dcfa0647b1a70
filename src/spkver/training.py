"""Minibatch SGD training of the extractors and embedding extraction.

Every stochastic choice flows from one seeded generator, so a run is fully
reproducible from (config, seed) in single-worker mode; resuming from a
checkpoint restores the generator state and bit-matches an uninterrupted
run.  All segments within a batch share one sampled duration, so frame
counts agree without padding.

A diverging run stops with a "training diverged" RuntimeError instead of
producing finite garbage: the loss must stay finite and at most
``DIVERGENCE_FACTOR * ln(C)``, where C is the number of training speakers
and ln(C) is the chance-level softmax loss, and the pre-clip gradient norm
must stay finite.  The bound depends on nothing but the loss and C, so a
resumed run aborts at the same step as an uninterrupted one; a multiple of
the first loss would not do, because a saturated softmax can score a loss
of exactly 0.0 on a batch.  The factor leaves room for A-softmax, whose
loss grows with the feature norm and with psi(theta); healthy runs have
been seen at up to about 9 ln(C).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import models as m
from .backend import all_pairs_eer
from .corpus import sample_segments, segment_frame_bounds
from .formats import ExperimentConfig, save_checkpoint
from .objectives import LambdaSchedule, MarginConfig, asoftmax_loss, softmax_ce

# A batch loss above this multiple of ln(C), the chance-level loss for C
# speakers, counts as divergence (see the module docstring).
DIVERGENCE_FACTOR = 1e3


def clip_gradients(params: ad.ParameterSet, max_norm: float) -> float:
    """Scale all gradients so their global norm is at most ``max_norm``.

    Returns the pre-clip norm.  The stacks carry no normalization layers,
    so occasional loss spikes can otherwise send the per-channel slopes
    into a feedback loop.
    """
    total = 0.0
    for _, tensor in params.items():
        if tensor.grad is not None:
            total += float((tensor.grad ** 2).sum())
    norm = np.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for _, tensor in params.items():
            if tensor.grad is not None:
                tensor.grad *= factor
    return norm


def sgd_step(params: ad.ParameterSet, lr: float, momentum: float):
    """Momentum SGD: v <- momentum v + g; p <- p - lr v.

    Consumes ``.grad``: lr v is written into the gradient array once it has
    been added to v, so afterwards ``.grad`` holds the step, not g.
    """
    for name, tensor in params.items():
        grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        vel = params.velocity[name]
        vel *= momentum
        vel += grad
        tensor.data -= np.multiply(vel, lr, out=grad)


def build_model(cfg: ExperimentConfig, n_spk: int) -> m.ExtractorModel:
    classifier_bias = cfg.loss == "softmax"
    if cfg.arch == "maxpool":
        return m.build_maxpool_net(n_spk, in_dim=cfg.in_dim, width_scale=cfg.width_scale,
                                   classifier_bias=classifier_bias, seed=cfg.seed)
    return m.build_res_net(cfg.resnet_blocks, n_spk, in_dim=cfg.in_dim,
                           width_scale=cfg.width_scale,
                           classifier_bias=classifier_bias, seed=cfg.seed)


def batch_loss(model: m.ExtractorModel, segments: list[np.ndarray], labels: np.ndarray,
               cfg: ExperimentConfig, lam: float) -> ad.Tensor:
    pooled = ad.stack_rows([m.frame_stats_graph(model, seg) for seg in segments])
    emb = m.segment_graph(model, pooled)
    if cfg.loss == "softmax":
        return softmax_ce(m.classifier_graph(model, emb), labels)
    w = model.params["classifier.w"]
    return asoftmax_loss(emb, w, labels, MarginConfig(cfg.margin, lam))


@dataclass
class TrainResult:
    model: m.ExtractorModel
    history: list[dict] = field(default_factory=list)
    best_val_eer: float | None = None
    best_state: dict | None = None
    final_step: int = 0
    rng_state: dict | None = None


def _speaker_table(utt2spk: dict[str, str]):
    utts = sorted(utt2spk)
    speakers = sorted(set(utt2spk.values()))
    spk_index = {s: i for i, s in enumerate(speakers)}
    labels = np.array([spk_index[utt2spk[u]] for u in utts], dtype=np.intp)
    return utts, speakers, labels


def _diverged(step: int, epoch: int, lr: float, what: str) -> RuntimeError:
    return RuntimeError(f"training diverged at step {step} (epoch {epoch}, "
                        f"lr={lr:g}): {what}")


def train_extractor(features: dict[str, np.ndarray], utt2spk: dict[str, str],
                    cfg: ExperimentConfig, log=None, resume: dict | None = None,
                    frame_shift_ms: float = 10.0) -> TrainResult:
    """Train an extractor on labeled feature matrices.

    ``resume`` takes a checkpoint meta dict plus model to continue a run.
    Aborts with a "training diverged" RuntimeError naming the step, epoch,
    lr, offending value and bound when a batch loss is non-finite or above
    ``DIVERGENCE_FACTOR * ln(C)`` for C training speakers (checked before
    backward), or when the pre-clip gradient norm is non-finite (checked
    before the SGD step, so the parameters keep their last finite values).
    ln(C) is the chance-level loss; anchoring on it rather than on the
    first step's loss makes the abort step the same for a resumed run.
    """
    utts, speakers, labels = _speaker_table(utt2spk)
    if len(speakers) < 2:
        raise ValueError("need at least 2 speakers to train")
    min_frames, max_frames = segment_frame_bounds(
        (cfg.segment_min_s, cfg.segment_max_s), frame_shift_ms)

    if resume is not None:
        model = resume["model"]
        rng = np.random.default_rng()
        rng.bit_generator.state = resume["meta"]["rng_state"]
        start_step = int(resume["meta"]["step"])
        start_epoch = int(resume["meta"]["epoch"])
    else:
        model = build_model(cfg, len(speakers))
        rng = np.random.default_rng(cfg.seed)
        start_step = 0
        start_epoch = 0

    need = m.receptive_field(model)
    seg_lo = max(min_frames, need)
    usable = [u for u in utts if features[u].shape[0] >= seg_lo]
    if not usable:
        raise ValueError("no utterance long enough for the minimum segment")
    label_of = dict(zip(utts, labels))
    usable_labels = np.array([label_of[u] for u in usable], dtype=np.intp)

    # Per-speaker validation split so held-out trials include both kinds.
    val_utts: list[str] = []
    if cfg.val_fraction > 0:
        for spk in np.unique(usable_labels):
            members = [u for u, l in zip(usable, usable_labels) if l == spk]
            if len(members) > 1:
                val_utts += members[: max(1, int(round(cfg.val_fraction * len(members))))]
    val_set = set(val_utts)
    val_labels = np.array([label_of[u] for u in val_utts], dtype=np.intp)
    if len(val_utts) < 2 or len(np.unique(val_labels)) < 2 \
            or np.max(np.bincount(val_labels)) < 2:
        val_utts, val_set = [], set()
        val_labels = np.empty(0, dtype=np.intp)
    train_utts = [u for u in usable if u not in val_set]
    train_labels = np.array([label_of[u] for u in train_utts], dtype=np.intp)

    loss_bound = DIVERGENCE_FACTOR * np.log(len(speakers))
    schedule = LambdaSchedule(cfg.lambda_start, cfg.lambda_decay, cfg.lambda_floor)
    result = TrainResult(model=model)
    step = start_step
    for epoch in range(start_epoch, cfg.epochs):
        lr = cfg.learning_rate * cfg.lr_decay ** epoch
        epoch_losses = []
        for _ in range(cfg.steps_per_epoch):
            picks = rng.integers(0, len(train_utts), size=cfg.batch_size)
            segments = sample_segments([features[train_utts[i]] for i in picks],
                                       (seg_lo, max_frames), rng)
            batch_labels = train_labels[picks]

            lam = schedule.value(step) if cfg.loss == "asoftmax" else 0.0
            model.params.zero_grad()
            loss = batch_loss(model, segments, batch_labels, cfg, lam)
            value = float(loss.data)
            if not np.isfinite(value) or value > loss_bound:
                raise _diverged(step, epoch, lr,
                                f"loss {value:.4g} not in [0, {loss_bound:.4g}] "
                                f"(bound = {DIVERGENCE_FACTOR:g} * ln of "
                                f"{len(speakers)} speakers)")
            loss.backward()
            norm = clip_gradients(model.params, cfg.grad_clip)
            if not np.isfinite(norm):
                raise _diverged(step, epoch, lr,
                                f"pre-clip gradient norm {norm:.4g} is non-finite")
            sgd_step(model.params, lr, cfg.momentum)
            epoch_losses.append(value)
            step += 1

        record = {"epoch": epoch, "loss": float(np.mean(epoch_losses)), "lr": lr,
                  "step": step}
        if val_utts:
            val_rng = np.random.default_rng(cfg.seed + 7919 + epoch)
            embs = m.embed_batch(model, [features[u] for u in val_utts])
            record["val_eer"] = all_pairs_eer(None, embs, val_labels, val_rng, max_trials=2000)
            if result.best_val_eer is None or record["val_eer"] < result.best_val_eer:
                result.best_val_eer = record["val_eer"]
                result.best_state = {k: v.copy() for k, v in
                                     model.params.state_arrays().items()}
        result.history.append(record)
        if log is not None:
            msg = f"epoch {epoch}: loss {record['loss']:.4f} lr {lr:.4g}"
            if "val_eer" in record:
                msg += f" val_eer {record['val_eer']:.4f}"
            log(msg)
    result.final_step = step
    result.rng_state = rng.bit_generator.state
    return result


def default_thread_count() -> int:
    value = os.environ.get("SPKVER_THREADS", "1")
    try:
        return max(1, int(value))
    except ValueError:
        return 1


def extract_embeddings(model: m.ExtractorModel, features: dict[str, np.ndarray],
                       threads: int | None = None, log=None):
    """Full-utterance embeddings for every feature matrix.

    Utterances shorter than the receptive field are skipped with a warning
    and reported in the returned manifest list.
    """
    need = m.receptive_field(model)
    utts = sorted(features)
    skipped = [u for u in utts if features[u].shape[0] < need]
    kept = [u for u in utts if features[u].shape[0] >= need]
    if log is not None:
        for u in skipped:
            log(f"warning: skipping {u}: {features[u].shape[0]} frames < "
                f"receptive field {need}")
    n_workers = threads if threads is not None else default_thread_count()
    kept_features = [features[u] for u in kept]
    if n_workers > 1 and len(kept) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            rows = m.embed_batch(model, kept_features, pool.map)
    else:
        rows = m.embed_batch(model, kept_features)
    return dict(zip(kept, rows.astype(np.float32).astype(np.float64))), skipped


def save_train_checkpoint(path, result: TrainResult, cfg: ExperimentConfig,
                          epoch: int | None = None):
    save_checkpoint(path, result.model, step=result.final_step,
                    epoch=epoch if epoch is not None else cfg.epochs,
                    config_hash=cfg.config_hash(),
                    rng_state=getattr(result, "rng_state", None),
                    extra={"history": result.history,
                           "best_val_eer": result.best_val_eer})
