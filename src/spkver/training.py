"""Minibatch SGD training of the extractors and embedding extraction.

Every stochastic choice flows from one seeded generator, so a run is fully
reproducible from (config, seed) in single-worker mode.  A checkpoint holds
the live run: parameters, momentum, generator state, step, epoch, history
and best validation EER; resuming from it bit-matches an uninterrupted run.
That holds for the ``--best-out`` checkpoint too, the run as it stood at
the end of its best epoch.  All segments within a batch share one sampled
duration, so frame counts agree without padding.

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

Parameters, momenta, activations and gradients are float32, the dtype the
builders allocate and checkpoints store; the objectives and the gradient
norm accumulate in float64.  Each step, backward reaches every parameter (both
objectives reach all of both stacks'), and the optimizer steps each of them.
``clip_gradients`` and ``sgd_step`` sweep each tensor through flat views in
blocks of ``OPT_BLOCK`` entries and build no temporary of a parameter's
size.  The gradient norm follows numpy's pairwise-sum splits down to the
blocks, so it is bit for bit the norm of per-tensor
``(g.astype(np.float64) ** 2).sum()``, and checkpoints do not depend on the
block size even where clipping fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import models as m
from .backend import all_pairs_eer, has_both_trial_kinds, held_out_split
from .corpus import sample_segments, segment_frame_bounds
from .formats import ExperimentConfig, load_checkpoint, save_checkpoint
from .objectives import asoftmax_loss, softmax_ce

# A batch loss above this multiple of ln(C), the chance-level loss for C
# speakers, counts as divergence (see the module docstring).
DIVERGENCE_FACTOR = 1e3

# Entries per block of the optimizer sweeps (128 KiB of float32, and 256 KiB
# of float64 squares in the norm's scratch): a block of gradient, velocity
# and parameter fits a 2 MiB L2 cache.  At least 128, numpy's pairwise-sum
# leaf, so every block is a node of that sum's tree.
OPT_BLOCK = 1 << 15


def _flat(a: np.ndarray) -> np.ndarray:
    """1-D view of ``a`` in C order.  Raises ValueError where that would need a
    copy, since an update written into a copy would be lost silently."""
    return a.reshape(-1, copy=False)


def _sum_squares(flat: np.ndarray, scratch: np.ndarray) -> float:
    """``float((flat.astype(np.float64) ** 2).sum())``, bit for bit, without
    a temporary of ``flat``'s size.  numpy's pairwise sum splits n > 128
    elements at ``n // 2`` rounded down to a multiple of 8 and adds the two
    halves' sums; this takes the same splits down to slices of at most
    ``OPT_BLOCK``, which ``.sum()`` finishes in its own order, squared in
    float64 into the float64 ``scratch`` (the square of a float32 is exact
    there)."""
    n = flat.size
    if n <= OPT_BLOCK:
        return float(np.square(flat, out=scratch[:n], dtype=np.float64).sum())
    half = n // 2 - (n // 2) % 8
    return _sum_squares(flat[:half], scratch) + _sum_squares(flat[half:], scratch)


def clip_gradients(params: dict, max_norm: float) -> float:
    """Scale all gradients so their global norm is at most ``max_norm``.

    Returns the pre-clip norm; first, a parameter without a gradient raises
    ValueError naming it.  The stacks carry no normalization layers, so
    occasional loss spikes can otherwise send the per-channel slopes into a
    feedback loop.  Each gradient's sum of squares accumulates in float64,
    formed in blocks of ``OPT_BLOCK`` along numpy's pairwise-sum splits, so
    the norm equals the one ``(g.astype(np.float64) ** 2).sum()`` per tensor
    gives bit for bit, and so do the clip decision and the scaled gradients;
    a dot product would sum in another order.
    """
    for name, tensor in params.items():
        if tensor.grad is None:
            raise ValueError(f"parameter {name} received no gradient")
    scratch = np.empty(OPT_BLOCK)
    total = 0.0
    for tensor in params.values():
        total += _sum_squares(_flat(tensor.grad), scratch)
    norm = float(np.sqrt(total))        # a Python float scales each gradient in its dtype
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for tensor in params.values():
            tensor.grad *= factor
    return norm


def sgd_step(params: dict, velocity: dict, lr: float, momentum: float):
    """Momentum SGD: v <- momentum v + g; p <- p - lr v, v in ``velocity``.

    Consumes ``.grad``: lr v is written into the gradient array once it has
    been added to v, so afterwards ``.grad`` holds the step, not g.  Each
    parameter is swept once, in blocks of ``OPT_BLOCK`` entries, so a
    block's parameter, velocity and gradient stay in cache across the three
    operations; they are the same elementwise operations in the same order
    as on whole arrays.
    """
    for name, tensor in params.items():
        param, vel, grad = _flat(tensor.data), _flat(velocity[name]), _flat(tensor.grad)
        for lo in range(0, param.size, OPT_BLOCK):
            p, v, g = (a[lo:lo + OPT_BLOCK] for a in (param, vel, grad))
            v *= momentum
            v += g
            p -= np.multiply(v, lr, out=g)


def build_model(cfg: ExperimentConfig, n_spk: int, in_dim: int = 23) -> m.ExtractorModel:
    """``cfg``'s extractor for ``n_spk`` speakers; 23 is the default MFCC width."""
    depth = {"n_blocks": cfg.resnet_blocks} if cfg.arch == "resnet" else {}
    return m.ARCHS[cfg.arch](**depth, n_spk=n_spk, in_dim=in_dim,
                             width_scale=cfg.width_scale,
                             classifier_bias=cfg.loss == "softmax", seed=cfg.seed)


def batch_loss(model: m.ExtractorModel, segments: list[np.ndarray], labels: np.ndarray,
               cfg: ExperimentConfig, lam: float) -> ad.Tensor:
    pooled = ad.stack_rows([m.frame_stats_graph(model, seg) for seg in segments])
    emb = m.segment_graph(model, pooled)
    w = model.params["classifier.w"]
    if cfg.loss == "softmax":
        return softmax_ce(ad.affine(emb, w, model.params["classifier.b"]), labels)
    return asoftmax_loss(emb, w, labels, cfg.margin, lam)


@dataclass
class TrainResult:
    model: m.ExtractorModel
    history: list[dict] = field(default_factory=list)
    best_val_eer: float | None = None
    epoch: int = 0                    # epochs completed: the checkpoint's ``epoch``
    final_step: int = 0
    rng_state: dict | None = None
    best_out_written: bool = False    # an epoch of this run wrote ``best_out``


def _diverged(step: int, epoch: int, lr: float, what: str) -> RuntimeError:
    return RuntimeError(f"training diverged at step {step} (epoch {epoch}, "
                        f"lr={lr:g}): {what}")


def _bad_meta(path, key: str, value, want: str) -> ValueError:
    return ValueError(f"{path}: metadata key {key} holds {value!r}, not {want}")


def train_extractor(features: dict[str, np.ndarray], utt2spk: dict[str, str],
                    cfg: ExperimentConfig, log=None, resume=None, best_out=None,
                    frame_shift_ms: float = 10.0) -> TrainResult:
    """Train an extractor on labeled feature matrices.

    ``resume`` names a checkpoint of a run of this configuration to
    continue; its metadata must hold ``config_hash``, ``step``, ``epoch``
    and ``rng_state`` of the types it was saved with, its classifier must
    have one output per speaker of ``utt2spk`` and its ``in_dim`` must be
    the features' width, which a new model takes, else ValueError.
    ``best_out`` names the checkpoint the live run is written to at the end
    of each epoch whose validation EER is the lowest so far (after a resume,
    lower than the restored one), as ``save_train_checkpoint`` writes the
    final state.
    The validation utterances come from ``backend.held_out_split``: of each
    speaker's utterances long enough for a segment, the first
    ``cfg.val_fraction`` by id, scored speaker by speaker.  Without both
    trial kinds among them, no epoch is validated and all of them train;
    a split that leaves none to train raises ValueError naming val_fraction.
    Step s of an A-softmax run has annealing weight
    ``max(lambda_floor, lambda_start * lambda_decay ** s)``.
    Aborts with a "training diverged" RuntimeError naming the step, epoch,
    lr, offending value and bound when a batch loss is non-finite or above
    ``DIVERGENCE_FACTOR * ln(C)`` for C training speakers (checked before
    backward), or when the pre-clip gradient norm is non-finite (checked
    before the SGD step, so the parameters keep their last finite values).
    """
    utts, speakers = sorted(utt2spk), sorted(set(utt2spk.values()))
    labels = np.searchsorted(speakers, [utt2spk[u] for u in utts])  # speaker of each utt
    if len(speakers) < 2:
        raise ValueError("need at least 2 speakers to train")
    in_dim = features[utts[0]].shape[1]
    min_frames, max_frames = segment_frame_bounds(
        (cfg.segment_min_s, cfg.segment_max_s), frame_shift_ms)

    if resume is None:
        model, rng = build_model(cfg, len(speakers), in_dim), np.random.default_rng(cfg.seed)
        result = TrainResult(model=model, rng_state=rng.bit_generator.state)
    else:
        model, meta = load_checkpoint(resume)
        for key in ("config_hash", "step", "epoch", "rng_state"):
            if meta.get(key) is None:
                raise ValueError(f"{resume}: checkpoint lacks metadata key {key}")
        if meta["config_hash"] != cfg.config_hash():
            raise ValueError(f"{resume}: checkpoint was produced by a different configuration "
                             f"(config hash {meta['config_hash']}, this run's {cfg.config_hash()})")
        if model.n_spk != len(speakers):
            raise ValueError(f"{resume}: checkpoint classifies {model.n_spk} speakers, "
                             f"the corpus has {len(speakers)}")
        if model.in_dim != in_dim:
            raise ValueError(f"{resume}: checkpoint has in_dim {model.in_dim}, "
                             f"the features have width {in_dim}")
        for key in ("step", "epoch"):            # type(): a bool is not a count
            if type(meta[key]) is not int or meta[key] < 0:
                raise _bad_meta(resume, key, meta[key], "an int >= 0")
        extra = meta.get("extra", {})
        if not isinstance(extra, dict):
            raise _bad_meta(resume, "extra", extra, "an object")
        history, best = extra.get("history", []), extra.get("best_val_eer")
        if not isinstance(history, list):
            raise _bad_meta(resume, "extra.history", history, "a list")
        if best is not None and (isinstance(best, bool) or not isinstance(best, (int, float))):
            raise _bad_meta(resume, "extra.best_val_eer", best, "a number or null")
        rng = np.random.default_rng()
        try:
            rng.bit_generator.state = meta["rng_state"]
        except (TypeError, ValueError, KeyError) as exc:
            raise ValueError(f"{resume}: metadata key rng_state is not a generator state: "
                             f"{exc}") from exc
        result = TrainResult(model=model, history=history, best_val_eer=best,
                             epoch=meta["epoch"], final_step=meta["step"],
                             rng_state=meta["rng_state"])

    need = m.receptive_field(model)
    seg_lo = max(min_frames, need)
    usable = np.flatnonzero([features[u].shape[0] >= seg_lo for u in utts])
    if not usable.size:
        raise ValueError("no utterance long enough for the minimum segment")
    train_rows, val_rows = held_out_split(labels[usable], cfg.val_fraction)
    train_rows, val_rows = usable[train_rows], usable[val_rows]
    if not has_both_trial_kinds(labels[val_rows]):
        train_rows, val_rows = usable, usable[:0]
    if not train_rows.size:
        raise ValueError(f"val_fraction = {cfg.val_fraction:g} holds out every usable "
                         f"utterance: the training set is empty")

    loss_bound = DIVERGENCE_FACTOR * np.log(len(speakers))
    step = result.final_step
    for epoch in range(result.epoch, cfg.epochs):
        lr = cfg.learning_rate * cfg.lr_decay ** epoch
        epoch_losses = []
        for _ in range(cfg.steps_per_epoch):
            picks = train_rows[rng.integers(0, train_rows.size, size=cfg.batch_size)]
            segments = sample_segments([features[utts[i]] for i in picks],
                                       (seg_lo, max_frames), rng)

            lam = (max(cfg.lambda_floor, cfg.lambda_start * cfg.lambda_decay ** step)
                   if cfg.loss == "asoftmax" else 0.0)
            for tensor in model.params.values():
                tensor.grad = None
            loss = batch_loss(model, segments, labels[picks], cfg, lam)
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
            sgd_step(model.params, model.velocity, lr, cfg.momentum)
            epoch_losses.append(value)
            step += 1

        record = {"epoch": epoch, "loss": float(np.mean(epoch_losses)), "lr": lr,
                  "step": step}
        result.history.append(record)
        result.epoch, result.final_step, result.rng_state = \
            epoch + 1, step, rng.bit_generator.state
        if val_rows.size:
            val_rng = np.random.default_rng(cfg.seed + 7919 + epoch)
            embs = m.embed_batch(model, [features[utts[i]] for i in val_rows])
            record["val_eer"] = all_pairs_eer(None, embs, labels[val_rows], val_rng,
                                              max_trials=2000)
            if result.best_val_eer is None or record["val_eer"] < result.best_val_eer:
                result.best_val_eer = record["val_eer"]
                if best_out is not None:
                    save_train_checkpoint(best_out, result, cfg)
                    result.best_out_written = True
        if log is not None:
            msg = f"epoch {epoch}: loss {record['loss']:.4f} lr {lr:.4g}"
            if "val_eer" in record:
                msg += f" val_eer {record['val_eer']:.4f}"
            log(msg)
    return result


def extract_embeddings(model: m.ExtractorModel, features: dict[str, np.ndarray],
                       threads: int, log=None):
    """Full-utterance embeddings, in the model's dtype, for every feature matrix.

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
    kept_features = [features[u] for u in kept]
    if threads > 1 and len(kept) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = m.embed_batch(model, kept_features, pool.map)
    else:
        rows = m.embed_batch(model, kept_features)
    return dict(zip(kept, rows)), skipped


def save_train_checkpoint(path, result: TrainResult, cfg: ExperimentConfig):
    """Write the run state ``result`` holds; ``train_extractor(resume=path)``
    continues from it."""
    save_checkpoint(path, result.model, step=result.final_step, epoch=result.epoch,
                    config_hash=cfg.config_hash(), rng_state=result.rng_state,
                    extra={"history": result.history, "best_val_eer": result.best_val_eer})
