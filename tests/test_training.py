"""Training-loop contracts: zero-lr no-op, loss descent, divergence abort
(also after resume and on a non-finite gradient norm), deterministic replay,
checkpoint resume bit-match, zero-norm validation embeddings, extraction
bookkeeping and batch-invariant embeddings."""

import numpy as np
import pytest

from spkver import formats as fm
from spkver import models as md
from spkver import training as tr
from spkver.corpus import SyntheticCorpusSpec, generate_synthetic_corpus
from spkver.formats import ExperimentConfig


def tiny_corpus(seed=0, n_speakers=2, utts=10, seconds=3.0):
    spec = SyntheticCorpusSpec(n_speakers=n_speakers, utts_per_speaker=utts,
                               utterance_s=seconds, separation=1.5, seed=seed)
    return generate_synthetic_corpus(spec)


def tiny_config(**kw):
    defaults = dict(arch="maxpool", width_scale=0.125, loss="softmax",
                    learning_rate=0.05, batch_size=4, epochs=2, steps_per_epoch=4,
                    segment_min_s=0.8, segment_max_s=1.2, val_fraction=0.0, seed=0)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_zero_learning_rate_leaves_parameters_unchanged():
    features, utt2spk = tiny_corpus()
    cfg = tiny_config(learning_rate=0.0)
    before = tr.build_model(cfg, 2).params.state_arrays()
    result = tr.train_extractor(features, utt2spk, cfg)
    after = result.model.params.state_arrays()
    for name in before:
        assert np.array_equal(before[name], after[name]), name


def test_tiny_run_reduces_training_loss():
    features, utt2spk = tiny_corpus(utts=10)
    cfg = tiny_config(epochs=4, steps_per_epoch=8, learning_rate=0.1)
    result = tr.train_extractor(features, utt2spk, cfg)
    assert result.history[-1]["loss"] < result.history[0]["loss"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflow is the point
def test_divergence_aborts_with_diagnostic():
    features, utt2spk = tiny_corpus()
    cfg = tiny_config(learning_rate=1e9, epochs=2, steps_per_epoch=10)
    with pytest.raises(RuntimeError, match="diverged"):
        tr.train_extractor(features, utt2spk, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_abort_names_step_lr_loss_and_bound():
    features, utt2spk = tiny_corpus()
    cfg = tiny_config(learning_rate=1e9, epochs=2, steps_per_epoch=10)
    with pytest.raises(RuntimeError) as info:
        tr.train_extractor(features, utt2spk, cfg)
    msg = str(info.value)
    assert msg.startswith("training diverged at step 2 (epoch 0, lr=1e+09): loss ")
    assert f"{tr.DIVERGENCE_FACTOR * np.log(2):.4g}" in msg


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_abort_same_step_after_resume(tmp_path):
    features, utt2spk = tiny_corpus()
    cfg = tiny_config(learning_rate=1e9, epochs=10, steps_per_epoch=2)
    with pytest.raises(RuntimeError, match="diverged") as full:
        tr.train_extractor(features, utt2spk, cfg)

    # One epoch (steps 0 and 1) ends before the blow-up, which is then the
    # resumed run's first step: a bound taken from that run's first loss
    # could not catch it.
    head_cfg = tiny_config(learning_rate=1e9, epochs=1, steps_per_epoch=2)
    head = tr.train_extractor(features, utt2spk, head_cfg)
    path = tmp_path / "head.ckpt"
    tr.save_train_checkpoint(path, head, head_cfg, epoch=1)
    model, meta = fm.load_checkpoint(path)
    with pytest.raises(RuntimeError, match="diverged") as resumed:
        tr.train_extractor(features, utt2spk, cfg,
                           resume={"model": model, "meta": meta})
    assert str(resumed.value) == str(full.value)
    assert "at step 2 (epoch 1," in str(full.value)


def test_non_finite_gradient_norm_aborts_before_update(monkeypatch):
    features, utt2spk = tiny_corpus()
    clip = tr.clip_gradients
    monkeypatch.setattr(tr, "clip_gradients",
                        lambda params, max_norm: clip(params, max_norm) * np.nan)
    updates = []
    monkeypatch.setattr(tr, "sgd_step", lambda *args: updates.append(args))
    with pytest.raises(RuntimeError, match="diverged at step 0 .*gradient norm nan"):
        tr.train_extractor(features, utt2spk, tiny_config())
    assert updates == []


def test_fixed_seed_replay_identical():
    features, utt2spk = tiny_corpus()
    cfg = tiny_config(epochs=2, steps_per_epoch=3)
    r1 = tr.train_extractor(features, utt2spk, cfg)
    r2 = tr.train_extractor(features, utt2spk, cfg)
    for name, arr in r1.model.params.state_arrays().items():
        assert np.array_equal(arr, r2.model.params.state_arrays()[name])
    assert r1.history == r2.history


def test_resume_bit_matches_uninterrupted_run(tmp_path):
    features, utt2spk = tiny_corpus()
    full_cfg = tiny_config(epochs=4, steps_per_epoch=3)
    full = tr.train_extractor(features, utt2spk, full_cfg)

    half_cfg = tiny_config(epochs=2, steps_per_epoch=3)
    half = tr.train_extractor(features, utt2spk, half_cfg)
    path = tmp_path / "half.ckpt"
    tr.save_train_checkpoint(path, half, half_cfg, epoch=2)
    model, meta = fm.load_checkpoint(path)
    resumed = tr.train_extractor(features, utt2spk, full_cfg,
                                 resume={"model": model, "meta": meta})
    for name, arr in full.model.params.state_arrays().items():
        assert np.array_equal(arr, resumed.model.params.state_arrays()[name]), name


def test_validation_tracking_keeps_best_state():
    features, utt2spk = tiny_corpus(n_speakers=4, utts=8)
    cfg = tiny_config(epochs=3, steps_per_epoch=4, val_fraction=0.25,
                      learning_rate=0.1)
    result = tr.train_extractor(features, utt2spk, cfg)
    assert result.best_val_eer is not None
    assert result.best_state is not None
    assert result.best_val_eer == min(h["val_eer"] for h in result.history)


def test_asoftmax_training_runs_and_descends():
    features, utt2spk = tiny_corpus(n_speakers=3, utts=8)
    cfg = tiny_config(loss="asoftmax", margin=2, lambda_start=10.0,
                      lambda_decay=0.9, lambda_floor=0.0, epochs=4,
                      steps_per_epoch=6, learning_rate=0.1)
    result = tr.train_extractor(features, utt2spk, cfg)
    assert result.history[-1]["loss"] < result.history[0]["loss"]


# ---------------------------------------------------------------------------
# extraction


def test_extract_deterministic_and_counts():
    features, utt2spk = tiny_corpus(n_speakers=2, utts=4, seconds=2.0)
    model = md.build_maxpool_net(n_spk=2, width_scale=0.125, seed=1)
    short_utt = sorted(features)[0]
    features[short_utt] = features[short_utt][:10]     # below receptive field

    warnings = []
    emb1, skipped = tr.extract_embeddings(model, features, log=warnings.append)
    assert skipped == [short_utt]
    assert len(emb1) == len(features) - 1
    assert any(short_utt in w for w in warnings)

    emb2, _ = tr.extract_embeddings(model, features)
    for utt in emb1:
        assert np.array_equal(emb1[utt], emb2[utt])


def test_extract_matches_direct_forward():
    features, _ = tiny_corpus(n_speakers=2, utts=3, seconds=2.0)
    model = md.build_res_net(2, n_spk=2, width_scale=0.125, seed=2)
    emb, _ = tr.extract_embeddings(model, features)
    for utt, vec in emb.items():
        direct = md.forward_embed(model, features[utt]).astype(np.float32).astype(float)
        assert np.array_equal(vec, direct)


def test_extract_threaded_matches_serial():
    features, _ = tiny_corpus(n_speakers=2, utts=6, seconds=2.0)
    model = md.build_maxpool_net(n_spk=2, width_scale=0.125, seed=3)
    serial, _ = tr.extract_embeddings(model, features, threads=1)
    threaded, _ = tr.extract_embeddings(model, features, threads=4)
    for utt in serial:
        assert np.array_equal(serial[utt], threaded[utt])


def test_embedding_does_not_depend_on_its_batch(monkeypatch):
    """Whole set, subsets, one utterance alone, threads: bit-identical rows.

    At width 0.25 segment6 is a 512 x 512 product, where OpenBLAS sums a
    2- or 3-row GEMM in another order than a 4-row one; with the block
    constant at 4, ten utterances make blocks of 4, 4 and 2."""
    features, _ = tiny_corpus(n_speakers=2, utts=5, seconds=2.0)
    model = md.build_res_net(1, n_spk=2, width_scale=0.25, seed=4)
    monkeypatch.setattr(md, "EMBED_BLOCK", 4)
    utts = sorted(features)
    whole = dict(zip(utts, md.embed_batch(model, [features[u] for u in utts])))
    for subset in (utts[:5], utts[3:9], utts[::3], utts[1:3], [utts[7]]):
        rows = md.embed_batch(model, [features[u] for u in subset])
        for utt, row in zip(subset, rows):
            assert np.array_equal(row, whole[utt]), (subset, utt)
    for utt in utts:
        assert np.array_equal(md.forward_embed(model, features[utt]), whole[utt])
    threaded, _ = tr.extract_embeddings(model, features, threads=3)
    for utt in utts:
        assert np.array_equal(threaded[utt], whole[utt].astype(np.float32))


def test_thread_count_env(monkeypatch):
    monkeypatch.setenv("SPKVER_THREADS", "3")
    assert tr.default_thread_count() == 3
    monkeypatch.setenv("SPKVER_THREADS", "junk")
    assert tr.default_thread_count() == 1


def test_zero_norm_validation_embedding_raises(monkeypatch):
    features, utt2spk = tiny_corpus(n_speakers=4, utts=8)
    cfg = tiny_config(epochs=1, steps_per_epoch=1, val_fraction=0.25)
    monkeypatch.setattr(md, "embed_batch", lambda model, feats: np.zeros((len(feats), 8)))
    with pytest.raises(ValueError, match="degenerate embedding: zero norm"):
        tr.train_extractor(features, utt2spk, cfg)
