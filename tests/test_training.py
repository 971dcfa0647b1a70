"""Training-loop contracts: zero-lr no-op, loss descent, divergence abort
(also after resume and on a non-finite gradient norm), deterministic replay,
checkpoint resume bit-match, the validation split against a per-speaker
scan, the blocked optimizer (clip norm and SGD sweep) against the
whole-array forms, zero-norm validation embeddings, extraction bookkeeping
and batch-invariant embeddings."""

import tracemalloc

import numpy as np
import pytest

from spkver import formats as fm
from spkver import models as md
from spkver import training as tr
from spkver.autodiff import ParameterSet
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # 1e200 squares to inf
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_non_finite_entry_in_a_late_block_aborts_before_update(bad, monkeypatch):
    """The guard sees a non-finite norm through the blocked sum: a bad last
    entry of a tensor spanning several blocks makes the norm non-finite."""
    params = ParameterSet()
    t = params.add("w", np.zeros(3 * tr.OPT_BLOCK + 5))
    t.grad = np.ones(t.data.size)
    t.grad[-1] = bad
    assert not np.isfinite(tr.clip_gradients(params, 5.0))

    features, utt2spk = tiny_corpus()
    clip = tr.clip_gradients

    def plant_then_clip(params, max_norm):
        grad = max((x.grad for _, x in params.items()), key=np.size)
        assert grad.size > tr.OPT_BLOCK
        grad.flat[-1] = bad
        return clip(params, max_norm)

    monkeypatch.setattr(tr, "clip_gradients", plant_then_clip)
    updates = []
    monkeypatch.setattr(tr, "sgd_step", lambda *args: updates.append(args))
    with pytest.raises(RuntimeError, match="diverged at step 0 .*gradient norm (nan|inf) "):
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


def ref_validation_split(usable, usable_labels, fraction):
    """The per-speaker scan ``train_extractor`` used before ``_validation_split``."""
    val_utts = []
    if fraction > 0:
        for spk in np.unique(usable_labels):
            members = [u for u, l in zip(usable, usable_labels) if l == spk]
            if len(members) > 1:
                val_utts += members[: max(1, int(round(fraction * len(members))))]
    return val_utts


@pytest.mark.parametrize("fraction", [0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
def test_validation_split_matches_per_speaker_scan(fraction):
    rng = np.random.default_rng(31)
    counts = rng.integers(1, 10, size=60)
    counts[::4] = 1                                    # 1-member speakers
    ids = rng.choice(500, size=60, replace=False)      # labels with gaps
    labels = rng.permutation(np.repeat(ids, counts))
    utts = [f"utt{k:04d}" for k in rng.permutation(labels.size)]
    split = tr._validation_split(utts, labels, fraction)
    assert split == ref_validation_split(utts, labels, fraction)
    assert fraction == 0 or len(split) > 0


# ---------------------------------------------------------------------------
# optimizer: the blocked sweeps against the whole-array forms they replaced


def ref_clip_gradients(params, max_norm):
    """Whole-array ``clip_gradients``: one squared temporary per gradient."""
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


def ref_sgd_step(params, lr, momentum):
    """Whole-array ``sgd_step``: a zeros array stands in for a missing gradient."""
    for name, tensor in params.items():
        grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        vel = params.velocity[name]
        vel *= momentum
        vel += grad
        tensor.data -= np.multiply(vel, lr, out=grad)


B = tr.OPT_BLOCK
SUM_SHAPES = [(n,) for n in (0, 1, 7, 8, 9, 127, 128, 129, B - 1, B, B + 1,
                             2 * B - 8, 2 * B + 8, 3 * B + 5, 1_000_003)]
SUM_SHAPES += [(2048 * 2048,), (2048, 2048)]          # full-width segment6.w


@pytest.mark.parametrize("shape", SUM_SHAPES)
def test_sum_squares_equals_numpy_sum_bit_for_bit(shape):
    rng = np.random.default_rng(int(np.prod(shape)))
    g = rng.standard_normal(shape) * np.exp(rng.uniform(-3, 3, size=shape))
    assert tr._sum_squares(tr._flat(g), np.empty(B)) == float((g ** 2).sum())


def _copies(arrays):
    params = ParameterSet()
    for name, (data, vel, grad) in arrays.items():
        t = params.add(name, data.copy(), vel.copy())
        t.grad = None if grad is None else grad.copy()
    return params


def _assert_same_bytes(a, b):
    for name, t in a.items():
        assert t.data.tobytes() == b[name].data.tobytes(), name
        assert a.velocity[name].tobytes() == b.velocity[name].tobytes(), name
        assert (t.grad is None) == (b[name].grad is None), name
        assert t.grad is None or t.grad.tobytes() == b[name].grad.tobytes(), name


@pytest.mark.parametrize("max_norm", [0.0, 1e6, 1.0])
def test_blocked_optimizer_matches_whole_array_forms(max_norm):
    """Same bytes as the whole-array forms, with and without clipping, for
    tensors of one, several and a partial last block, with and without a
    gradient; -0 velocities planted where no gradient arrives become +0."""
    rng = np.random.default_rng(12)
    arrays = {}
    for k, shape in enumerate([(2 * B + 3,), (3, 5), (B // 64, 65), (B,), (7,)]):
        vel = rng.standard_normal(shape)
        vel.flat[::5] = -0.0
        grad = None if k % 2 else rng.standard_normal(shape)
        arrays[f"p{k}"] = (rng.standard_normal(shape), vel, grad)
    new, ref = _copies(arrays), _copies(arrays)
    assert tr.clip_gradients(new, max_norm) == ref_clip_gradients(ref, max_norm)
    tr.sgd_step(new, lr=0.05, momentum=0.9)
    ref_sgd_step(ref, lr=0.05, momentum=0.9)
    _assert_same_bytes(new, ref)
    for name, (_, _, grad) in arrays.items():
        if grad is None:
            assert not np.signbit(new.velocity[name].flat[::5]).any(), name


def test_optimizer_builds_no_parameter_sized_temporary():
    n = 8 * B + 11
    params = ParameterSet()
    for name in ("with_grad", "without_grad"):
        params.add(name, np.ones(n))
    params["with_grad"].grad = np.full(n, 0.5)
    tracemalloc.start()
    try:
        tr.clip_gradients(params, 1.0)
        tr.sgd_step(params, lr=0.1, momentum=0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * B * 8 < n * 8, peak


def test_sgd_step_refuses_a_parameter_it_cannot_update_through_a_flat_view():
    params = ParameterSet()
    t = params.add("w", np.zeros((4, 3)).T)            # a C-order flat view would be a copy
    t.grad = np.ones((3, 4))
    with pytest.raises(ValueError, match="copy"):
        tr.sgd_step(params, lr=0.1, momentum=0.9)
    assert not t.data.any()


@pytest.mark.parametrize("arch,loss,block", [("maxpool", "asoftmax", None),
                                             ("resnet", "softmax", None),
                                             ("resnet", "softmax", 256)])
def test_clipped_training_checkpoint_bytes_match_whole_array_optimizer(
        arch, loss, block, tmp_path, monkeypatch):
    """A run where clipping fires at every step writes the same checkpoint
    bytes as one through the whole-array optimizer.  At the default block
    size segment6.w spans 2 blocks; ``block`` 256 splits every weight
    matrix above 256 entries (up to 256 blocks for segment6.w)."""
    features, utt2spk = tiny_corpus(n_speakers=3, utts=4, seconds=2.0)
    cfg = tiny_config(arch=arch, resnet_blocks=2, loss=loss, grad_clip=0.05,
                      learning_rate=0.1, epochs=2, steps_per_epoch=3)
    if block is not None:
        monkeypatch.setattr(tr, "OPT_BLOCK", block)

    def run(tag, clip):
        norms = []

        def recording_clip(params, max_norm):
            norms.append(clip(params, max_norm))
            return norms[-1]

        monkeypatch.setattr(tr, "clip_gradients", recording_clip)
        result = tr.train_extractor(features, utt2spk, cfg)
        path = tmp_path / f"{tag}.ckpt"
        tr.save_train_checkpoint(path, result, cfg)
        return path.read_bytes(), norms

    new, new_norms = run("new", tr.clip_gradients)
    monkeypatch.setattr(tr, "sgd_step", ref_sgd_step)
    ref, ref_norms = run("ref", ref_clip_gradients)
    assert len(new_norms) == 6 and min(new_norms) > cfg.grad_clip
    assert new_norms == ref_norms
    assert new == ref


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
