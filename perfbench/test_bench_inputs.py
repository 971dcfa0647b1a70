"""The benchmark's seeded input generators are deterministic.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import hashlib
from pathlib import Path

import inputs
from plans import PLANS

SEEDED = ("corpus_feats.bin", "embeddings.bin", "emb_trials.txt", "tied_scores.txt")


def _generate(root: Path, seed: int) -> dict[str, str]:
    plan = PLANS["train"]          # 128-d embeddings; both plans share the WAV set
    root.mkdir()
    inputs.write_wavs(plan, seed, root)
    inputs.training_corpus(plan, seed, root)
    inputs.two_cov_embeddings(plan, seed, root)
    inputs.tied_scores(2000, seed, root)
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    assert _generate(tmp_path / "a", 5) == _generate(tmp_path / "b", 5)


def test_other_seed_changes_every_seeded_file(tmp_path):
    a = _generate(tmp_path / "a", 5)
    b = _generate(tmp_path / "b", 6)
    assert a.keys() == b.keys()
    changed = {k for k in a if a[k] != b[k]}
    assert set(SEEDED) <= changed
    assert all(k in changed for k in a if k.startswith("wav/"))
