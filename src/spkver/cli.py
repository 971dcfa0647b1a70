"""Command-line surface over the library operations.

Subcommands: synth, mfcc, train, extract, backend-train, score, eval,
gradcheck.  Exit codes: 0 success, 1 usage error, 2 runtime failure.
The value options of synth and mfcc set fields of ``SyntheticCorpusSpec``
and ``FrontendConfig``; an option not given keeps its field's default.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import backend as bk
from . import formats as fm
from . import metrics as mt
from . import training as tr
from .corpus import SyntheticCorpusSpec, generate_synthetic_corpus
from .frontend import FrontendConfig, read_wav, voiced_features


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with status 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _at_least(option: str, value: int, low: int) -> None:
    """ValueError naming ``option`` if its ``value`` is below ``low``."""
    if value < low:
        raise ValueError(f"{option} {value}: needs at least {low}")


# The record fields whose option is not --field-name.
_FLAGS = {"utterance_s": "--seconds", "feature_dim": "--dim",
          "mixture_components": "--components", "speaker_prefix": "--prefix",
          "n_mel_filters": "--mel-filters", "n_cepstra": "--cepstra",
          "vad_energy_offset": "--vad-offset"}


def _add_record_options(parser, cls):
    """One option per field of ``cls``: ``dest`` the field, type its annotation's."""
    for f in fields(cls):
        parser.add_argument(_FLAGS.get(f.name, "--" + f.name.replace("_", "-")),
                            dest=f.name, type=fm.field_type(f))


def _record(cls, args):
    """A ``cls`` from the options given, each the field its ``dest`` names;
    a field whose option was not given keeps its default."""
    given = {f.name: getattr(args, f.name) for f in fields(cls)}
    return cls(**{name: value for name, value in given.items() if value is not None})


def _cmd_synth(args) -> int:
    spec = _record(SyntheticCorpusSpec, args)
    features, utt2spk = generate_synthetic_corpus(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fm.write_features(out / "feats.bin", features, spec.frame_shift_ms)
    fm.write_utt2spk(out / "utt2spk.txt", utt2spk)
    print(f"wrote {len(features)} utterances from {spec.n_speakers} speakers to {out}")
    return 0


def _cmd_mfcc(args) -> int:
    cfg = _record(FrontendConfig, args)
    paths = [Path(p) for p in args.wav]
    if args.wav_dir:
        if not Path(args.wav_dir).is_dir():
            raise ValueError(f"--wav-dir {args.wav_dir}: no such directory")
        paths += sorted(Path(args.wav_dir).glob("*.wav"))
    if not paths:
        raise ValueError("no input WAV files" + (f" in {args.wav_dir}" if args.wav_dir else ""))
    features, source = {}, {}
    for path in paths:
        if path.stem in source:
            raise ValueError(f"{source[path.stem]} and {path} both give utterance id "
                             f"{path.stem!r}")
        source[path.stem] = path
        waveform = read_wav(path)         # its errors name the file already
        try:
            feats = voiced_features(waveform, cfg, apply_vad=not args.no_vad,
                                    apply_cmn=not args.no_cmn)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        features[path.stem] = feats
    fm.write_features(args.out, features, cfg.frame_shift_ms)
    print(f"wrote features for {len(features)} utterances to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = fm.load_config(args.config) if args.config else fm.ExperimentConfig()
    features, meta = fm.read_features(args.features)
    utt2spk = fm.read_utt2spk(args.utt2spk)
    missing = sorted(utt2spk.keys() - features.keys())
    if missing:
        raise ValueError(f"{args.features}: no features for utt2spk id {missing[0]!r}")
    result = tr.train_extractor(features, utt2spk, cfg, log=print, resume=args.resume,
                                best_out=args.best_out, frame_shift_ms=meta["frame_shift_ms"])
    tr.save_train_checkpoint(args.out, result, cfg)
    print(f"wrote checkpoint to {args.out}")
    if args.best_out and not result.best_out_written:
        why = (f"no epoch was scored on a validation split (val_fraction = "
               f"{cfg.val_fraction:g}, or too few speakers with two usable utterances)")
        if result.best_val_eer is not None:         # restored by --resume, never beaten
            why = (f"no resumed epoch beat the restored best_val_eer "
                   f"{result.best_val_eer:g} of {args.resume}")
        raise ValueError(f"--best-out {args.best_out} not written: {why}")
    return 0


def _cmd_extract(args) -> int:
    _at_least("--threads", args.threads, 1)
    model, _ = fm.load_checkpoint(args.checkpoint, momentum=False)
    features, _ = fm.read_features(args.features)
    other = {feats.shape[1] for feats in features.values()} - {model.in_dim}
    if other:                                 # read_features gives one width
        raise ValueError(f"{args.features}: features of width {other.pop()}, but checkpoint "
                         f"{args.checkpoint} has in_dim {model.in_dim}")
    embeddings, skipped = tr.extract_embeddings(
        model, features, threads=args.threads,
        log=lambda msg: print(msg, file=sys.stderr))
    fm.write_embeddings(args.out, embeddings)
    collapse = _collapse(list(embeddings.values()))
    if collapse:
        print(f"spkver: warning: {args.out}: {collapse}", file=sys.stderr)
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as fh:
            for utt in skipped:
                fh.write(f"{utt} skipped\n")
    print(f"wrote {len(embeddings)} embeddings to {args.out} "
          f"({len(skipped)} skipped)")
    return 0


def _collapse(rows) -> str:
    """Why two or more ``rows`` are collapsed, or "" when they spread or are fewer."""
    if len(rows) < 2:
        return ""
    spread = bk.spread(rows)
    return (f"collapsed embeddings: the length-normalised rows have spread {spread:.3g}, "
            f"below {bk.SPREAD_FLOOR:g}" if spread < bk.SPREAD_FLOOR else "")


def _stack_embeddings(path, embeddings, utts) -> np.ndarray:
    """Rows of ``embeddings`` for ``utts``; a NaN, an inf or a zero-norm row names
    ``path`` and its utterance."""
    matrix = np.stack([embeddings[u] for u in utts])
    if not np.isfinite(matrix).all():
        bad = utts[np.flatnonzero(~np.isfinite(matrix).all(axis=1))[0]]
        raise ValueError(f"{path}: embedding of {bad!r} holds a non-finite value")
    zero = np.flatnonzero(np.linalg.norm(matrix, axis=1) < bk.NORM_FLOOR)
    if zero.size:
        raise ValueError(f"{path}: degenerate embedding: zero norm, utterance {utts[zero[0]]!r}")
    return matrix


def _load_labeled_embeddings(emb_path, utt2spk_path):
    """Embedding rows and speaker labels of the utterances both files name; a set
    that holds no target or no nontarget trial names ``utt2spk_path``."""
    embeddings = fm.read_embeddings(emb_path)
    utt2spk = fm.read_utt2spk(utt2spk_path)
    utts = sorted(u for u in embeddings if u in utt2spk)
    if not utts:
        raise ValueError(f"no labeled embeddings found: no utterance of {emb_path} "
                         f"is in {utt2spk_path}")
    labels = np.array([utt2spk[u] for u in utts])
    if not bk.has_both_trial_kinds(labels):
        sizes = np.unique(labels, return_counts=True)[1]
        raise ValueError(f"{utt2spk_path}: the labeled embeddings are of {sizes.size} "
                         f"speaker(s), the largest with {sizes.max()} embedding(s): a backend "
                         f"needs target and nontarget trials, so 2 speakers, one with 2 "
                         f"embeddings")
    return _stack_embeddings(emb_path, embeddings, utts), labels


def _cmd_backend_train(args) -> int:
    _at_least("--seed", args.seed, 0)
    matrix, labels = _load_labeled_embeddings(args.embeddings, args.utt2spk)
    collapse = _collapse(matrix)
    if collapse:
        raise ValueError(f"{args.embeddings}: {collapse}")
    if args.kind == "csml":
        model = bk.train_csml(matrix, labels, epochs=args.epochs, n_hard=args.n_hard,
                              max_triplets=args.max_triplets, seed=args.seed)
        what = f"cosine transform ({model.dim}x{model.dim})"
    else:
        n_rows, dim = matrix.shape
        if args.lda_dim is not None and not 0 < args.lda_dim <= dim:
            raise ValueError(f"--lda-dim {args.lda_dim}: not in [1, {dim}], the dimension of "
                             f"the embeddings in {args.embeddings}")
        n_spk = np.unique(labels).size
        if n_rows - n_spk < dim:
            print(f"spkver: warning: {args.embeddings}: {n_rows} embeddings of {n_spk} "
                  f"speakers leave {n_rows - n_spk} within-class degrees of freedom for "
                  f"{dim} dimensions, so the within-class scatter is singular",
                  file=sys.stderr)
        model = bk.plda_fit(matrix, labels, n_iter=args.em_iters,
                            lda_dim=args.lda_dim,
                            length_norm=not args.no_length_norm)
        what = "PLDA model"
    bk.save_backend(args.out, model)
    print(f"wrote {what} to {args.out}")
    return 0


def _parse_text_file(path, parse, **options):
    """``parse`` of the UTF-8 text of ``path``; a ValueError names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read(), **options)
    except ValueError as exc:                 # UnicodeDecodeError included
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_score(args) -> int:
    embeddings = fm.read_embeddings(args.embeddings)
    trials = _parse_text_file(args.trials, mt.parse_trials)
    if args.backend != "cosine" and not args.model:
        raise ValueError(f"--model is required for the {args.backend} backend")
    model = None if args.backend == "cosine" else bk.load_backend(args.model, args.backend)
    index = {}
    for utt in (u for t in trials for u in (t.enroll, t.test)):
        if utt not in embeddings:
            raise ValueError(f"trial references unknown utterance {utt!r}")
        index.setdefault(utt, len(index))
    matrix = _stack_embeddings(args.embeddings, embeddings, list(index))
    if args.center:
        arrays, _ = fm.read_archive(args.center)
        if "mean" not in arrays:
            raise ValueError(f"{args.center}: no 'mean' array to center with")
        if arrays["mean"].shape != matrix.shape[1:]:
            raise ValueError(f"{args.center}: mean has {arrays['mean'].size} entries, "
                             f"embeddings have {matrix.shape[1]}")
        if not np.isfinite(arrays["mean"]).all():
            raise ValueError(f"{args.center}: array mean holds a non-finite value")
        matrix -= arrays["mean"]
    try:
        rows = bk.scoring_rows(model, matrix)
    except ValueError as exc:
        if model is None:
            raise
        raise ValueError(f"{args.model}: {exc}") from exc
    scores = bk.score_pairs(model, rows, [index[t.enroll] for t in trials],
                            [index[t.test] for t in trials])
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(mt.write_scores(mt.ScoreSet.from_trials(trials, scores)))
    print(f"wrote {len(scores)} scores to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    for p in args.p_target:
        try:
            mt.DcfParams(p_target=p)
        except ValueError as exc:
            raise ValueError(f"--p-target {p:g}: {exc}") from exc
    score_set = _parse_text_file(args.scores, mt.parse_scores, ids=False)
    try:
        summary = mt.summarize(score_set, p_targets=tuple(args.p_target))
    except ValueError as exc:                 # a degenerate trial set
        raise ValueError(f"{args.scores}: {exc}") from exc
    if np.ptp(score_set.scores) == 0:         # EER 0.5 would be an artefact
        raise ValueError(f"{args.scores}: every score is {score_set.scores[0]:g}: "
                         f"no threshold separates the trials")
    print(f"{'metric':<18} value")
    print(f"{'EER':<18} {summary['eer'] * 100:.3f}%")
    for p in args.p_target:
        print(f"{'minDCF(p=%g)' % p:<18} {summary[f'min_dcf_p{p:g}']:.4f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


def _cmd_gradcheck(args) -> int:
    from .gradcheck_suite import run_suite

    _at_least("--samples", args.samples, 1)
    _at_least("--seed", args.seed, 0)
    failures = run_suite(samples=args.samples, seed=args.seed, log=print)
    if failures:
        raise ValueError(f"{failures} gradient check(s) exceeded tolerance")
    print("all gradient checks passed")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="spkver", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--out-dir", required=True)
    _add_record_options(p, SyntheticCorpusSpec)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("mfcc", help="extract voiced, normalized MFCC features")
    p.add_argument("--wav", nargs="*", default=[])
    p.add_argument("--wav-dir")
    p.add_argument("--out", required=True)
    _add_record_options(p, FrontendConfig)
    p.add_argument("--no-vad", action="store_true")
    p.add_argument("--no-cmn", action="store_true")
    p.set_defaults(func=_cmd_mfcc)

    p = sub.add_parser("train", help="train an embedding extractor")
    p.add_argument("--config")
    p.add_argument("--features", required=True)
    p.add_argument("--utt2spk", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--best-out")
    p.add_argument("--resume")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("extract", help="extract embeddings with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")
    p.add_argument("--threads", type=int, default=1, help="default 1")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("backend-train", help="fit a scoring backend")
    p.add_argument("--kind", choices=["csml", "lda-plda"], required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--utt2spk", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--n-hard", type=int, default=1500)
    p.add_argument("--max-triplets", type=int, default=100_000)
    p.add_argument("--em-iters", type=int, default=15)
    p.add_argument("--lda-dim", type=int, default=None)
    p.add_argument("--no-length-norm", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_backend_train)

    p = sub.add_parser("score", help="score a trial list")
    p.add_argument("--backend", choices=["cosine", "csml", "plda"], required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model", help="transform / PLDA model file")
    p.add_argument("--center", help="archive holding a 'mean' vector to subtract")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("eval", help="EER and minDCF of a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--p-target", type=float, nargs="+", default=[0.01, 0.001])
    p.add_argument("--json", help="also write a machine-readable summary")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--samples", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"spkver: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
