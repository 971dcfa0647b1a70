"""spkver benchmark: seeded workloads driven through the CLI in-process.

    python3 perfbench/run.py --workload {train,score} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The benchmark

1. writes the workload's inputs from ``--seed`` (``inputs.py``, in a child
   interpreter, under ``.perfbench_work/``);
2. times set-up (``setup_probe.py``) in fresh interpreters and keeps the
   median (``--trace 0`` only);
3. runs the stage sequence through ``spkver.cli.main`` in this process,
   one client in a closed loop, in rounds until ``--seconds`` have passed
   (see ``Bench.run_rounds``);
4. checks the program's outputs and fails the run when a check fails;
5. prints a summary, then one JSON line: with ``--trace 0`` the end-to-end
   metrics, with ``--trace 1`` the per-layer metrics of one traced round
   of every stage, plus the tracing overhead against an untraced round of
   the same work.

Metric names and units come from ``BENCHMARK.json`` at the repository
root.  Traced spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import gc
import glob
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, thread_time

# One BLAS thread, set before numpy loads OpenBLAS (children inherit it).
# On the 2-vCPU host the benchmark was defined on, a second OpenBLAS thread
# made the small LAPACK calls of per-trial PLDA scoring twice as slow, and
# whenever the host preempted one vCPU the other spun for it, so stage
# times swung by up to ten times between runs.  An explicit setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from plans import PLANS, train_configs  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
CHECK_SAMPLE = 200            # trials per backend compared with the reference
REF_TOL = 1e-9
FILLER_TURN_S = 0.3           # see Bench.run_rounds
HOST_PROBE_REF_S = 0.75e-3    # one host_speed() probe at the reference speed
HOST_PROBE_REPEATS = 9
DENSE_PROBE_REF_S = 4.0e-3    # one dense_speed() probe at the reference speed
DENSE_PROBE_REPEATS = 2
DENSE_STAGES = ("train", "extract")   # timed against dense_speed(); see Bench.stage
PROBE_PERIOD_S = 0.25         # host speed probes during a stage run
MAX_STAGE_RUNS = 2000
BACKENDS = ("cosine", "csml", "plda")
P_TARGET = "0.01"


class BenchError(Exception):
    """A stage failed or an output check did not hold."""


def child_env() -> dict:
    env = dict(os.environ)
    parts = [str(SRC), str(BENCH_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def run_child(argv: list[str], timeout: float) -> str:
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it can be asked."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "cpu": platform.processor() or None, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "blas_env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


_PROBE_VEC = np.linspace(-1.0, 1.0, 512)
_PROBE_MAT = np.outer(np.linspace(0.5, 1.5, 128), np.linspace(-1.0, 1.0, 128))


def host_speed() -> float:
    """Speed of the host now, relative to the machine the benchmark was defined on.

    Times a fixed mix of the program's kinds of work (interpreter loop,
    small-vector numpy calls, a small GEMM); 1.0 is the reference speed.
    The shared host drifts by up to 3x over minutes, so stage durations
    are scaled by this factor to reference-host seconds.
    """
    samples = []
    for _ in range(HOST_PROBE_REPEATS):
        t0 = thread_time()
        acc = 0
        for k in range(5000):
            acc += k
        for _ in range(40):
            float(np.dot(_PROBE_VEC, _PROBE_VEC))
            np.linalg.norm(_PROBE_VEC)
        for _ in range(4):
            _PROBE_MAT @ _PROBE_MAT
        samples.append(thread_time() - t0)
    return HOST_PROBE_REF_S / statistics.median(samples)


_DENSE_X = np.linspace(-1.0, 1.0, 204 * 256).reshape(204, 256)
_DENSE_W = np.linspace(-0.05, 0.05, 1280 * 256).reshape(1280, 256)


def dense_speed() -> float:
    """Like ``host_speed``, but for the work of a time-delay layer.

    Stacks five shifted frames of a 200 x 256 activation into a fresh
    200 x 1280 array, multiplies it by a 1280 x 256 weight and applies a
    leaky rectifier: the copies, large GEMM and fresh memory the TDNN
    stacks spend their time in.  Training and extraction times follow this
    probe on the reference host; when the host gets faster they gain only
    about half of what ``host_speed`` gains.
    """
    samples = []
    for _ in range(DENSE_PROBE_REPEATS):
        t0 = thread_time()
        stacked = np.concatenate([_DENSE_X[k:k + 200] for k in range(5)], axis=1)
        out = stacked @ _DENSE_W
        np.maximum(out, 0.25 * out)
        samples.append(thread_time() - t0)
    return DENSE_PROBE_REF_S / min(samples)


class Bench:
    """One workload's inputs, stage commands, measured rounds and output checks."""

    def __init__(self, workload: str, inputs: Path, work: Path):
        from spkver import backend, cli, formats, metrics, models, training

        self.bk, self.fm, self.mt, self.md, self.tr = backend, formats, metrics, models, training
        self.cli_main = cli.main
        self.plan = PLANS[workload]
        self.inputs = inputs
        self.work = work
        self.manifest = json.loads((inputs / "manifest.json").read_text())
        self.accounts: dict[str, list[int]] = {}
        self.frames_trained = 0
        self.stage_frames: dict[str, int] = {}
        self._count_training_frames()

        self.configs = {}
        for arch, cfg in train_configs(self.plan).items():
            path = work / f"{arch}.ini"
            path.write_text(formats.dump_config(cfg))
            self.configs[arch] = path
        self.embeddings = inputs / "embeddings.bin"
        self.dev_utt2spk = inputs / "emb_dev_utt2spk.txt"
        self.trials = inputs / "emb_trials.txt"
        self.n_trials = self.manifest["embeddings"]["n_trials"]
        self.n_tied = self.manifest.get("tied", {}).get("n_trials", 0)
        durations = self.manifest["wav"]["durations"]
        self.audio_s = sum(durations.values())
        self.n_wavs = len(durations)
        self.kept_frames: int | None = None     # known after the first mfcc stage
        self.commands = self._commands()
        self.last_probe = (host_speed, host_speed())   # the probe ending the last run

    def _count_training_frames(self):
        """Count frames per training batch; the only hook of an untraced run."""
        original = self.tr.batch_loss

        @functools.wraps(original)
        def batch_loss(model, segments, *args, **kwargs):
            self.frames_trained += sum(seg.shape[0] for seg in segments)
            return original(model, segments, *args, **kwargs)
        self.tr.batch_loss = batch_loss

    def _commands(self) -> dict[str, list[str]]:
        w, i, p = self.work, self.inputs, self.plan
        ckpt = w / "resnet.ckpt" if p.extract_with == "trained" else i / "random_resnet.ckpt"
        cmds = {"mfcc": ["mfcc", "--wav-dir", i / "wav", "--out", w / "feats.bin"]}
        for arch, ini in self.configs.items():
            cmds[f"train.{arch}"] = ["train", "--config", ini, "--features", i / "corpus_feats.bin",
                                     "--utt2spk", i / "corpus_utt2spk.txt",
                                     "--out", w / f"{arch}.ckpt"]
        cmds["extract"] = ["extract", "--checkpoint", ckpt, "--features", w / "feats.bin",
                           "--out", w / "embeddings.bin", "--manifest", w / "skipped.txt",
                           "--threads", "1"]
        common = ["--embeddings", self.embeddings, "--utt2spk", self.dev_utt2spk]
        cmds["backend.csml"] = ["backend-train", "--kind", "csml", *common,
                                "--out", w / "csml.bin", "--seed", "0",
                                "--epochs", p.csml["epochs"], "--n-hard", p.csml["n_hard"],
                                "--max-triplets", p.csml["max_triplets"]]
        cmds["backend.plda"] = ["backend-train", "--kind", "lda-plda", *common,
                                "--out", w / "plda.bin", "--lda-dim", p.plda["lda_dim"],
                                "--em-iters", p.plda["em_iters"]]
        models = {"cosine": [], "csml": ["--model", w / "csml.bin"],
                  "plda": ["--model", w / "plda.bin"]}
        for b in BACKENDS:
            cmds[f"score.{b}"] = ["score", "--backend", b, "--embeddings", self.embeddings,
                                  "--trials", self.trials, "--out", w / f"scores_{b}.txt",
                                  *models[b]]
            cmds[f"eval.{b}"] = ["eval", "--scores", w / f"scores_{b}.txt",
                                 "--p-target", P_TARGET, "--json", w / f"eval_{b}.json"]
        if self.n_tied:
            cmds["eval.tied"] = ["eval", "--scores", i / "tied_scores.txt",
                                 "--p-target", P_TARGET, "--json", w / "eval_tied.json"]
        return {k: [str(a) for a in v] for k, v in cmds.items()}

    def stage_options(self) -> dict[str, list[str]]:
        """Every stage's CLI options, with paths relative to the run directories."""
        def rel(arg):
            for base, tag in ((self.work, "<work>"), (self.inputs, "<inputs>")):
                if arg.startswith(str(base)):
                    return tag + arg[len(str(base)):]
            return arg
        return {k: [rel(a) for a in v] for k, v in self.commands.items()}

    # -- stages --------------------------------------------------------

    def account(self, stage: str, attempted: int, failed: int = 0):
        entry = self.accounts.setdefault(stage, [0, 0])
        entry[0] += attempted
        entry[1] += failed

    def stage(self, key: str, ops: int) -> float:
        """Run one CLI command; returns its duration in reference-host seconds.

        The duration is the calling thread's CPU time (``time.thread_time``),
        which leaves out the time other processes run in its place, scaled
        by the mean host speed over the run: probed just before it, every
        ``PROBE_PERIOD_S`` during it (from a SIGALRM handler, whose own CPU
        time is subtracted) and just after it.  The shared host's speed
        changes within a second, so probes next to and inside the run track
        it far better than probes averaged over a longer window.

        The probe is of the stage's kind of work: ``dense_speed`` for the
        model stages (``DENSE_STAGES``), ``host_speed`` for the others.
        Scaled by ``host_speed``, extraction read up to a quarter slower
        whenever the host was in its fast phase.
        """
        stage = key.split(".")[0]
        out, err = io.StringIO(), io.StringIO()
        frames0 = self.frames_trained
        probe = dense_speed if stage in DENSE_STAGES else host_speed
        speeds = [self.last_probe[1] if self.last_probe[0] is probe else probe()]
        probe_cpu = 0.0

        def on_alarm(signum, frame):
            nonlocal probe_cpu
            c0 = thread_time()
            speeds.append(probe())
            probe_cpu += thread_time() - c0

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            t0 = thread_time()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli_main(self.commands[key])
            cpu = thread_time() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        speeds.append(probe())
        self.last_probe = (probe, speeds[-1])
        self.stage_frames[key] = self.frames_trained - frames0
        self.account(stage, ops, ops if code != 0 else 0)
        if code != 0:
            raise BenchError(f"stage {key} exited with {code}: {err.getvalue()[-2000:]}")
        return (cpu - probe_cpu) * statistics.fmean(speeds)

    def stage_ops(self) -> dict[str, int]:
        """Stage keys in pipeline order -> operations one run of the stage attempts."""
        ops = {"mfcc": self.n_wavs}
        ops.update({f"train.{arch}": 1 for arch in self.configs})
        ops.update({"extract": self.n_wavs, "backend.csml": 1, "backend.plda": 1})
        ops.update({f"score.{b}": self.n_trials for b in BACKENDS})
        ops.update({f"eval.{b}": self.n_trials for b in BACKENDS})
        if self.n_tied:
            ops["eval.tied"] = self.n_tied
        return ops

    def run_rounds(self, seconds: float) -> dict[str, list[float]]:
        """Closed loop, one client: stage key -> duration of each of its runs.

        Stages run in pipeline order, round after round, until a full first
        round is done and ``seconds`` have elapsed (``seconds`` 0: exactly
        one round).  From the second round on, every stage is followed by
        one "filler" turn (runs of one stage adding up to at least
        ``FILLER_TURN_S``), taken in rotation from every stage but the
        plan's ``round_only`` ones, so the short stages collect many runs
        spread over the whole window.  A re-run rewrites the same outputs.
        """
        ops = self.stage_ops()
        times: dict[str, list[float]] = {key: [] for key in ops}
        fillers = [key for key in ops if key not in self.plan.round_only]
        turn = 0
        # The CLI normally runs in a fresh interpreter: keep the collector
        # from walking the benchmark's own objects on every full collection.
        gc.collect()
        gc.freeze()
        t0 = perf_counter()
        for step in range(MAX_STAGE_RUNS):
            key = list(ops)[step % len(ops)]
            times[key].append(self.stage(key, ops[key]))
            if self.kept_frames is None:
                self.kept_frames = self._expected_extraction()[1]
            if step >= len(ops) and seconds > 0:
                filler = fillers[turn % len(fillers)]
                turn_s = 0.0
                while turn_s < FILLER_TURN_S:
                    times[filler].append(self.stage(filler, ops[filler]))
                    turn_s += times[filler][-1]
                turn += 1
            if step + 1 >= len(ops) and perf_counter() - t0 >= seconds:
                break
        return times

    # -- checks --------------------------------------------------------

    def _expected_extraction(self):
        """(utterances the extractor must keep, their frames, ones it must skip)."""
        feats, _ = self.fm.read_features(self.work / "feats.bin")
        if set(feats) != set(self.manifest["wav"]["durations"]):
            raise BenchError("mfcc: feature archive does not hold one matrix per WAV")
        need = self.md.receptive_field(self.md.build_res_net(3, 2, width_scale=0.25))
        short = set(self.manifest["wav"]["short"])
        kept = {u for u, f in feats.items() if f.shape[0] >= need}
        if kept & short or (set(feats) - kept) != short:
            raise BenchError(f"mfcc: VAD-kept lengths disagree with the designed short "
                             f"clips (receptive field {need} frames)")
        return kept, sum(feats[u].shape[0] for u in kept), short

    def check(self) -> dict:
        """Check the outputs of the last runs; returns the quality metrics."""
        fm, mt, bk = self.fm, self.mt, self.bk
        kept, _, short = self._expected_extraction()
        embeddings = fm.read_embeddings(self.work / "embeddings.bin")
        skipped = set((self.work / "skipped.txt").read_text().split()) - {"skipped"}
        unexpected = (kept - set(embeddings)) | (skipped - short) | (set(embeddings) - kept)
        if unexpected:
            self.account("extract", 0, len(unexpected))
            raise BenchError(f"extract: {len(unexpected)} utterances kept or skipped wrongly, "
                             f"e.g. {sorted(unexpected)[:3]}")
        if len(embeddings) != len(kept):
            raise BenchError("extract: embedding count differs from utterances kept")

        final_losses = []
        for arch in self.configs:
            _, meta = fm.read_archive(self.work / f"{arch}.ckpt")
            history = meta["extra"]["history"]
            if len(history) != self.plan.train.epochs or not all(
                    "val_eer" in h and np.isfinite(h["loss"]) for h in history):
                raise BenchError(f"train.{arch}: history lacks an epoch, a finite loss "
                                 f"or a validation EER: {history}")
            final_losses.append(history[-1]["loss"])

        trial_text = self.trials.read_text()
        trials = mt.parse_trials(trial_text)
        embs = fm.read_embeddings(self.embeddings)
        rng = np.random.default_rng(12345)
        sample = np.sort(rng.choice(len(trials), size=min(CHECK_SAMPLE, len(trials)),
                                    replace=False))
        e1 = np.stack([embs[trials[k].enroll] for k in sample])
        e2 = np.stack([embs[trials[k].test] for k in sample])
        quality = {}
        for b in BACKENDS:
            text = (self.work / f"scores_{b}.txt").read_text()
            parsed = mt.parse_scores(text)
            if mt.write_scores(parsed) != text:
                raise BenchError(f"score.{b}: score file does not parse back exactly")
            if parsed.trials != trials:
                raise BenchError(f"score.{b}: score file trials differ from the trial list")
            ref = self._reference_scores(b, e1, e2)
            got = parsed.scores[sample]
            worst = float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))
            if not worst <= REF_TOL:
                self.account("score", 0, int(np.sum(np.abs(got - ref) > REF_TOL)))
                raise BenchError(f"score.{b}: scores differ from the vectorised reference "
                                 f"by {worst:.3g}")
            summary = json.loads((self.work / f"eval_{b}.json").read_text())
            self._check_eval(f"eval.{b}", summary, parsed)
            quality[f"eer.{b}"] = summary["eer"]
            if b == "plda":
                quality["min_dcf.plda"] = summary[f"min_dcf_p{float(P_TARGET):g}"]
        if self.n_tied:
            parsed = mt.parse_scores((self.inputs / "tied_scores.txt").read_text())
            summary = json.loads((self.work / "eval_tied.json").read_text())
            self._check_eval("eval.tied", summary, parsed)
        quality["train_loss"] = float(np.mean(final_losses))
        return quality

    def _check_eval(self, key, summary, parsed):
        mt = self.mt
        p = float(P_TARGET)
        if summary["eer"] != mt.compute_eer(parsed) or summary[f"min_dcf_p{p:g}"] != \
                mt.compute_min_dcf(parsed, mt.DcfParams(p_target=p)):
            raise BenchError(f"{key}: eval --json disagrees with compute_eer/compute_min_dcf")

    def _reference_scores(self, backend: str, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
        """Vectorised scores of the sampled trials from the written model files."""
        def cosine(a, b):
            return (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        if backend == "cosine":
            return cosine(e1, e2)
        arrays, meta = self.fm.read_archive(self.work / f"{backend}.bin")
        if backend == "csml":
            a = arrays["transform"]
            return cosine(e1 @ a.T, e2 @ a.T)
        lda = None
        if "lda" in arrays:
            lda = self.bk.LdaProjection(arrays["lda"], arrays["lda_eigenvalues"])
        model = self.bk.PldaModel(arrays["mean"], arrays["between"], arrays["within"],
                                  lda=lda, length_norm=meta["length_norm"])
        return self.bk.plda_score_many(model, e1, e2)


def end_to_end(bench: Bench, times: dict[str, list[float]], setup_s: float,
               rss_mb: float, quality: dict) -> dict:
    """Stage metrics from the median run time of each command in the window.

    Runs of short stages are spread over the window (``Bench.run_rounds``),
    so the median discards the runs that a burst of host contention hit.
    """
    def med(keys):
        """Summed median run time of a group of commands."""
        return sum(statistics.median(times[k]) for k in keys)

    trains = [f"train.{arch}" for arch in bench.configs]
    evals = [k for k in times if k.startswith("eval.")]
    eval_work = sum(bench.n_tied if k == "eval.tied" else bench.n_trials for k in evals)
    out = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "train_frames_per_s": sum(bench.stage_frames[k] for k in trains) / med(trains),
        "mfcc_audio_s_per_s": bench.audio_s / med(["mfcc"]),
        "extract_frames_per_s": bench.kept_frames / med(["extract"]),
        "csml_fit_s": med(["backend.csml"]),
        "plda_fit_s": med(["backend.plda"]),
        "eval_trials_per_s": eval_work / med(evals),
    }
    for b in BACKENDS:
        out[f"score_trials_per_s.{b}"] = bench.n_trials / med([f"score.{b}"])
    out.update(quality)
    return out


def write_trace(tracer, workload: str, seed: int) -> Path:
    OUT_ROOT.mkdir(exist_ok=True)
    names: dict[str, int] = {}
    spans = [[names.setdefault(n, len(names)), round(t0, 7), round(t1, 7), parent, run]
             for n, t0, t1, parent, run in tracer.spans]
    path = OUT_ROOT / f"trace-{workload}-s{seed}.json"
    path.write_text(json.dumps({"names": list(names), "counts": dict(tracer.counts),
                                "spans": spans}, separators=(",", ":")))
    return path


def measure(args, spec: dict, bench: Bench) -> dict:
    inputs = bench.inputs
    print("# stages " + json.dumps(bench.stage_options(), sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    if not args.trace:
        setups = [json.loads(run_child([str(BENCH_DIR / "setup_probe.py"), "--workload",
                                        args.workload, "--inputs", str(inputs)],
                                       timeout=120).splitlines()[-1])["setup_s"]
                  for _ in range(SETUP_REPEATS)]
        times = bench.run_rounds(args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = end_to_end(bench, times, statistics.median(setups), rss_mb, bench.check())
        names = [m["name"] for m in spec["end_to_end"]]
        print("# setup_s runs " + " ".join(f"{t:.4f}" for t in setups))
        print("# stage runs " + " ".join(f"{key}={sum(v):.4f}/{len(v)}"
                                         for key, v in times.items()))
    else:
        from tracing import Tracer

        untraced = perf_counter()
        bench.run_rounds(0.0)             # one round: every stage once
        untraced = perf_counter() - untraced
        tracer = Tracer()
        tracer.install("spkver")
        try:
            traced = perf_counter()
            bench.run_rounds(0.0)
            traced = perf_counter() - traced
        finally:
            tracer.uninstall()
        names = [m["name"] for m in spec["per_layer"]]
        values = tracer.layer_metrics([n for n in names if not n.startswith("trace.")], 1)
        values["trace.overhead_s"] = traced - untraced
        values["trace.overhead_ratio"] = traced / untraced - 1.0
        bench.check()
        print(f"# spans written to {write_trace(tracer, args.workload, args.seed)}")
        inclusive, own, calls = tracer.totals()
        for name in sorted(own, key=own.get, reverse=True)[:15]:
            print(f"# self {own[name]:9.4f} s  {calls[name]:7d} calls  {name}")

    for name in names:
        print(f"{name:<40} {values[name]:>14.6g} {units[name]}")
    for stage, (att, fail) in bench.accounts.items():
        print(f"# stage {stage:<8} attempted {att:>8} failed {fail}")
    return {n: {"value": float(values[n]), "unit": units[n]} for n in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PLANS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spkver" / "cli.py").is_file():
        print(f"perfbench: no spkver sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    print("# machine " + json.dumps(machine_record(), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")

    work = WORK_ROOT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    inputs = work / "inputs"
    bench = None
    try:
        work.mkdir(parents=True)
        run_child([str(BENCH_DIR / "inputs.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--out", str(inputs)], timeout=300)
        import spkver

        if not Path(spkver.__file__).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"imported spkver from {spkver.__file__}, not from {SRC}")
        bench = Bench(args.workload, inputs, work)
        metrics = measure(args, spec, bench)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        accounts = bench.accounts.values() if bench else []
        print(json.dumps({"correct": False,
                          "attempted": max(1, sum(a for a, _ in accounts)),
                          "failed": max(1, sum(f for _, f in accounts)),
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(a for a, _ in bench.accounts.values())
    failed = sum(f for _, f in bench.accounts.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
