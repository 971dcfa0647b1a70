"""Span tracing of spkver from outside the package.

``Tracer.install`` replaces the public functions of every spkver module
with timing wrappers, in every module namespace that holds them (so names
imported with ``from .x import y`` are covered too), plus the CLI stage
functions ``cli._cmd_*`` and ``Tensor.backward``.  Autodiff ops and the
training objectives additionally wrap the ``_backward`` closure of the
tensor they return, so backward time is attributed to the op that built
it.  Autodiff spans carry the extractor stack ("maxpool" or "resnet") of
the model whose graph is being built, taken from the nearest enclosing
call that received a model.

Spans are kept in memory as (name, start, end, parent index, run id),
where the run id numbers the CLI command the span belongs to; counts
gathered from arguments and return values sit beside them.
``Tracer.uninstall`` restores every patched attribute.
"""

from __future__ import annotations

import inspect
import os
import statistics
from collections import defaultdict
from time import perf_counter

PACKAGE_MODULES = ("frontend", "autodiff", "objectives", "training", "models",
                   "backend", "metrics", "formats", "corpus")
# Span-name prefixes whose self time counts as "seen work" inside a step.
STEP_WORK_PREFIXES = ("autodiff.", "objectives.", "training.clip_gradients",
                      "training.sgd_step")
LINE_SEARCH_LIMIT = 30   # backtracking probes per CSML step in backend.train_csml


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._open: list[int] = []
        self._stack_name: str | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._csml_probes: int | None = None

    # -- span recording -------------------------------------------------

    def _timed(self, name, fn, args, kwargs):
        spans, open_ = self.spans, self._open
        idx = len(spans)
        spans.append(None)
        parent = open_[-1] if open_ else -1
        open_.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            open_.pop()
            spans[idx] = (name, t0, t1, parent, self.run_id)

    def _wrap_plain(self, name, fn, hook=None):
        def wrapper(*args, **kwargs):
            out = self._timed(name, fn, args, kwargs)
            if hook is not None:
                hook(args, kwargs, out)
            return out
        return wrapper

    def _wrap_stage(self, name, fn):
        """A CLI command: its spans, and those below it, get a new run id."""
        def wrapper(*args, **kwargs):
            self.run_id += 1
            return self._timed(name, fn, args, kwargs)
        return wrapper

    def _wrap_model_scope(self, name, fn, model_cls):
        """Calls that take a model set the stack name for nested autodiff ops."""
        def wrapper(*args, **kwargs):
            model = args[0] if args else None
            if not isinstance(model, model_cls):
                return self._timed(name, fn, args, kwargs)
            saved, self._stack_name = self._stack_name, model.arch
            try:
                return self._timed(name, fn, args, kwargs)
            finally:
                self._stack_name = saved
        return wrapper

    def _wrap_op(self, prefix, op, fn, tensor_cls):
        """Graph op: forward span now, backward span when the closure runs."""
        def wrapper(*args, **kwargs):
            stack = self._stack_name or "other"
            base = f"{prefix}.{stack}.{op}" if prefix == "autodiff" else f"{prefix}.{op}"
            out = self._timed(base + ".fwd", fn, args, kwargs)
            if isinstance(out, tensor_cls) and out._backward is not None:
                inner = out._backward
                bname = base + ".bwd"

                def backward(g):
                    return self._timed(bname, inner, (g,), {})
                backward.stack = stack
                out._backward = backward
            return out
        return wrapper

    # -- count hooks ----------------------------------------------------

    def _hook_vad(self, args, kwargs, mask):
        self.counts["frontend.vad_kept"] += int(mask.sum())
        self.counts["frontend.vad_frames"] += int(mask.size)

    def _hook_clip(self, args, kwargs, norm):
        max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
        self.counts["training.steps"] += 1
        self.counts["training.clip_fired"] += int(max_norm > 0 and norm > max_norm)
        self.counts["training.zero_grad_norm_steps"] += int(norm == 0.0)

    def _close_csml_step(self):
        if self._csml_probes:
            self.counts["backend.csml_steps"] += 1
            self.counts["backend.csml_accepted_steps"] += int(
                self._csml_probes < LINE_SEARCH_LIMIT)
        self._csml_probes = None

    def _hook_triplet(self, args, kwargs, out):
        need_grad = kwargs.get("need_grad", args[3] if len(args) > 3 else True)
        if need_grad:
            self._close_csml_step()
            self._csml_probes = 0
        elif self._csml_probes is not None:
            self._csml_probes += 1

    def _hook_train_csml(self, args, kwargs, out):
        self._close_csml_step()

    def _hook_read(self, args, kwargs, out):
        self.counts["formats.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])

    def _hook_write(self, args, kwargs, out):
        self.counts["formats.bytes_written"] += os.path.getsize(args[0] if args else kwargs["path"])

    # -- install / uninstall --------------------------------------------

    def install(self, package) -> None:
        import importlib

        modules = {name: importlib.import_module(f"{package}.{name}")
                   for name in PACKAGE_MODULES}
        cli = importlib.import_module(f"{package}.cli")
        tensor_cls = modules["autodiff"].Tensor
        model_cls = modules["models"].ExtractorModel
        hooks = {
            "frontend.energy_vad": self._hook_vad,
            "training.clip_gradients": self._hook_clip,
            "backend.triplet_loss_and_grad": self._hook_triplet,
            "backend.train_csml": self._hook_train_csml,
            "formats.read_archive": self._hook_read,
            "formats.write_archive": self._hook_write,
        }
        replacements: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                params = list(inspect.signature(fn).parameters)
                if short in ("autodiff", "objectives"):
                    wrapped = self._wrap_op(short, attr, fn, tensor_cls)
                elif short in ("models", "training") and params and params[0] in (
                        "model", "model_or_layers"):
                    wrapped = self._wrap_model_scope(name, fn, model_cls)
                else:
                    wrapped = self._wrap_plain(name, fn, hooks.get(name))
                replacements[id(fn)] = wrapped
        for attr, fn in vars(cli).items():
            if attr.startswith("_cmd_") and inspect.isfunction(fn):
                replacements[id(fn)] = self._wrap_stage(f"cli.{attr[5:]}", fn)
        for mod in list(modules.values()) + [cli]:
            for attr, value in list(vars(mod).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

        original_backward = tensor_cls.backward
        tracer = self

        def backward(tensor):
            stack = getattr(tensor._backward, "stack", None) or tracer._stack_name or "other"
            return tracer._timed(f"autodiff.{stack}.backward_total", original_backward,
                                 (tensor,), {})
        self._patches.append((tensor_cls, "backward", original_backward))
        tensor_cls.backward = backward

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- summaries ------------------------------------------------------

    def totals(self):
        """Per span name: (inclusive seconds, self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            inclusive[name] += t1 - t0
            own[name] += t1 - t0 - child[i]
            calls[name] += 1
        return inclusive, own, calls

    def training_steps(self):
        """(step durations, share of step time covered by layer spans).

        A step runs from the start of ``training.batch_loss`` to the end of
        the ``training.sgd_step`` that follows it.  Covered time is the self
        time of autodiff, objective, clipping and update spans inside it.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        steps, covered = [], 0.0
        step_start, acc = None, 0.0
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            if name == "training.batch_loss":
                step_start, acc = t0, 0.0
            if step_start is None:
                continue
            if name.startswith(STEP_WORK_PREFIXES):
                acc += t1 - t0 - child[i]
            if name == "training.sgd_step":
                steps.append(t1 - step_start)
                covered += acc
                step_start = None
        total = sum(steps)
        return steps, (covered / total if total > 0 else 0.0)

    def layer_metrics(self, names: list[str], n_passes: int) -> dict[str, float]:
        """Values of the requested per-layer metrics, per traced pass."""
        inclusive, own, calls = self.totals()
        steps, coverage = self.training_steps()
        c = self.counts
        derived = {
            "frontend.vad_keep_ratio": c["frontend.vad_kept"] / max(1, c["frontend.vad_frames"]),
            "training.step_s": statistics.median(steps) if steps else 0.0,
            "training.span_coverage_ratio": coverage,
            "training.clip_fired_ratio": c["training.clip_fired"] / max(1, c["training.steps"]),
            "training.zero_grad_norm_steps": c["training.zero_grad_norm_steps"] / n_passes,
            "backend.csml_accepted_step_ratio":
                c["backend.csml_accepted_steps"] / max(1, c["backend.csml_steps"]),
            "formats.bytes_read": c["formats.bytes_read"] / n_passes,
            "formats.bytes_written": c["formats.bytes_written"] / n_passes,
        }
        out = {}
        for metric in names:
            if metric in derived:
                out[metric] = derived[metric]
            elif metric.endswith(".self_s"):
                out[metric] = own[metric[: -len(".self_s")]] / n_passes
            elif metric.endswith(".calls"):
                out[metric] = calls[metric[: -len(".calls")]] / n_passes
            elif metric.endswith((".fwd_s", ".bwd_s")):
                out[metric] = inclusive[metric[: -len("_s")]] / n_passes
            elif metric.endswith("_s"):         # autodiff.<stack>.backward_total_s
                out[metric] = inclusive[metric[: -len("_s")]] / n_passes
            elif metric.endswith(".s"):
                out[metric] = inclusive[metric[: -len(".s")]] / n_passes
            else:
                raise KeyError(f"no rule for per-layer metric {metric!r}")
        return out
