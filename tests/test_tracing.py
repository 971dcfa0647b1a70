"""The contract between ``spkver`` and the benchmark's span tracer.

``perfbench/tracing.py`` times each autodiff op's backward by replacing the
``_backward`` closure of the tensor the op returns, and times the whole pass
by wrapping ``Tensor.backward``.  One tiny training step of each extractor
stack runs under the tracer: every per-layer autodiff metric the benchmark
declares must have its span, and the parameter gradients must equal an
untraced step's bit for bit."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from spkver import training as tr
from spkver.formats import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def declared_spans(prefix):
    """Span names of the benchmark's per-layer metrics that start with ``prefix``."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"][: -len("_s")] for m in metrics if m["name"].startswith(prefix)}


def gradients_of_one_step(model, segments, labels, cfg):
    for t in model.params.values():
        t.grad = None
    tr.batch_loss(model, segments, labels, cfg, 0.5).backward()
    return {name: t.grad.copy() for name, t in model.params.items()}


@pytest.mark.parametrize("arch,loss", [("maxpool", "asoftmax"), ("resnet", "softmax")])
def test_tracer_times_each_backward_and_changes_no_gradient(arch, loss):
    cfg = ExperimentConfig(arch=arch, resnet_blocks=2, loss=loss, width_scale=0.125, seed=5)
    model = tr.build_model(cfg, 6)
    rng = np.random.default_rng(31)
    segments = [rng.standard_normal((120, model.in_dim)) for _ in range(4)]
    labels = rng.integers(0, 6, size=4)
    expected = gradients_of_one_step(model, segments, labels, cfg)

    tracer = load_tracer_class()()
    tracer.install("spkver")
    try:
        traced = gradients_of_one_step(model, segments, labels, cfg)
    finally:
        tracer.uninstall()

    names = {span[0] for span in tracer.spans}
    objective = {"asoftmax": "asoftmax_loss", "softmax": "softmax_ce"}[loss]
    wanted = declared_spans(f"autodiff.{arch}.") | declared_spans(f"objectives.{objective}.")
    assert f"autodiff.{arch}.backward_total" in wanted
    assert not wanted - names, sorted(wanted - names)
    for name, grad in expected.items():
        assert traced[name].tobytes() == grad.tobytes(), name
