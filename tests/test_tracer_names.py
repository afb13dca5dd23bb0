"""The library names the benchmark's tracer wraps, and the roles it reads.

``bench/spans.py`` patches module functions and layer methods by name and
tells a layer's role from its class, ``Dense.activation`` and
``Dropout.mode``. A rename there would only show in a traced benchmark run,
and a wrong role not at all; this test traces one micro training run and
checks that every per-layer metric comes out measured. It reads ``bench/``
and ``BENCHMARK.json`` and changes neither.
"""

import json
import sys
from pathlib import Path

from conftest import make_separable_dataset, micro_config

import slimrnn

REPO = Path(__file__).resolve().parents[1]


def test_every_traced_layer_role_and_boundary_is_measured(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache files in bench/
    import spans

    tracer = spans.Tracer("t")
    tracer.install(slimrnn)
    patched = list(tracer._saved)
    try:
        slimrnn.train(micro_config(epochs=1, extra_dense=True, spatial_dropout=0.2,
                                   dense_dropout=0.2), make_separable_dataset())
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)

    metrics, _ = spans.per_layer_metrics(tracer.spans)
    measured = [f"layers.{role}.{direction}_us" for role in spans.LAYER_ROLES
                for direction in ("fwd", "bwd")]
    measured += ["cells.fwd_step_us", "optimizers.clip_ms", "optimizers.step_ms"]
    assert {name: metrics[name] for name in measured if not metrics[name] > 0} == {}

    # Every derived name is one the benchmark declares; the three it does
    # not derive are set by each workload.
    declared = {m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(metrics) <= declared
    assert declared - set(metrics) == {"training.val_loss", "checkpoint.bytes",
                                       "trace.overhead_ratio"}
