"""The benchmark's gradient spot check, run on micro builds.

Every benchmark workload ends with ``bench/workloads.py::spot_check``: a
single-sequence forward and backward pass, central differences from
``finite_diff``, ``bce_loss`` and ``relative_error``, compared at
``FD_TOL``. This test runs that check on micro builds, so a change that
breaks one of those paths fails tier-1 and not only a benchmark run. It
reads ``bench/`` and changes nothing there.
"""

import sys
from pathlib import Path

import pytest
from conftest import make_separable_dataset, micro_config

import slimrnn
from slimrnn import LSTM_THEN_CNN, Rng, SentimentModel

REPO = Path(__file__).resolve().parents[1]
BUILDS = {
    "default": {},
    "lstm-then-cnn": {"lstm_position": LSTM_THEN_CNN},
    "extra-dense": {"extra_dense": True},
    "lstm6": {"variant": "lstm6"},
}


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache files in bench/
    import workloads
    return workloads


def spot_check(workloads, **overrides):
    config = micro_config(**overrides)
    model = config.build(Rng(config.seed).derive(0))
    data = make_separable_dataset(maxlen=config.maxlen)
    return workloads.spot_check(slimrnn, model, data.sequences[0], int(data.labels[0]))


@pytest.mark.parametrize("build", BUILDS)
def test_spot_check_passes(workloads, build):
    ok, detail = spot_check(workloads, **BUILDS[build])
    assert ok, detail


def test_spot_check_fails_a_planted_conv_bias_error(workloads, monkeypatch):
    real_backward = SentimentModel.backward

    def planted(self, d_loss):
        grads = real_backward(self, d_loss)
        self.conv.grads["bias"] *= 1.001
        return grads

    monkeypatch.setattr(SentimentModel, "backward", planted)
    ok, detail = spot_check(workloads)
    assert not ok and detail.endswith("at conv.bias"), detail
