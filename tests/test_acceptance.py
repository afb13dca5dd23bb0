"""Acceptance suite: one check per shipped guarantee, one printed verdict each.

Run with ``pytest tests/test_acceptance.py`` (capture is off by default for
this repo, so the ACCEPTANCE lines land in the terminal and in redirected
logs). The soft-reproduction check needs a real tweet CSV and is skipped
unless SLIMRNN_GOP_CSV points at one; a miss there is reported as xfail so
it never gates the suite.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_separable_dataset, micro_config

from slimrnn import (
    Adam,
    CellState,
    DEFAULT_ALPHA,
    ExperimentConfig,
    RMSprop,
    Rng,
    SGD,
    Variant,
    build_vocab,
    count_params,
    encode_dataset,
    evaluate,
    ingest_csv,
    load_checkpoint,
    run_sweep,
    save_checkpoint,
    select_binary,
    train,
)
from slimrnn.cells import init_params, sequence_forward
from slimrnn.gradcheck import SEEDS, TOL, check_all


def record(slug: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {slug}: {verdict} [{detail}]")
    assert ok, f"{slug}: {detail}"


def test_gradient_suite():
    start = time.monotonic()
    reports = check_all()
    elapsed = time.monotonic() - start
    worst = max(r.max_rel_err for r in reports)
    ok = all(r.passed for r in reports) and elapsed < 120.0
    failed = [r.target for r in reports if not r.passed]
    detail = (f"7 cells plus model at {TOL:g} on seeds {SEEDS[0]}-{SEEDS[-1]}, "
              f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    if failed:
        detail += f", failed: {failed}"
    record("gradient-suite", ok, detail)


def test_parameter_accounting():
    rng = Rng(5150)
    checked = 0
    for variant in Variant:
        for d in range(1, 17):
            for n in range(1, 17):
                params = init_params(variant, d, n, rng.derive(checked))
                entries = sum(arr.size for arr in params.tensors.values())
                assert entries == count_params(variant, d, n), (variant, d, n)
                checked += 1

    # Cost ordering across variants. Strictness needs n >= 3: a pointwise
    # gate with bias costs 2n per gate while a recurrent matrix costs n^2,
    # and 2n >= n^2 whenever n <= 2.
    chain = (Variant.LSTM6, Variant.LSTM3, Variant.LSTM4,
             Variant.LSTM5, Variant.LSTM2, Variant.LSTM1, Variant.LSTM0)
    for d in (1, 4, 16, 128):
        for n in (3, 5, 16, 64):
            costs = [count_params(v, d, n) for v in chain]
            assert costs[1] == costs[2], (d, n)  # lstm3 and lstm4 tie
            trimmed = costs[:2] + costs[3:]
            assert all(a < b for a, b in zip(trimmed, trimmed[1:])), (d, n)

    spots = {Variant.LSTM0: 49408, Variant.LSTM1: 24832,
             Variant.LSTM3: 12544, Variant.LSTM6: 12352}
    for variant, expected in spots.items():
        assert count_params(variant, 128, 64) == expected

    record("parameter-accounting", True,
           f"{checked} exhaustive entry matches over 1<=d,n<=16, "
           f"ordering strict for n>=3, spot values at d=128 n=64")


def test_gate_range():
    draws = 10_000
    rng = Rng(90210)
    worst_margin = 1.0
    for index, variant in enumerate(Variant):
        stream = rng.derive(index)
        dims = stream.uniform((draws, 2))
        for k in range(draws):
            d = 1 + int(dims[k, 0] * 6.0)
            n = 1 + int(dims[k, 1] * 5.0)
            params = init_params(variant, d, n, stream.derive(k))
            x = stream.uniform((d,), -2.0, 2.0)
            h = stream.uniform((n,), -1.0, 1.0)
            c0 = np.full((1, n), 0.5)
            hs, cache = sequence_forward(params, x.reshape(1, 1, d),
                                         CellState(h[None].copy(), c0))
            if variant is Variant.LSTM6:
                # i = 1, f = alpha, o = 1: the state update reduces to
                # c = alpha c0 + c_hat and h = tanh(c), bit for bit
                assert cache.gates is None
                assert np.all(cache.c[1] == DEFAULT_ALPHA * c0 + cache.c_hat[0])
                assert np.all(hs[0] == np.tanh(cache.c[1]))
            else:
                for gate in np.split(cache.gates[0, 0], 3):
                    assert np.all(gate > 0.0) and np.all(gate < 1.0)
                    margin = min(gate.min(), float(1.0 - gate.max()))
                    worst_margin = min(worst_margin, float(margin))
    record("gate-range", True,
           f"{draws} draws per variant, lstm0-5 strictly inside (0,1) "
           f"(tightest margin {worst_margin:.2e}), lstm6 exactly "
           f"(1, {DEFAULT_ALPHA}, 1)")


def test_lstm6_decay_law():
    rng = Rng(31337)
    worst = 0.0
    for trial in range(5):
        stream = rng.derive(trial)
        d, n, horizon = 4, 6, 50
        params = init_params(Variant.LSTM6, d, n, stream)
        for name in ("W_c", "U_c", "b_c"):
            params.tensors[name][...] = 0.0
        c0 = stream.uniform((n,), -1.0, 1.0)
        init = CellState(stream.uniform((1, n), -1.0, 1.0), c0[None])
        xs = stream.uniform((horizon, 1, d), -2.0, 2.0)
        _, cache = sequence_forward(params, xs, init)
        for t in range(1, horizon + 1):
            gap = float(np.linalg.norm(cache.c[t, 0] - DEFAULT_ALPHA ** t * c0))
            worst = max(worst, gap)
    ok = worst <= 1e-12
    record("lstm6-decay", ok,
           f"zeroed candidate, 5 trials, T<=50: max |c_T - a^T c_0| = {worst:.2e}")


def test_optimizer_steps():
    w = {"w": np.array([1.0])}
    RMSprop(lr=0.01).apply_update(w, {"w": np.array([1.0])})
    rms_err = abs(w["w"][0] - 0.9683772243983162)

    w = {"w": np.array([1.0])}
    Adam(lr=0.001).apply_update(w, {"w": np.array([0.5])})
    adam_err = abs(w["w"][0] - 0.99900000002)

    monotone = []
    for opt in (SGD(lr=0.1), RMSprop(lr=0.05), Adam(lr=0.01)):
        params = {"w": np.array([3.0, -2.0])}
        losses = []
        for _ in range(100):
            losses.append(0.5 * float(params["w"] @ params["w"]))
            opt.apply_update(params, {"w": params["w"].copy()})
        losses.append(0.5 * float(params["w"] @ params["w"]))
        steps_ok = all(b - a <= 1e-12 for a, b in zip(losses, losses[1:]))
        monotone.append(steps_ok and losses[-1] < losses[0])

    ok = rms_err <= 1e-10 and adam_err <= 1e-10 and all(monotone)
    record("optimizer-steps", ok,
           f"rmsprop first step off by {rms_err:.1e}, adam by {adam_err:.1e}, "
           f"sgd/rmsprop/adam monotone over 100 quadratic steps")


def test_overfit_oracle():
    dataset = make_separable_dataset(total=36)
    budget = 20  # four times the epochs the slowest variant needs to reach 100%
    results = []
    for variant in Variant:
        config = micro_config(variant=variant.value, vocab_size=12,
                              embed_dim=8, conv_filters=6, hidden=6,
                              lr=0.01, epochs=budget, split_ratio=1.0 / 9.0)
        start = time.monotonic()
        _, report = train(config, dataset)
        elapsed = time.monotonic() - start
        first = next((e.epoch + 1 for e in report.epochs if e.train_accuracy == 100.0), None)
        results.append((variant.value, first, elapsed))

    ok = all(first is not None and secs < 60.0 for _, first, secs in results)
    train_size = 36 - int(np.ceil(36 / 9.0))
    slowest = max(results, key=lambda r: r[2])
    firsts = ", ".join(f"{name} {first or 'never'}" for name, first, _ in results)
    record("overfit-oracle", ok,
           f"{train_size} train rows, {budget} epochs, first epoch at 100%: {firsts} "
           f"(slowest {slowest[0]}: {slowest[2]:.2f}s)")


def test_determinism():
    payloads = []
    for _ in range(2):
        dataset = make_separable_dataset()
        config = micro_config(spatial_dropout=0.3, dense_dropout=0.2)
        _, report = train(config, dataset)
        payloads.append(report.to_json().encode("utf-8"))
    ok = payloads[0] == payloads[1]
    record("determinism", ok,
           f"two runs, identical config and seed: {len(payloads[0])} "
           f"byte reports {'match' if ok else 'differ'}")


def test_checkpoint_round_trip(tmp_path):
    dataset = make_separable_dataset()
    config = micro_config(epochs=1)
    model, _ = train(config, dataset)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(str(path), model, config)
    restored, _, _ = load_checkpoint(str(path))

    exact = all(model.forward(seq) == restored.forward(seq)
                for seq in dataset.sequences)
    before, after = evaluate(model, dataset), evaluate(restored, dataset)
    ok = exact and before == after
    record("checkpoint-roundtrip", ok,
           f"{len(dataset)} per-row probabilities and the evaluation "
           f"report {'are bit-identical' if ok else 'DIFFER'} after reload")


GOP_CSV = os.environ.get("SLIMRNN_GOP_CSV", "")


@pytest.mark.skipif(not GOP_CSV, reason="set SLIMRNN_GOP_CSV to a labeled "
                    "tweet CSV to run the desk-scale reproduction")
def test_soft_reproduction():
    base_config = ExperimentConfig(seed=0, variant="lstm0", optimizer="adam",
                                   lr=1e-4, batch_size=32, epochs=10,
                                   split_ratio=0.4)
    records, _ = ingest_csv(GOP_CSV, base_config.text_column, base_config.label_column)
    binary = select_binary(records)
    vocab = build_vocab([r.text for r in binary], base_config.vocab_size)
    dataset = encode_dataset(binary, vocab, base_config.maxlen)

    _, base_report = train(base_config, dataset)
    _, slim_report = train(replace(base_config, variant="lstm6"), dataset)
    base_acc = base_report.final.overall_accuracy
    slim_acc = slim_report.final.overall_accuracy

    ok = base_acc >= 75.0 and abs(base_acc - slim_acc) <= 5.0
    verdict = "PASS" if ok else "FAIL"
    detail = (f"lstm0 {base_acc:.2f}% overall (bar: 75%), lstm6 "
              f"{slim_acc:.2f}% (bar: within 5 points)")
    print(f"\nACCEPTANCE soft-reproduction: {verdict} [{detail}]")
    if not ok:
        pytest.xfail(f"desk-scale bar missed: {detail}")  # informative, non-gating


def test_sweep_shape():
    dataset = make_separable_dataset()
    base = micro_config(epochs=1)

    batch = run_sweep(base, "batch_size", ["16", "32", "64", "128"], dataset)
    split = run_sweep(base, "split", ["0.33", "0.4"], dataset)

    assert [row.value for row in batch.rows] == [16, 32, 64, 128]
    assert [row.value for row in split.rows] == [0.33, 0.4]
    for result in (batch, split):
        lines = result.format_table().splitlines()
        header = lines[0].split()
        assert header[-3:] == ["Positive", "Negative", "Overall"]
        body = lines[2:]
        assert len(body) == len(result.rows)
        for line, row in zip(body, result.rows):
            cells = line.split()
            assert len(cells) == 4
            assert float(cells[-1]) == round(row.overall_accuracy, 2)
            assert 0.0 <= row.positive_accuracy <= 100.0
            assert 0.0 <= row.negative_accuracy <= 100.0

    record("sweep-shape", True,
           "batch sizes 16/32/64/128 and splits 0.33/0.4 each yield "
           "per-class plus overall columns, one row per value")
