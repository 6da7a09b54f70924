"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The reconstruction-quality, engagement and spread orderings are soft
criteria evaluated over five documented seed pairs (data_seed, init_seed):

    (1, 101), (2, 102), (3, 103), (4, 104), (5, 105)

Each must hold for at least 4 of the 5 pairs.  Run with `pytest -v -s
tests/test_acceptance.py` to see the verdict lines.
"""

import hashlib
import io
import itertools
import math
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from conftest import ACCEPTANCE_VERDICTS, TINY_ARCH, make_manifest, make_snapshot
from fluctlab.analysis import (
    ANALYSIS_CHANNELS,
    HALVES,
    analyze_run,
    calibrate_epsilon,
    spread_of_spread,
)
from fluctlab.cli import main, train_run_to_file
from fluctlab.net import ArchitectureSpec, backward, forward, init, layer_views, mse
from fluctlab.runfile import RunAccessor, standardize_channel, write_run
from fluctlab.shapes import ShapeKind, export_csv, generate
from fluctlab.train import ADAM_EPSILON, RunConfig, adam_step, channel_views, init_optimizer
from test_net import finite_difference_grads, gradcheck_case, GRADCHECK_ARCH

SEED_PAIRS = ((1, 101), (2, 102), (3, 103), (4, 104), (5, 105))
LEARNING_RATES = (0.01, 0.001, 0.0001)
EPOCHS = 1000


def verdict(number: int, description: str, ok: bool) -> bool:
    line = f"criterion {number} ({description}): {'PASS' if ok else 'FAIL'}"
    print("\n" + line)
    ACCEPTANCE_VERDICTS.append(line)
    return ok


def _study_cell(base, pair, lr):
    """Train one (seed pair, learning rate) cell of the study and reduce it to
    the quantities the criteria assert on.  Its run file is deleted as soon
    as its statistics are extracted."""
    data_seed, init_seed = pair
    cfg = RunConfig(
        shape=ShapeKind.SPIRAL,
        learning_rate=lr,
        epochs=EPOCHS,
        data_seed=data_seed,
        init_seed=init_seed,
    )
    path = base / f"{data_seed}_{lr}.nfl"
    cell = {"loss": train_run_to_file(cfg, path)}
    acc = RunAccessor(path)
    report = analyze_run(acc)
    cell["act_inactive"] = int(report.channels["activations"].inactive.sum())
    cell["spreads_of_spread"] = {
        (ch, half): report.channels[ch].halves[half].spread_of_spread
        for ch in ANALYSIS_CHANNELS
        for half in HALVES
    }
    if pair == SEED_PAIRS[0] and lr == 0.01:
        cell["snapshots"] = len(acc)
        weights = report.channels["weights"]
        cell["weights_spreads"] = weights.spreads
        cell["weights_inactive_default"] = int(weights.inactive.sum())
        cell["hist_sums"] = {
            half: sum(report.channels["weights"].halves[half].hist_counts)
            for half in ("encoder", "decoder")
        }
        cell["grad_vs_weight_medians"] = (
            float(np.median(report.channels["weight_grads"].spreads)),
            float(np.median(report.channels["weights"].spreads)),
        )
        raw = analyze_run(acc, mode="raw")
        cell["grad_vs_weight_medians_raw"] = (
            float(np.median(raw.channels["weight_grads"].spreads)),
            float(np.median(raw.channels["weights"].spreads)),
        )
    path.unlink()
    return cell


@pytest.fixture(scope="module")
def spiral_study(tmp_path_factory):
    """Full 1000-epoch spiral runs over the documented seed pairs, reduced to
    the quantities the criteria assert on.  The 15 cells run in one worker
    process per usable CPU, each started fresh ("spawn": a fork would copy
    this process's BLAS threads); a cell's numbers depend only on its seeds
    and learning rate."""
    base = tmp_path_factory.mktemp("acceptance")
    study = {
        "losses": {},  # (pair, lr) -> final loss
        "act_inactive": {},  # (pair, lr) -> activation-channel inactive count
        "spreads_of_spread": {},  # (pair, lr) -> {(channel, half): spread of spread}
    }
    keys = [(pair, lr) for pair in SEED_PAIRS for lr in LEARNING_RATES]
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(len(os.sched_getaffinity(0)), mp_context=spawn) as pool:
        futures = {key: pool.submit(_study_cell, base, *key) for key in keys}
    for key, future in futures.items():
        cell = future.result()
        study["losses"][key] = cell.pop("loss")
        study["act_inactive"][key] = cell.pop("act_inactive")
        study["spreads_of_spread"][key] = cell.pop("spreads_of_spread")
        study.update(cell)  # the first pair's lr 0.01 cell carries the rest
    for pair in SEED_PAIRS:
        data_seed, init_seed = pair
        net = init(ArchitectureSpec(), init_seed)
        pts = generate(ShapeKind.SPIRAL, 500, data_seed)
        study.setdefault("initial_losses", {})[pair] = mse(pts, forward(net, pts).output)
    return study


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    net, batch = gradcheck_case()
    weight_grads, bias_grads = layer_views(backward(net, batch, forward(net, batch)), net.spec)
    fd_w, fd_b = finite_difference_grads(net, batch, h=1e-5)
    worst = 0.0
    for a, n in zip(weight_grads + bias_grads, fd_w + fd_b):
        rel = np.abs(a - n) / np.maximum(np.abs(a) + np.abs(n), 1e-6)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 1.0
    assert verdict(
        1, f"gradcheck max rel err {worst:.2e} in {elapsed:.2f}s", ok
    )


def test_criterion_2_pipeline_determinism(tmp_path):
    def tree_hashes(root):
        return {
            str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    args = ["all", "--shapes", "spiral", "--lrs", "0.01,0.001", "--epochs", "80"]
    d1, d2 = tmp_path / "first", tmp_path / "second"
    assert main(args + ["--outdir", str(d1)]) == 0
    assert main(args + ["--outdir", str(d2)]) == 0
    h1, h2 = tree_hashes(d1), tree_hashes(d2)
    ok = h1 == h2 and len(h1) > 10
    assert verdict(2, f"two `all` executions, {len(h1)} artifacts byte-identical", ok)


def test_criterion_3_reconstruction_quality_ordering(spiral_study):
    holds = 0
    for pair in SEED_PAIRS:
        l = {lr: spiral_study["losses"][(pair, lr)] for lr in LEARNING_RATES}
        if l[0.01] < l[0.001] < l[0.0001]:
            holds += 1
    ok = holds >= 4
    assert verdict(3, f"MSE(0.01) < MSE(0.001) < MSE(0.0001) on {holds}/5 seed pairs", ok)
    # final loss must also undercut the untrained network's loss
    first = SEED_PAIRS[0]
    assert spiral_study["losses"][(first, 0.01)] < spiral_study["initial_losses"][first]


def test_criterion_4_inactive_neuron_reproduction(spiral_study):
    default_count = spiral_study["weights_inactive_default"]
    if default_count >= 40:
        assert verdict(4, f"default eps=1e-5 flags {default_count} >= 40 of 195", True)
        return
    calibrated = calibrate_epsilon(spiral_study["weights_spreads"], (40, 80), (1e-6, 1e-3))
    if calibrated is not None:
        count = sum(1 for v in spiral_study["weights_spreads"] if v < calibrated)
        assert verdict(
            4,
            f"default eps misses ({default_count}); calibrated eps={calibrated:.3e} "
            f"flags {count} in [40, 80]",
            40 <= count <= 80,
        )
        return
    # both miss: a red flag, not an auto-fail (the pipeline records it in the index)
    verdict(4, f"RED FLAG: default flags {default_count}, no calibrated eps in [1e-6, 1e-3]", False)
    warnings.warn("inactive-neuron reproduction failed; red flag recorded in run indexes")


def test_criterion_5_engagement_ordering(spiral_study):
    holds = 0
    for pair in SEED_PAIRS:
        low = spiral_study["act_inactive"][(pair, 0.0001)]
        high = spiral_study["act_inactive"][(pair, 0.01)]
        if low <= high:
            holds += 1
    ok = holds >= 4
    assert verdict(
        5, f"activation inactive count lr 1e-4 <= lr 1e-2 on {holds}/5 seed pairs", ok
    )


def test_criterion_6_metric_invariant_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    cases = 1000

    # translation invariance, exact: dyadic series keep shifted values representable
    series = rng.integers(-(2**20), 2**20, size=(cases, 20)).astype(np.float64) * 2.0**-20
    shifts = rng.integers(-(2**10), 2**10, size=(cases, 1)).astype(np.float64) * 2.0**-10
    base = np.std(np.diff(series, axis=1), axis=1)
    shifted = np.std(np.diff(series + shifts, axis=1), axis=1)
    translation_ok = np.array_equal(base, shifted)

    # scale equivariance: |k| factor within 1e-12 relative
    ks = rng.uniform(-1e3, 1e3, size=(cases, 1))
    ks[np.abs(ks) < 1e-3] = 1.0
    scaled = np.std(np.diff(series * ks, axis=1), axis=1)
    scale_ok = bool(
        np.all(np.abs(scaled - np.abs(ks[:, 0]) * base) <= 1e-12 * np.maximum(scaled, 1.0))
    )

    # zero for frozen series
    frozen = np.repeat(rng.uniform(-5, 5, size=(cases, 1)), 25, axis=1)
    frozen_ok = bool(np.all(np.std(np.diff(frozen, axis=1), axis=1) == 0.0))

    # spread_of_spread permutation invariance, exact
    perm_ok = True
    for _ in range(cases):
        vals = rng.uniform(0, 1, size=195)
        if spread_of_spread(vals) != spread_of_spread(rng.permutation(vals)):
            perm_ok = False
            break

    # detect_inactive monotone in epsilon
    vals = rng.uniform(0, 1e-3, size=(cases, 50))
    e1 = rng.uniform(1e-6, 1e-3, size=(cases, 1))
    e2 = e1 + rng.uniform(0, 1e-3, size=(cases, 1))
    mono_ok = bool(np.all(~((vals < e1) & ~(vals < e2))))

    elapsed = time.perf_counter() - start
    ok = all((translation_ok, scale_ok, frozen_ok, perm_ok, mono_ok)) and elapsed < 10.0
    assert verdict(
        6,
        f"translation={translation_ok} scale={scale_ok} frozen={frozen_ok} "
        f"permutation={perm_ok} monotone={mono_ok} in {elapsed:.1f}s",
        ok,
    )


def test_criterion_7_adam_unit_behavior():
    net = init(GRADCHECK_ARCH, 5)
    before = [b[:, :-1].copy() for b in net.blocks] + [b[:, -1].copy() for b in net.blocks]

    zeros = np.zeros_like(net.theta)
    opt = init_optimizer(net)
    adam_step(net, zeros, opt, 0.01)
    after = [b[:, :-1] for b in net.blocks] + [b[:, -1] for b in net.blocks]
    drift = max(float(np.abs(a - b).max()) for a, b in zip(after, before))

    ones = np.ones_like(net.theta)
    lr = 0.001
    net2 = init(GRADCHECK_ARCH, 6)
    w_before = net2.blocks[0][0, 0]
    adam_step(net2, ones, init_optimizer(net2), lr)
    step = w_before - net2.blocks[0][0, 0]
    closed_form = lr * 1.0 / (1.0 + ADAM_EPSILON)  # m_hat = v_hat = 1 at t=1
    ok = drift <= 1e-15 and abs(step - lr) <= 1e-8 and abs(step - closed_form) <= 1e-15
    assert verdict(
        7, f"zero-grad drift {drift:.1e}; first step {step:.12f} vs lr {lr}", ok
    )


def test_criterion_8_format_round_trips(tmp_path):
    # run file: write -> read elementwise identity
    rng = np.random.default_rng(8)
    snaps = [make_snapshot(TINY_ARCH, e, 0.25 * e, rng=rng) for e in (1, 2, 3)]
    path = tmp_path / "rt.nfl"
    write_run(make_manifest(epochs=3), snaps, path)
    acc = RunAccessor(path)
    frames = acc.frames()
    views = channel_views(frames["values"], TINY_ARCH)
    run_ok = len(frames) == 3 and all(
        np.array_equal(views[name][i], view)
        for i in range(3)
        for name, view in channel_views(snaps[i].values, TINY_ARCH).items()
    )

    # dataset CSV round trip to 1e-8
    pts = generate(ShapeKind.SPIRAL, 500, 21)
    buf = io.StringIO()
    export_csv(pts, buf)
    rows = buf.getvalue().strip().split("\n")[1:]
    parsed = np.array([[float(v) for v in row.split(",")] for row in rows])
    csv_ok = bool(np.abs(parsed - pts).max() <= 1e-8)

    # standardization bounds
    std_ok = True
    for _ in range(50):
        v = rng.normal(rng.uniform(-3, 3), rng.uniform(0.1, 5), size=rng.integers(2, 300))
        out = standardize_channel(v)
        std = float(np.std(out))
        if abs(out.mean()) > 1e-9 or not (std == 0.0 or abs(std - 1.0) <= 1e-9):
            std_ok = False
    std_ok = std_ok and np.all(standardize_channel([4.0, 4.0, 4.0]) == 0.0)

    ok = run_ok and csv_ok and bool(std_ok)
    assert verdict(8, f"runfile={run_ok} csv={csv_ok} standardize={std_ok}", ok)


def test_criterion_9_structural_counts(spiral_study):
    arch = ArchitectureSpec()
    counts_ok = (
        arch.total_neurons == 195
        and arch.encoder_neurons == 97
        and arch.decoder_neurons == 98
    )
    snapshots_ok = spiral_study["snapshots"] == EPOCHS
    hist_ok = spiral_study["hist_sums"] == {"encoder": 97, "decoder": 98}
    ok = counts_ok and snapshots_ok and hist_ok
    assert verdict(
        9,
        f"neurons 195/97/98={counts_ok}; snapshots==epochs={snapshots_ok}; "
        f"hist sums 97/98={hist_ok}",
        ok,
    )


def test_criterion_10_spread_ordering(spiral_study):
    """The paper's headline: a larger learning rate spreads the per-neuron
    fluctuations wider.  For each (channel, half), the spread of spread must
    fall strictly from lr 0.01 to 0.001 to 0.0001 on at least 4 of 5 seed
    pairs; the verdict names the smallest ratio between neighbouring rates."""
    sos = spiral_study["spreads_of_spread"]
    held, smallest = 0, None
    for key in ((ch, half) for ch in ANALYSIS_CHANNELS for half in HALVES):
        holds = 0
        for pair in SEED_PAIRS:
            values = [sos[(pair, lr)][key] for lr in LEARNING_RATES]
            holds += values[0] > values[1] > values[2]
            for (high, a), (low, b) in itertools.pairwise(zip(LEARNING_RATES, values)):
                ratio = a / b if b else math.inf
                if smallest is None or ratio < smallest[0]:
                    smallest = (ratio, key, pair, high, low)
        held += holds >= 4
    ratio, (channel, half), pair, high, low = smallest
    assert verdict(
        10,
        f"spread of spread lr 1e-2 > 1e-3 > 1e-4 on >= 4/5 seed pairs for {held}/10 "
        f"(channel, half); smallest ratio {ratio:.2f}: {channel} {half}, pair {pair}, "
        f"lr {high:g} against {low:g}",
        held == 10,
    )


def test_gradient_spreads_stay_small(spiral_study):
    """Soft qualitative check at lr 0.01: gradient-channel spreads are finite,
    and in raw-value mode their median sits at or below the weight-channel
    median (gradients stay small while weights wander over training).

    The delta-mode comparison is reported but not asserted: one optimizer
    step's weight change is momentum-smoothed and routinely smaller than the
    epoch-to-epoch volatility of the raw gradients.
    """
    grad_d, weight_d = spiral_study["grad_vs_weight_medians"]
    grad_r, weight_r = spiral_study["grad_vs_weight_medians_raw"]
    print(
        f"\ngrad/weight spread medians: delta mode {grad_d:.3e}/{weight_d:.3e}, "
        f"raw mode {grad_r:.3e}/{weight_r:.3e}"
    )
    assert all(np.isfinite(v) for v in (grad_d, weight_d, grad_r, weight_r))
    assert grad_r <= weight_r
