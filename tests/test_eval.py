import io
from collections import defaultdict

import numpy as np
import pytest

from spikecodec.errors import DegenerateData, ShapeMismatch
from spikecodec.evaluate import (
    ConfusionCounts,
    MlpTrainConfig,
    init_mlp,
    load_model,
    mlp_accuracy,
    mlp_forward,
    mlp_loss_and_grads,
    mlp_train,
    prf1,
    save_model,
    temporal_average,
)
from spikecodec.spikecoder import build_channel_table

from conftest import events as event_array, small_mlp


def _event(t, channel, levels=3):
    row = (t, channel, channel // levels, channel % levels, 0.4115, 0.0)
    return event_array(row)[0]


def test_no_events_give_zero_vector():
    table = build_channel_table(40)
    vec = temporal_average([], duration=2048, bin_width=256, table=table)
    assert vec.shape == (120,)
    assert not np.any(vec)


def test_channel_spiking_every_bin_saturates_at_one():
    table = build_channel_table(40)
    events = [_event(t=i * 64, channel=5) for i in range(32)]
    vec = temporal_average(events, duration=2048, bin_width=64, table=table)
    assert vec[5] == 1.0
    assert vec.sum() == 1.0


def test_temporal_average_matches_bin_count_oracle():
    rng = np.random.default_rng(0)
    table = build_channel_table(8)
    duration, bin_width = 4096, 128
    events = [
        _event(t=int(rng.integers(0, 5000)), channel=int(rng.integers(24)))
        for _ in range(400)
    ]
    vec = temporal_average(events, duration, bin_width, table)

    # oracle: set of occupied bins per channel
    occupied = defaultdict(set)
    for ev in events:
        if 0 <= ev.t < duration:
            occupied[ev.channel].add(ev.t // bin_width)
    n_bins = -(-duration // bin_width)
    for c in range(24):
        assert vec[c] == len(occupied[c]) / n_bins
    assert np.all(vec >= 0) and np.all(vec <= 1)


# ----- precision / recall / F1 -----

def test_perfect_counts_give_ones():
    counts = ConfusionCounts(tp=np.array([10]), fp=np.array([0]), fn=np.array([0]))
    p, r, f1, macro = prf1(counts)
    assert p[0] == r[0] == f1[0] == 1.0
    assert macro == (1.0, 1.0, 1.0)


def test_equal_precision_recall_means_f1_equals_them():
    counts = ConfusionCounts(tp=np.array([30]), fp=np.array([10]), fn=np.array([10]))
    p, r, f1, _ = prf1(counts)
    assert p[0] == r[0]
    assert abs(f1[0] - p[0]) < 1e-15


def test_worked_f1_example_to_1e12():
    counts = ConfusionCounts(tp=np.array([50]), fp=np.array([25]), fn=np.array([10]))
    p, r, f1, _ = prf1(counts)
    assert abs(p[0] - 2.0 / 3.0) < 1e-12
    assert abs(r[0] - 5.0 / 6.0) < 1e-12
    assert abs(f1[0] - 20.0 / 27.0) < 1e-12


def test_zero_counts_define_zero_not_nan():
    counts = ConfusionCounts(tp=np.array([0]), fp=np.array([0]), fn=np.array([0]))
    p, r, f1, _ = prf1(counts)
    assert (p[0], r[0], f1[0]) == (0.0, 0.0, 0.0)


def test_f1_between_min_and_max_of_p_and_r():
    rng = np.random.default_rng(1)
    for _ in range(100):
        counts = ConfusionCounts(
            tp=np.array([int(rng.integers(1, 100))]),
            fp=np.array([int(rng.integers(1, 100))]),
            fn=np.array([int(rng.integers(1, 100))]),
        )
        p, r, f1, _ = prf1(counts)
        assert min(p[0], r[0]) - 1e-12 <= f1[0] <= max(p[0], r[0]) + 1e-12


def test_confusion_from_predictions():
    counts = ConfusionCounts.from_predictions(
        y_true=[0, 0, 1, 1, 2], y_pred=[0, 1, 1, 1, 0], num_classes=3
    )
    assert counts.tp.tolist() == [1, 2, 0]
    assert counts.fp.tolist() == [1, 1, 0]
    assert counts.fn.tolist() == [1, 0, 1]


# ----- MLP -----

def _blobs(seed=42, separation=8.0, n_per_class=200, dim=120):
    rng = np.random.default_rng(seed)
    axis = rng.normal(0.0, 1.0, dim)
    axis /= np.linalg.norm(axis)
    x0 = rng.normal(0.0, 1.0, (n_per_class, dim)) - separation / 2 * axis
    x1 = rng.normal(0.0, 1.0, (n_per_class, dim)) + separation / 2 * axis
    return np.vstack([x0, x1]), np.array([0] * n_per_class + [1] * n_per_class)


def test_zeroed_model_outputs_uniform_probabilities():
    model = init_mlp(120, 4, MlpTrainConfig())
    for w in model.weights:
        w[:] = 0.0
    probs = mlp_forward(model, np.zeros(120))
    assert np.allclose(probs, 0.25, atol=1e-15)


def test_probabilities_sum_to_one():
    model = small_mlp([32, 16, 8, 5], seed=2)
    rng = np.random.default_rng(3)
    probs = mlp_forward(model, rng.standard_normal((50, 32)))
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9


def test_shape_mismatch_rejected():
    model = small_mlp([16, 8, 2], seed=0)
    with pytest.raises(ShapeMismatch):
        mlp_forward(model, np.zeros(17))


def test_gradients_match_central_differences():
    # oracle: (L(w+eps) - L(w-eps)) / 2 eps at 20 random coordinates
    model = small_mlp([10, 8, 6, 3], seed=1)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((5, 10))
    y = np.array([0, 1, 2, 1, 0])
    _, grads_w, grads_b = mlp_loss_and_grads(model, x, y)
    eps = 1e-6
    for _ in range(20):
        layer = int(rng.integers(len(model.weights)))
        if rng.random() < 0.8:
            i = int(rng.integers(model.weights[layer].shape[0]))
            j = int(rng.integers(model.weights[layer].shape[1]))
            param, grad = model.weights[layer], grads_w[layer]
            idx = (i, j)
        else:
            idx = (int(rng.integers(model.biases[layer].shape[0])),)
            param, grad = model.biases[layer], grads_b[layer]
        param[idx] += eps
        up, _, _ = mlp_loss_and_grads(model, x, y)
        param[idx] -= 2 * eps
        down, _, _ = mlp_loss_and_grads(model, x, y)
        param[idx] += eps
        fd = (up - down) / (2 * eps)
        assert abs(fd - grad[idx]) <= 1e-4 * max(abs(fd), abs(grad[idx]), 1e-8)


def test_separable_blobs_reach_99_percent():
    features, labels = _blobs()
    # separability oracle: closed-form least-squares classifier is perfect
    design = np.hstack([features, np.ones((len(features), 1))])
    w, *_ = np.linalg.lstsq(design, 2.0 * labels - 1.0, rcond=None)
    assert np.mean((design @ w > 0) == (labels == 1)) == 1.0

    model = mlp_train(features, labels, MlpTrainConfig(seed=3))
    assert mlp_accuracy(model, features, labels) >= 0.99


def test_training_loss_trend_is_non_increasing():
    features, labels = _blobs(seed=6, n_per_class=100)
    model = mlp_train(features, labels, MlpTrainConfig(epochs=200, seed=4))
    losses = np.array(model.loss_history)
    window = 20
    means = [losses[i : i + window].mean() for i in range(0, len(losses) - window, window)]
    assert all(b <= a + 1e-9 for a, b in zip(means, means[1:]))


def test_missing_class_raises():
    features = np.zeros((4, 8))
    with pytest.raises(DegenerateData):
        mlp_train(features, np.array([0, 0, 2, 2]), MlpTrainConfig(epochs=1))
    with pytest.raises(DegenerateData):
        mlp_train(features, np.array([0, 0, 0, 0]), MlpTrainConfig(epochs=1))


def test_training_is_deterministic():
    features, labels = _blobs(seed=7, n_per_class=50)
    cfg = MlpTrainConfig(epochs=20, seed=11)
    a = mlp_train(features, labels, cfg)
    b = mlp_train(features, labels, cfg)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert a.loss_history == b.loss_history


def test_model_save_load_round_trip():
    model = small_mlp([12, 7, 5, 3], seed=8)
    buf = io.StringIO()
    save_model(model, buf)
    buf.seek(0)
    back = load_model(buf)
    assert back.layer_sizes == [12, 7, 5, 3]
    for wa, wb in zip(model.weights, back.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(model.biases, back.biases):
        assert np.array_equal(ba, bb)


def test_mac_count_of_reference_architecture():
    model = init_mlp(120, 4, MlpTrainConfig())
    assert model.mac_count() == 120 * 256 + 256 * 64 + 64 * 4 == 47360
