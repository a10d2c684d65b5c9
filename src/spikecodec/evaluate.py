"""Evaluation toolkit: temporal averaging, classification metrics, and a
small MLP trained from scratch.

Temporal averaging collapses an event stream into one value per channel
(mean per-bin spike activity), giving a fixed-length feature vector for a
static classifier. The classifier is a plain two-hidden-layer perceptron
(256 and 64 rectifier units, softmax output) trained by mini-batch gradient
descent on cross-entropy with a step learning-rate schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CodeOutOfBounds, DegenerateData, InvalidConfig, ShapeMismatch
from .spikecoder import EVENT_DTYPE, ChannelTable


def temporal_average(
    events: np.ndarray, duration: int, bin_width: int, table: ChannelTable
) -> np.ndarray:
    """Per-channel share of time bins that hold at least one spike of an
    EVENT_DTYPE array, so entries lie in [0, 1]. Events at or beyond
    `duration` are ignored. Raises CodeOutOfBounds for a channel outside
    the table.
    """
    if duration <= 0 or bin_width <= 0:
        raise DegenerateData("duration and bin_width must be positive")
    events = np.asarray(events, EVENT_DTYPE)
    t, channel = events["t"], events["channel"]
    bad = (channel < 0) | (channel >= table.total_channels)
    if np.any(bad):
        raise CodeOutOfBounds(
            f"channel {channel[bad][0]} outside [0, {table.total_channels})"
        )
    n_bins = -(-duration // bin_width)  # ceil
    active = np.zeros((table.total_channels, n_bins), bool)
    kept = (t >= 0) & (t < duration)
    active[channel[kept], t[kept] // bin_width] = True
    return active.mean(axis=1)


@dataclass
class ConfusionCounts:
    """Per-class true positive / false positive / false negative tallies."""

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray

    @classmethod
    def from_predictions(cls, y_true, y_pred, num_classes: int) -> "ConfusionCounts":
        y_true = np.asarray(y_true, dtype=int)
        y_pred = np.asarray(y_pred, dtype=int)
        tp = np.zeros(num_classes, dtype=int)
        fp = np.zeros(num_classes, dtype=int)
        fn = np.zeros(num_classes, dtype=int)
        for c in range(num_classes):
            tp[c] = np.sum((y_pred == c) & (y_true == c))
            fp[c] = np.sum((y_pred == c) & (y_true != c))
            fn[c] = np.sum((y_pred != c) & (y_true == c))
        return cls(tp=tp, fp=fp, fn=fn)


def _safe_div(num, den):
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0)
    return out


def prf1(counts: ConfusionCounts):
    """Per-class precision, recall, F1 plus their macro averages.

    P = TP/(TP+FP), R = TP/(TP+FN), F1 = 2PR/(P+R); 0/0 is defined as 0.
    Returns (precision, recall, f1, macro) with macro = (P̄, R̄, F1̄).
    """
    p = _safe_div(counts.tp, counts.tp + counts.fp)
    r = _safe_div(counts.tp, counts.tp + counts.fn)
    f1 = _safe_div(2.0 * p * r, p + r)
    macro = (float(p.mean()), float(r.mean()), float(f1.mean()))
    return p, r, f1, macro


# ----- multilayer perceptron -----

HIDDEN = (256, 64)  # the two hidden layers' widths

@dataclass(frozen=True)
class MlpTrainConfig:
    epochs: int = 400
    batch_size: int = 64
    learning_rate: float = 1e-3
    lr_decay: float = 0.9  # multiplicative, applied every decay_every epochs
    decay_every: int = 50
    seed: int = 0

    def validate(self) -> None:
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise InvalidConfig(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if not np.isfinite(self.lr_decay):
            raise InvalidConfig(f"lr_decay must be finite, got {self.lr_decay}")
        for name in ("epochs", "batch_size", "decay_every"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class MlpModel:
    weights: list[np.ndarray]  # weights[i]: (fan_in, fan_out)
    biases: list[np.ndarray]
    loss_history: list[float] = field(default_factory=list)

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def mac_count(self) -> int:
        """Multiplies in one forward pass (weight matrices only)."""
        return int(sum(w.shape[0] * w.shape[1] for w in self.weights))


def init_mlp(num_inputs: int, num_classes: int, cfg: MlpTrainConfig) -> MlpModel:
    """Fan-in-scaled uniform weight init, zero biases, seeded."""
    rng = np.random.default_rng(cfg.seed)
    sizes = [num_inputs, *HIDDEN, num_classes]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights=weights, biases=biases)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_batch(model: MlpModel, x: np.ndarray):
    """Returns (probabilities, hidden activations incl. input)."""
    acts = [x]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        acts.append(np.maximum(0.0, acts[-1] @ w + b))
    probs = _softmax(acts[-1] @ model.weights[-1] + model.biases[-1])
    return probs, acts


def mlp_forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Class probabilities for one feature vector (or a batch)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[np.newaxis, :]
    if x.shape[1] != model.weights[0].shape[0]:
        raise ShapeMismatch(
            f"feature length {x.shape[1]} != input width {model.weights[0].shape[0]}"
        )
    probs, _ = _forward_batch(model, x)
    return probs[0] if single else probs


def mlp_loss_and_grads(model: MlpModel, x: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch and its parameter gradients."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    n = len(x)
    probs, acts = _forward_batch(model, x)
    loss = float(-np.mean(np.log(probs[np.arange(n), labels] + 1e-300)))

    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grads_w, grads_b = [], []
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w.append(acts[layer].T @ delta)
        grads_b.append(delta.sum(axis=0))
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * (acts[layer] > 0)
    return loss, grads_w[::-1], grads_b[::-1]


def mlp_train(
    features: np.ndarray, labels: np.ndarray, cfg: MlpTrainConfig = MlpTrainConfig()
) -> MlpModel:
    """Mini-batch gradient descent; deterministic for a fixed seed.

    Raises DegenerateData when fewer than two classes are present or any
    class index up to the maximum label is unrepresented.
    """
    cfg.validate()
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    if features.ndim != 2 or len(features) != len(labels):
        raise ShapeMismatch("features must be (n, d) with one label per row")
    num_classes = int(labels.max()) + 1 if labels.size else 0
    present = np.unique(labels)
    if num_classes < 2 or len(present) < num_classes:
        raise DegenerateData(
            f"need every class 0..{num_classes - 1} represented, got {present}"
        )

    model = init_mlp(features.shape[1], num_classes, cfg)
    order_rng = np.random.default_rng(cfg.seed + 1)
    n = len(features)
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * cfg.lr_decay ** (epoch // cfg.decay_every)
        perm = order_rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            loss, gw, gb = mlp_loss_and_grads(model, features[idx], labels[idx])
            for w, b, dw, db in zip(model.weights, model.biases, gw, gb):
                w -= lr * dw
                b -= lr * db
            epoch_loss += loss
            n_batches += 1
        model.loss_history.append(epoch_loss / n_batches)
    return model


def mlp_accuracy(model: MlpModel, features: np.ndarray, labels: np.ndarray) -> float:
    probs = mlp_forward(model, np.asarray(features, dtype=np.float64))
    return float(np.mean(np.argmax(probs, axis=1) == np.asarray(labels)))


def save_model(model: MlpModel, fh) -> None:
    """Flat text format: a header documenting shapes, then one value per
    line in W1, b1, W2, b2, ... order, row-major."""
    sizes = " ".join(str(s) for s in model.layer_sizes)
    fh.write(f"# mlp-weights v1\n# layers: {sizes}\n# order: W,b per layer, row-major\n")
    for w, b in zip(model.weights, model.biases):
        for v in w.ravel():
            fh.write(f"{float(v)!r}\n")
        for v in b:
            fh.write(f"{float(v)!r}\n")


def load_model(fh) -> MlpModel:
    header = [fh.readline() for _ in range(3)]
    sizes = [int(tok) for tok in header[1].split(":")[1].split()]
    values = np.array([float(line) for line in fh if line.strip()])
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights.append(values[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out))
        pos += fan_in * fan_out
        biases.append(values[pos : pos + fan_out])
        pos += fan_out
    return MlpModel(weights=weights, biases=biases)
