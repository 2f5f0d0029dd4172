"""Pre-scheduling task profiling: analytic memory demand, accuracy-gain curve
fitting, and a small learned regressor for retraining time.

Memory demand is computed from the layer list (parameters, features, gradients,
optimizer state, framework workspace).  Accuracy over epochs is modelled by the
saturating family A(e) = a_max - 1/(b*e + c).  Retraining time is predicted by
a three-hidden-layer feed-forward network over five scalar job features.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from typing import List, Sequence, Tuple

import numpy as np

from .core import check_numbers

MB = 1024 * 1024
DEFAULT_WORKSPACE_BYTES = int(round(847.30 * MB))  # framework scratch allocation

VALID_BITWIDTHS = (8, 16, 32)


class LayerKind(str, Enum):
    CONV = "conv"
    FC = "fc"
    BATCHNORM = "batchnorm"


@dataclass(frozen=True)
class LayerSpec:
    kind: LayerKind
    c_in: int
    c_out: int
    k1: int = 1
    k2: int = 1
    s1: int = 1
    s2: int = 1
    p1: int = 0
    p2: int = 0

    def __post_init__(self):
        check_numbers(self)
        if self.c_in <= 0 or self.c_out <= 0:
            raise ValueError("channel counts must be positive")
        if self.kind is LayerKind.CONV:
            if min(self.k1, self.k2, self.s1, self.s2) <= 0:
                raise ValueError("conv kernel and stride must be positive")
            if min(self.p1, self.p2) < 0:
                raise ValueError("conv padding must be non-negative")


@dataclass(frozen=True)
class ModelArch:
    layers: Tuple[LayerSpec, ...]
    bitwidth: int = 32
    input_w: int = 224
    input_h: int = 224
    batch: int = 1

    def __post_init__(self):
        check_numbers(self)
        if self.bitwidth not in VALID_BITWIDTHS:
            raise ValueError(f"bitwidth must be one of {VALID_BITWIDTHS}")
        if self.input_w <= 0 or self.input_h <= 0 or self.batch <= 0:
            raise ValueError("input dims and batch must be positive")
        object.__setattr__(self, "layers", tuple(self.layers))


@dataclass(frozen=True)
class MemoryBreakdown:
    m_p: float   # parameters, bytes
    m_f: float   # intermediate features, bytes
    m_g: float   # gradients, bytes (mirrors m_f)
    m_opt: float # optimizer state, bytes (2x parameters)
    m_ws: float  # framework workspace, bytes

    @property
    def total(self) -> float:
        return self.m_p + self.m_f + self.m_g + self.m_opt + self.m_ws

    @property
    def total_mb(self) -> float:
        return self.total / MB


def param_count(layer: LayerSpec) -> int:
    if layer.kind is LayerKind.CONV:
        return layer.c_in * layer.c_out * layer.k1 * layer.k2
    if layer.kind is LayerKind.FC:
        return layer.c_in * layer.c_out
    if layer.kind is LayerKind.BATCHNORM:
        return 2 * layer.c_out  # scale + shift
    raise ValueError(f"unknown layer kind {layer.kind!r}")


def param_memory(layer: LayerSpec, bitwidth: int) -> float:
    return param_count(layer) * bitwidth / 8.0


def feature_memory(
    layer: LayerSpec,
    in_dims: Tuple[int, int],
    bitwidth: int,
    batch: int = 1,
) -> Tuple[float, Tuple[int, int]]:
    """Output feature-map bytes of one layer, plus its output spatial dims."""
    w_in, h_in = in_dims
    if w_in <= 0 or h_in <= 0:
        raise ValueError("input dims must be positive")
    if layer.kind is LayerKind.CONV:
        out_w = (w_in - layer.k1 + 2 * layer.p1) // layer.s1 + 1
        out_h = (h_in - layer.k2 + 2 * layer.p2) // layer.s2 + 1
        if out_w <= 0 or out_h <= 0:
            raise ValueError(
                f"conv layer produces non-positive output dims "
                f"({out_w}x{out_h}) from input {w_in}x{h_in}"
            )
    elif layer.kind is LayerKind.FC:
        out_w, out_h = 1, 1
    else:  # batch norm preserves spatial dims
        out_w, out_h = w_in, h_in
    bytes_ = out_w * out_h * layer.c_out * (bitwidth / 8.0) * batch
    return bytes_, (out_w, out_h)


def memory_demand(arch: ModelArch) -> MemoryBreakdown:
    """Total retraining memory: parameters + features + gradients + optimizer
    state + a fixed workspace.  Feature (and hence gradient) bytes scale with batch."""
    m_p = 0.0
    m_f = 0.0
    dims = (arch.input_w, arch.input_h)
    for i, layer in enumerate(arch.layers):
        try:
            m_p += param_memory(layer, arch.bitwidth)
            fbytes, dims = feature_memory(layer, dims, arch.bitwidth, arch.batch)
        except ValueError as exc:
            raise ValueError(f"layer {i} ({layer.kind.value}): {exc}") from exc
        m_f += fbytes
    return MemoryBreakdown(m_p=m_p, m_f=m_f, m_g=m_f, m_opt=2.0 * m_p, m_ws=DEFAULT_WORKSPACE_BYTES)


# --- architecture descriptor file (JSON) ------------------------------------

# Fields a JSON document stores under another key; the rest go under their names.
JSON_KEYS = {"gain_curve_truth": "gain_curve", "drift_type": "type"}


def fields_doc(value):
    """``value`` as JSON: a dataclass as an object of its fields, each under
    its key, a tuple as a list, an enum as its value, anything else as is."""
    if is_dataclass(value):
        return {JSON_KEYS.get(f.name, f.name): fields_doc(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, tuple):
        return [fields_doc(v) for v in value]
    return value.value if isinstance(value, Enum) else value


def arch_to_doc(arch: ModelArch) -> dict:
    """JSON document of an architecture, as arch files and scenarios hold it:
    its fields with ``layers`` last, each layer's fields with ``kind`` first."""
    doc = fields_doc(arch)
    doc["layers"] = doc.pop("layers")
    return doc


def arch_from_doc(doc: dict) -> ModelArch:
    """Inverse of ``arch_to_doc``: absent optional fields left to their
    defaults, unknown keys ignored; an integral float is stored as an int.
    Raises KeyError, TypeError or ValueError on a malformed document, a
    ValueError naming the field for a fractional or non-finite number."""
    def numbers(rec: dict, cls) -> dict:
        return {f.name: rec[f.name] for f in fields(cls)
                if f.name in rec and f.name not in ("kind", "layers")}

    layers = tuple(LayerSpec(kind=LayerKind(rec["kind"]), **numbers(rec, LayerSpec))
                   for rec in doc["layers"])
    return ModelArch(layers=layers, **numbers(doc, ModelArch))


def write_arch_json(path, arch: ModelArch) -> None:
    with open(path, "w") as fh:
        json.dump(arch_to_doc(arch), fh, indent=2)
        fh.write("\n")


def read_json(path):
    """The JSON document in file ``path``; invalid JSON raises ValueError
    naming the file and the line."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def read_arch_json(path) -> ModelArch:
    doc = read_json(path)
    try:
        return arch_from_doc(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"{path}: bad architecture descriptor: {exc}") from exc


# --- accuracy-gain curve ----------------------------------------------------

@dataclass(frozen=True)
class AccuracyCurve:
    """Saturating learning curve A(e) = a_max - 1/(b*e + c)."""

    a_max: float
    b: float
    c: float

    def __post_init__(self):
        check_numbers(self)
        if self.b < 0 or self.c < 0:
            raise ValueError("b and c must be non-negative")

    def predict(self, epoch: float) -> float:
        denom = self.b * epoch + self.c
        if denom <= 0:
            return 0.0
        return min(1.0, max(0.0, self.a_max - 1.0 / denom))


def fit_accuracy_curve(probes: Sequence[Tuple[float, float]]) -> AccuracyCurve:
    """Least-squares fit of the saturating curve family to (epoch, accuracy)
    probes, with b, c constrained non-negative.

    Nested bounded scalar searches: the outer search runs over b, the inner
    over c; a_max has a closed form (mean residual offset) at each step.
    """
    from scipy.optimize import minimize_scalar  # scipy is slow to import; only fitting needs it

    if len(probes) < 3:
        raise ValueError("need at least 3 probe points")
    e = np.asarray([p[0] for p in probes], dtype=float)
    y = np.asarray([p[1] for p in probes], dtype=float)
    if np.ptp(e) == 0:
        raise ValueError("probe epochs are all identical")

    def solve_a_max(b: float, c: float) -> float:
        return float(np.mean(y + 1.0 / (b * e + c)))

    def sse(b: float, c: float) -> float:
        denom = b * e + c
        if np.any(denom <= 0):
            return float("inf")
        a_max = solve_a_max(b, c)
        r = y - (a_max - 1.0 / denom)
        return float(np.dot(r, r))

    def inner(b: float) -> Tuple[float, float]:
        res = minimize_scalar(
            lambda c: sse(b, c), bounds=(1e-9, 1e4), method="bounded",
            options={"xatol": 1e-10, "maxiter": 200},
        )
        return float(res.x), float(res.fun)

    outer = minimize_scalar(
        lambda b: inner(b)[1], bounds=(0.0, 1e3), method="bounded",
        options={"xatol": 1e-10, "maxiter": 200},
    )
    b = float(outer.x)
    c, _ = inner(b)
    a_max = solve_a_max(b, c)
    # A flat probe set fits best with a huge c (1/(b*e+c) ~ 0); keep params tidy.
    return AccuracyCurve(a_max=a_max, b=max(0.0, b), c=max(0.0, c))


# --- retraining-time regressor ----------------------------------------------

N_FEATURES = 5  # param size, data count, unfrozen layers, epochs, batch size
_HIDDEN = 16


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _features(rows) -> np.ndarray:
    """``rows`` as an (n, N_FEATURES) array; ValueError unless each is finite and positive."""
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != N_FEATURES:
        raise ValueError(f"expected (n, {N_FEATURES}) feature matrix")
    if not np.isfinite(x).all() or (x <= 0).any():
        raise ValueError("features must be finite and positive")
    return x


def _targets(samples) -> np.ndarray:
    """The retraining times of ``samples``; ValueError unless each is finite and positive."""
    y = np.asarray([s[1] for s in samples], dtype=np.float64)
    if not np.isfinite(y).all() or (y <= 0).any():
        raise ValueError("retraining times must be finite and positive")
    return y


class TimeRegressor:
    """Feed-forward retraining-time regressor (5 -> 16 -> 16 -> 16 -> 1).

    Inputs are log-transformed then standardized with stored statistics; the
    target is modelled in log space so predictions are always positive.  All
    five features (parameter size, data count, unfrozen layers, epochs, batch
    size) are strictly positive counts or sizes.
    """

    def __init__(self, weights: List[np.ndarray], biases: List[np.ndarray],
                 x_mean: np.ndarray, x_std: np.ndarray):
        if len(weights) != 4 or len(biases) != 4:
            raise ValueError("expected 4 layers of weights and biases")
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        self.x_mean = np.asarray(x_mean, dtype=np.float64)
        self.x_std = np.asarray(x_std, dtype=np.float64)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        h = (np.log(x) - self.x_mean) / self.x_std
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = _softplus(h @ w + b)
        return (h @ self.weights[-1] + self.biases[-1]).ravel()

    def predict(self, features: Sequence[float]) -> float:
        return float(self.predict_many([features])[0])

    def predict_many(self, features: np.ndarray) -> np.ndarray:
        return np.exp(self._forward(_features(features)))


def train_time_regressor(
    samples: Sequence[Tuple[Sequence[float], float]],
    seed: int = 0,
    epochs: int = 5000,
    lr: float = 0.01,
) -> TimeRegressor:
    """Full-batch Adam training on log-seconds targets.

    Deterministic for a given (samples, seed): identical inputs give
    bit-identical weights.
    """
    from scipy.special import expit  # scipy is slow to import; only training needs it

    if len(samples) < 50:
        raise ValueError("need at least 50 training samples")
    x = _features([s[0] for s in samples])
    y = _targets(samples)
    lx = np.log(x)
    x_mean = lx.mean(axis=0)
    x_std = lx.std(axis=0)
    x_std[x_std == 0] = 1.0
    xs = (lx - x_mean) / x_std
    t = np.log(y)

    rng = np.random.default_rng(seed)
    sizes = [N_FEATURES, _HIDDEN, _HIDDEN, _HIDDEN, 1]
    weights = [
        rng.normal(0.0, math.sqrt(2.0 / sizes[i]), size=(sizes[i], sizes[i + 1]))
        for i in range(4)
    ]
    biases = [np.zeros(sizes[i + 1]) for i in range(4)]

    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    n = len(xs)

    for step in range(1, epochs + 1):
        # step-decayed learning rate keeps late training from oscillating
        if step > 0.9 * epochs:
            step_lr = lr / 10.0
        elif step > 0.6 * epochs:
            step_lr = lr / 3.0
        else:
            step_lr = lr
        # forward
        acts = [xs]
        pre = []
        h = xs
        for w, b in zip(weights[:-1], biases[:-1]):
            z = h @ w + b
            pre.append(z)
            h = _softplus(z)
            acts.append(h)
        out = (h @ weights[-1] + biases[-1]).ravel()
        # backward (mean squared error on log target)
        delta = (2.0 / n) * (out - t)[:, None]
        grads_w = [None] * 4
        grads_b = [None] * 4
        grads_w[3] = acts[3].T @ delta
        grads_b[3] = delta.sum(axis=0)
        back = delta @ weights[3].T
        for layer in (2, 1, 0):
            sig = expit(pre[layer])  # softplus'
            d = back * sig
            grads_w[layer] = acts[layer].T @ d
            grads_b[layer] = d.sum(axis=0)
            if layer > 0:
                back = d @ weights[layer].T
        # Adam update
        bc1 = 1.0 - beta1 ** step
        bc2 = 1.0 - beta2 ** step
        for i in range(4):
            m_w[i] = beta1 * m_w[i] + (1 - beta1) * grads_w[i]
            v_w[i] = beta2 * v_w[i] + (1 - beta2) * grads_w[i] ** 2
            weights[i] -= step_lr * (m_w[i] / bc1) / (np.sqrt(v_w[i] / bc2) + eps)
            m_b[i] = beta1 * m_b[i] + (1 - beta1) * grads_b[i]
            v_b[i] = beta2 * v_b[i] + (1 - beta2) * grads_b[i] ** 2
            biases[i] -= step_lr * (m_b[i] / bc1) / (np.sqrt(v_b[i] / bc2) + eps)

    return TimeRegressor(weights=weights, biases=biases, x_mean=x_mean, x_std=x_std)


def mean_relative_error(reg: TimeRegressor, samples: Sequence[Tuple[Sequence[float], float]]) -> float:
    y = _targets(samples)
    pred = reg.predict_many([s[0] for s in samples])
    return float(np.mean(np.abs(pred - y) / y))
