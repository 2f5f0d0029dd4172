"""Pre-scheduling task profiling: analytic memory demand, accuracy-gain curve
fitting, and a small learned regressor for retraining time.

Memory demand is computed from the layer list (parameters, features, gradients,
optimizer state, framework workspace).  Accuracy over epochs is modelled by the
saturating family A(e) = a_max - 1/(b*e + c), fitted by bounded searches over
the direction of (b, c) with a linear inner solve.  Retraining time is predicted
by a three-hidden-layer feed-forward network over five scalar job features.
"""
from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from typing import List, Sequence, Tuple

import numpy as np

from .core import check_numbers, ranged

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
    c_in: int = ranged(lo=0, open_lo=True)
    c_out: int = ranged(lo=0, open_lo=True)
    k1: int = 1
    k2: int = 1
    s1: int = 1
    s2: int = 1
    p1: int = 0
    p2: int = 0

    def __post_init__(self):
        check_numbers(self)
        if self.kind is LayerKind.CONV:
            if min(self.k1, self.k2, self.s1, self.s2) <= 0:
                raise ValueError("conv kernel and stride must be positive")
            if min(self.p1, self.p2) < 0:
                raise ValueError("conv padding must be non-negative")


@dataclass(frozen=True)
class ModelArch:
    bitwidth: int = 32
    input_w: int = ranged(224, lo=0, open_lo=True)
    input_h: int = ranged(224, lo=0, open_lo=True)
    batch: int = ranged(1, lo=0, open_lo=True)
    layers: Tuple[LayerSpec, ...] = field(kw_only=True)  # last in a JSON document

    def __post_init__(self):
        check_numbers(self)
        if self.bitwidth not in VALID_BITWIDTHS:
            raise ValueError(f"bitwidth must be one of {VALID_BITWIDTHS}")
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


# --- JSON documents -----------------------------------------------------------

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


def from_doc(cls, doc):
    """Inverse of ``fields_doc``: dataclass ``cls`` from a JSON object of its
    keys, numbers left to ``check_numbers``.  An unknown key, a missing
    required one or a value of the wrong JSON kind raises ValueError naming the class and key,
    and a ValueError from ``cls`` itself is raised again naming the class."""
    _checked(doc, dict, cls.__name__)
    kwargs = {}
    for name, key, read, required in _field_readers(cls):
        if key in doc:
            kwargs[name] = doc[key] if read is None else read(doc[key])
        elif required:
            raise ValueError(f"{cls.__name__}: missing key {key!r}")
    if len(kwargs) < len(doc):
        unknown = next(key for key in doc if key not in [spec[1] for spec in _field_readers(cls)])
        raise ValueError(f"{cls.__name__}: unknown key {unknown!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{cls.__name__}: {exc}") from exc


@functools.cache
def _field_readers(cls) -> tuple:
    """``(name, key, reader or None for a number, required)`` per field of ``cls``."""
    names, specs = vars(sys.modules[cls.__module__]), []
    for f in fields(cls):
        key = JSON_KEYS.get(f.name, f.name)
        specs.append((f.name, key, _value_reader(f.type, names, f"{cls.__name__}.{key}"),
                      f.default is MISSING))
    return tuple(specs)


def _value_reader(annotation: str, names: dict, where: str):
    """The reader of field ``where``, annotated by a string naming a type in
    ``names``; None for a number.  ``Optional[str]`` reads a string, not null,
    and a tuple's reader names the index of an item it cannot read."""
    if annotation in ("int", "float"):
        return None
    if annotation in ("str", "Optional[str]"):
        return lambda value: _checked(value, str, where)
    if annotation.startswith("Tuple["):  # Tuple[X, ...]
        read_item = _value_reader(annotation[len("Tuple["):-len(", ...]")], names, where)

        def read(value):
            items = []
            for i, item in enumerate(_checked(value, list, where)):
                try:
                    items.append(read_item(item))
                except ValueError as exc:
                    raise ValueError(f"{where}[{i}]: {exc}") from exc
            return tuple(items)

        return read
    cls = names[annotation]
    if is_dataclass(cls):
        return functools.partial(from_doc, cls)
    values = tuple(member.value for member in cls)  # an enum reads its value
    return lambda value: cls(_checked(value, str, where, values))


def _checked(value, kind: type, where: str, among: tuple = ()):
    """``value`` if it is of JSON kind ``kind`` and, where ``among`` is given,
    one of ``among``; else ValueError naming ``where``."""
    if not isinstance(value, kind):
        kinds = {dict: "object", list: "list", str: "string", bool: "boolean", type(None): "null"}
        raise ValueError(f"{where}: expected a JSON {kinds[kind]}, "
                         f"got {kinds.get(type(value), 'number')}")
    if among and value not in among:
        raise ValueError(f"{where}: {value!r} is not one of {', '.join(map(repr, among))}")
    return value


def json_doc(text: str):
    """The JSON document ``text`` holds; ValueError naming the line if invalid."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def parse_file(path, parse):
    """``parse`` applied to the text of file ``path``; a ValueError it raises
    is raised again naming the file."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_json(path, doc, sort_keys: bool) -> None:
    """``doc`` to file ``path`` as JSON, indented by two and ending in a newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def write_arch_json(path, arch: ModelArch) -> None:
    write_json(path, fields_doc(arch), sort_keys=False)


def read_arch_json(path) -> ModelArch:
    return parse_file(path, lambda text: from_doc(ModelArch, json_doc(text)))


# --- accuracy-gain curve ----------------------------------------------------

@dataclass(frozen=True)
class AccuracyCurve:
    """Saturating learning curve A(e) = a_max - 1/(b*e + c)."""

    a_max: float
    b: float = ranged(lo=0)
    c: float = ranged(lo=0)

    def __post_init__(self):
        check_numbers(self)

    def predict(self, epoch: float) -> float:
        denom = self.b * epoch + self.c
        if denom <= 0:
            return 0.0
        return min(1.0, max(0.0, self.a_max - 1.0 / denom))


def fit_accuracy_curve(probes: Sequence[Tuple[float, float]]) -> AccuracyCurve:
    """Least-squares fit of the curve family to (epoch, accuracy) probes with
    0 <= b <= 1e3 and 1e-9 <= c <= 1e4.  Bounded searches run over the direction
    s = c / (b + c) and over log10(b / c); at each step a_max and k = 1 / c have a
    closed form (variable projection)."""
    from scipy.optimize import brentq, minimize_scalar  # scipy is slow to import; only fitting needs it

    if len(probes) < 3:
        raise ValueError("need at least 3 probe points")
    e, y = np.asarray(probes, dtype=float).T
    if np.ptp(e) == 0:
        raise ValueError("probe epochs are all identical")
    y_c = y - y.mean()

    def fit(w: float) -> Tuple[float, float, float, float]:  # SSE, a_max, b, c with b / c = w
        if 1.0 + w * e.min() <= 0:  # some b * e + c <= 0
            return math.inf, 0.0, 0.0, 0.0
        g = 1.0 / (w * e + 1.0)  # the curve is a_max - k * g, linear in a_max and k
        # g - mean(g) = w * d, written so that it keeps its digits as w -> 0
        d = g * (float(np.mean(e * g)) - e * float(np.mean(g)))
        m = -float(np.dot(y_c, d)) / (float(np.dot(d, d)) or 1.0)  # k * w
        k = min(max(m / w if w > 0 else 0.0, w / 1e3, 1e-4), 1e9)  # the box: b = w / k <= 1e3, 1e-9 <= c <= 1e4
        r = y_c + k * w * d
        return float(np.dot(r, r)), float(y.mean() + k * np.mean(g)), min(w / k, 1e3), 1.0 / k

    top = 1e12 / max(1.0, -1e12 * float(e.min()))  # b / c <= 1e3 / 1e-9, and b * e + c > 0
    options = {"xatol": 1e-10, "maxiter": 200}
    s = float(minimize_scalar(lambda s: fit((1.0 - s) / s)[0], bounds=(1.0 / (1.0 + top), 1.0),
                              method="bounded", options=options).x)
    # a flat probe set fits best near b / c = 0, where a search over s cannot
    # resolve b / c: search log10(b / c) too, down to 1e-12, below which
    # 1 + e * b / c rounds to 1 and the SSE to noise
    hi = math.log10(top)
    x = float(minimize_scalar(lambda x: fit(10.0 ** x)[0], bounds=(min(-12.0, hi), hi),
                              method="bounded", options=options).x)
    sse, w = min((fit(w)[0], w) for w in ((1.0 - s) / s, 10.0 ** x, top, 0.0))
    # near a line, a_max and 1 / (b * e + c) grow as c / b and the curve's values
    # lose digits to their difference: of the fits within 1e-7 of the least SSE,
    # take one with a larger b / c
    def excess(x: float) -> float:  # SSE at b / c = 10 ** x above the least * (1 + 1e-7)
        return fit(10.0 ** x)[0] - sse * (1.0 + 1e-7)

    if 0.0 < w < top and excess(math.log10(w)) < 0:
        w = top if excess(hi) <= 0 else 10.0 ** brentq(excess, math.log10(w), hi, xtol=1e-6)
    _, a_max, b, c = fit(w)
    return AccuracyCurve(a_max=a_max, b=b, c=c)


# --- retraining-time regressor ----------------------------------------------

N_FEATURES = 5  # param size, data count, unfrozen layers, epochs, batch size
_HIDDEN = 16


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


def _layers(h: np.ndarray, weights: List[np.ndarray], biases: List[np.ndarray]):
    """The network on standardized inputs ``h``: each hidden layer's
    pre-activation, each layer's input (``h`` first) and the output."""
    pre, inputs = [], [h]
    for w, b in zip(weights[:-1], biases[:-1]):
        pre.append(h @ w + b)
        h = np.logaddexp(0.0, pre[-1])  # softplus
        inputs.append(h)
    return pre, inputs, (h @ weights[-1] + biases[-1]).ravel()


class TimeRegressor:
    """Feed-forward retraining-time regressor (5 -> 16 -> 16 -> 16 -> 1).

    Inputs are log-transformed then standardized with stored statistics; the
    target is modelled in log space so predictions are always positive."""

    def __init__(self, weights: List[np.ndarray], biases: List[np.ndarray],
                 x_mean: np.ndarray, x_std: np.ndarray):
        if len(weights) != 4 or len(biases) != 4:
            raise ValueError("expected 4 layers of weights and biases")
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        self.x_mean = np.asarray(x_mean, dtype=np.float64)
        self.x_std = np.asarray(x_std, dtype=np.float64)

    def predict(self, features: Sequence[float]) -> float:
        return float(self.predict_many([features])[0])

    def predict_many(self, features: np.ndarray) -> np.ndarray:
        h = (np.log(_features(features)) - self.x_mean) / self.x_std
        return np.exp(_layers(h, self.weights, self.biases)[2])


_LEARNING_RATE = 0.01  # Adam's step size before the late-training decay


def train_time_regressor(
    samples: Sequence[Tuple[Sequence[float], float]],
    seed: int = 0,
    epochs: int = 5000,
) -> TimeRegressor:
    """Full-batch Adam training on log-seconds targets.

    Deterministic for a given (samples, seed): identical inputs give
    bit-identical weights."""
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
    params = weights + biases  # the same arrays, updated in place

    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    n = len(xs)

    for step in range(1, epochs + 1):
        # step-decayed learning rate keeps late training from oscillating
        if step > 0.9 * epochs:
            step_lr = _LEARNING_RATE / 10.0
        elif step > 0.6 * epochs:
            step_lr = _LEARNING_RATE / 3.0
        else:
            step_lr = _LEARNING_RATE
        pre, inputs, out = _layers(xs, weights, biases)
        # backward (mean squared error on log target): d is the gradient with
        # respect to layer i's pre-activation, and softplus' is expit
        d = (2.0 / n) * (out - t)[:, None]
        grads_w, grads_b = [None] * 4, [None] * 4
        for i in (3, 2, 1, 0):
            if i < 3:
                d = (d @ weights[i + 1].T) * expit(pre[i])
            grads_w[i] = inputs[i].T @ d
            grads_b[i] = d.sum(axis=0)
        # Adam update
        bc1 = 1.0 - beta1 ** step
        bc2 = 1.0 - beta2 ** step
        for i, (p, g) in enumerate(zip(params, grads_w + grads_b)):
            m[i] = beta1 * m[i] + (1 - beta1) * g
            v[i] = beta2 * v[i] + (1 - beta2) * g ** 2
            p -= step_lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)

    return TimeRegressor(weights=weights, biases=biases, x_mean=x_mean, x_std=x_std)


def mean_relative_error(reg: TimeRegressor, samples: Sequence[Tuple[Sequence[float], float]]) -> float:
    y = _targets(samples)
    pred = reg.predict_many([s[0] for s in samples])
    return float(np.mean(np.abs(pred - y) / y))
