import hashlib
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from evosched.profiler import (
    DEFAULT_WORKSPACE_BYTES,
    AccuracyCurve,
    LayerKind,
    LayerSpec,
    ModelArch,
    feature_memory,
    fit_accuracy_curve,
    mean_relative_error,
    memory_demand,
    param_memory,
    read_arch_json,
    train_time_regressor,
    write_arch_json,
)


def conv(c_in, c_out, k, s=1, p=0):
    return LayerSpec(kind=LayerKind.CONV, c_in=c_in, c_out=c_out,
                     k1=k, k2=k, s1=s, s2=s, p1=p, p2=p)


class TestParamMemory:
    def test_reference_conv(self):
        assert param_memory(conv(3, 64, 7), 32) == 37_632

    def test_one_byte_conv(self):
        assert param_memory(conv(1, 1, 1), 8) == 1

    def test_batchnorm_scale_shift(self):
        bn = LayerSpec(kind=LayerKind.BATCHNORM, c_in=64, c_out=64)
        assert param_memory(bn, 32) == 2 * 64 * 4

    def test_fc(self):
        fc = LayerSpec(kind=LayerKind.FC, c_in=512, c_out=10)
        assert param_memory(fc, 32) == 512 * 10 * 4


class TestFeatureMemory:
    def test_reference_conv(self):
        bytes_, dims = feature_memory(conv(3, 64, 7, s=2, p=3), (224, 224), 32)
        assert dims == (112, 112)
        assert bytes_ == 3_211_264

    def test_same_padding_identity(self):
        _, dims = feature_memory(conv(8, 8, 3, s=1, p=1), (56, 56), 32)
        assert dims == (56, 56)

    def test_batch_linearity(self):
        b1, _ = feature_memory(conv(3, 16, 3, p=1), (32, 32), 32, batch=1)
        b4, _ = feature_memory(conv(3, 16, 3, p=1), (32, 32), 32, batch=4)
        assert b4 == 4 * b1

    def test_nonpositive_output_rejected(self):
        with pytest.raises(ValueError):
            feature_memory(conv(3, 8, 9), (4, 4), 32)


class TestMemoryDemand:
    def test_empty_arch_workspace_only(self):
        b = memory_demand(ModelArch(layers=()))
        assert b.m_p == b.m_f == b.m_g == b.m_opt == 0
        assert b.total == DEFAULT_WORKSPACE_BYTES

    def test_single_conv_oracle(self):
        arch = ModelArch(layers=(conv(3, 16, 3, s=1, p=1),),
                         bitwidth=32, input_w=32, input_h=32)
        b = memory_demand(arch)
        assert b.m_p == 3 * 16 * 3 * 3 * 4
        assert b.m_f == 32 * 32 * 16 * 4
        assert b.m_g == b.m_f
        assert b.m_opt == 2 * b.m_p
        assert b.total == b.m_p + b.m_f + b.m_g + b.m_opt + b.m_ws

    def test_bitwidth_scaling(self):
        layers = (conv(3, 16, 3, p=1), conv(16, 32, 3, s=2, p=1))
        b16 = memory_demand(ModelArch(layers=layers, bitwidth=16, input_w=64, input_h=64))
        b32 = memory_demand(ModelArch(layers=layers, bitwidth=32, input_w=64, input_h=64))
        assert b32.m_p == 2 * b16.m_p
        assert b32.m_f == 2 * b16.m_f
        assert b32.m_opt == 2 * b16.m_opt
        assert b32.m_ws == b16.m_ws

    def test_adding_layer_monotone(self):
        base = ModelArch(layers=(conv(3, 16, 3, p=1),), input_w=64, input_h=64)
        bigger = ModelArch(layers=(conv(3, 16, 3, p=1), conv(16, 16, 3, p=1)),
                           input_w=64, input_h=64)
        assert memory_demand(bigger).total > memory_demand(base).total

    def test_identities_random(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            layers = []
            c = int(rng.integers(1, 8))
            for _ in range(n):
                c_out = int(rng.integers(1, 32))
                layers.append(conv(c, c_out, 3, p=1))
                c = c_out
            arch = ModelArch(layers=tuple(layers), input_w=32, input_h=32,
                             batch=int(rng.integers(1, 5)))
            b = memory_demand(arch)
            assert b.m_g == b.m_f
            assert b.m_opt == 2 * b.m_p
            assert b.total == b.m_p + b.m_f + b.m_g + b.m_opt + b.m_ws

    def test_inconsistent_chain_names_layer(self):
        arch = ModelArch(layers=(conv(3, 8, 3, p=1), conv(8, 8, 40)),
                         input_w=16, input_h=16)
        with pytest.raises(ValueError, match="layer 1"):
            memory_demand(arch)


class TestArchJson:
    def test_round_trip(self, tmp_path):
        arch = ModelArch(
            layers=(conv(3, 16, 3, p=1),
                    LayerSpec(kind=LayerKind.BATCHNORM, c_in=16, c_out=16),
                    LayerSpec(kind=LayerKind.FC, c_in=256, c_out=10)),
            bitwidth=16, input_w=64, input_h=48, batch=2)
        path = tmp_path / "arch.json"
        write_arch_json(path, arch)
        assert read_arch_json(path) == arch

    def test_bad_descriptor(self, tmp_path):
        path = tmp_path / "arch.json"
        path.write_text('{"layers": [{"kind": "warp"}]}')
        with pytest.raises(ValueError):
            read_arch_json(path)


class TestAccuracyCurve:
    def test_noiseless_recovery(self):
        true = AccuracyCurve(a_max=0.8, b=0.5, c=1.0)
        probes = [(float(e), true.a_max - 1 / (true.b * e + true.c))
                  for e in range(1, 6)]
        fit = fit_accuracy_curve(probes)
        assert fit.a_max == pytest.approx(0.8, abs=1e-3)
        assert fit.b == pytest.approx(0.5, abs=1e-3)
        assert fit.c == pytest.approx(1.0, abs=1e-3)

    def test_flat_probes_zero_gain(self):
        fit = fit_accuracy_curve([(1.0, 0.7), (2.0, 0.7), (3.0, 0.7), (4.0, 0.7)])
        assert fit.predict(100) == pytest.approx(0.7, abs=1e-3)

    def test_monotone_over_probe_range(self):
        true = AccuracyCurve(a_max=0.9, b=0.3, c=2.0)
        probes = [(float(e), true.predict(e)) for e in (1, 3, 5, 8, 12)]
        fit = fit_accuracy_curve(probes)
        values = [fit.predict(e) for e in np.linspace(1, 12, 40)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_degenerate_epochs_rejected(self):
        with pytest.raises(ValueError):
            fit_accuracy_curve([(2.0, 0.5), (2.0, 0.6), (2.0, 0.7)])

    def test_too_few_probes_rejected(self):
        with pytest.raises(ValueError):
            fit_accuracy_curve([(1.0, 0.5), (2.0, 0.6)])

    def test_probes_at_negative_epochs(self):
        """The search stays where every b * e + c > 0, so none of its steps
        meets an infinite SSE (the nested search warned of invalid values here)."""
        probes = [(-4.0, 0.49944599913255794), (-3.0, 0.49934439100772415),
                  (0.0, 0.5001622837260393), (1.0, 0.4999029747950161),
                  (2.0, 0.49879292628473854)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_accuracy_curve(probes)
        assert curve_sse(fit, probes) <= curve_sse(nested_fit(probes), probes) * (1 + 1e-6)

    def test_noisy_probe_prediction_error(self):
        rng = np.random.default_rng(5)
        rel_errors = []
        for _ in range(20):
            true = AccuracyCurve(a_max=float(rng.uniform(0.6, 0.95)),
                                 b=float(rng.uniform(0.2, 1.0)),
                                 c=float(rng.uniform(0.8, 3.0)))
            probes = [(float(e), true.predict(e) + float(rng.normal(0, 0.004)))
                      for e in (1, 2, 3, 4, 5)]
            fit = fit_accuracy_curve(probes)
            for e in (6, 8, 10):
                t = true.predict(e)
                rel_errors.append(abs(fit.predict(e) - t) / t)
        assert float(np.mean(rel_errors)) <= 0.0523


def nested_fit(probes):
    """The reference fit: a bounded search over c inside every step of a
    bounded search over b, with a_max in closed form (mean residual offset)."""
    e = np.asarray([p[0] for p in probes], dtype=float)
    y = np.asarray([p[1] for p in probes], dtype=float)

    def solve_a_max(b, c):
        return float(np.mean(y + 1.0 / (b * e + c)))

    def sse(b, c):
        denom = b * e + c
        if np.any(denom <= 0):
            return float("inf")
        r = y - (solve_a_max(b, c) - 1.0 / denom)
        return float(np.dot(r, r))

    def inner(b):
        res = minimize_scalar(lambda c: sse(b, c), bounds=(1e-9, 1e4), method="bounded",
                              options={"xatol": 1e-10, "maxiter": 200})
        return float(res.x), float(res.fun)

    with np.errstate(invalid="ignore"):  # its steps meet inf where some b * e + c <= 0
        outer = minimize_scalar(lambda b: inner(b)[1], bounds=(0.0, 1e3), method="bounded",
                                options={"xatol": 1e-10, "maxiter": 200})
        b = float(outer.x)
        c, _ = inner(b)
    return AccuracyCurve(a_max=solve_a_max(b, c), b=b, c=c)


def curve_sse(curve, probes):
    e, y = np.asarray(probes, dtype=float).T
    return float(np.sum((y - (curve.a_max - 1.0 / (curve.b * e + curve.c))) ** 2))


@st.composite
def probe_sets(draw):
    """(epoch, accuracy) probes that are clean, noisy, steep, flat or falling,
    some at epochs shifted below zero."""
    kind = draw(st.sampled_from(["clean", "noisy", "steep", "flat", "falling"]))
    epochs = draw(st.lists(st.integers(1, 40), min_size=3, max_size=8, unique=True))
    e = np.sort(np.asarray(epochs, dtype=float)) * draw(st.floats(0.2, 2.0))
    a_max = draw(st.floats(0.5, 0.95))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind in ("clean", "noisy"):
        y = a_max - 1.0 / (draw(st.floats(0.05, 2.0)) * e + draw(st.floats(0.5, 3.0)))
        if kind == "noisy":
            y = y + rng.normal(0.0, 0.01, len(e))
    elif kind == "steep":
        y = a_max - 1.0 / (draw(st.floats(2.0, 50.0)) * e + draw(st.floats(1e-3, 0.1)))
        y = y + rng.normal(0.0, 0.002, len(e))
    elif kind == "flat":
        y = a_max + rng.normal(0.0, 1e-3, len(e))
    else:
        y = a_max - draw(st.floats(1e-3, 0.05)) * e + rng.normal(0.0, 0.005, len(e))
    return list(zip((e + draw(st.sampled_from([0.0, -5.0]))).tolist(), y.tolist()))


@settings(max_examples=40, deadline=None)
@given(probe_sets())
# flat, noisy sets whose best fit is near b / c = 4e-8, close to a line
@example([(2.0, 0.5013429816089117), (4.0, 0.49871473790491844), (8.0, 0.5010383900761413),
          (10.0, 0.5014915867579779), (12.0, 0.5008032286359743), (32.0, 0.49916759167146874),
          (56.0, 0.5011149588478583)])
@example([(2.0, 0.500335226588977), (8.0, 0.5007474719318665), (10.0, 0.5009526610184022),
          (12.0, 0.49995536977944227), (14.0, 0.5003719366960769), (28.0, 0.49951064239892495),
          (34.0, 0.5015741792686381)])
# a rising, convex set whose best fit is near a line: a_max near 2e8 loses the
# curve's values to rounding
@example([(1.005859375, -0.1437820678678062), (1.20703125, -0.14220226029895386),
          (1.408203125, -0.13037209337617164)])
# three points on a curve, fit with an SSE of about 0
@example([(2.0, 0.2540976142883406), (4.0, 0.37570478252147943), (6.0, 0.4183792908967415)])
def test_fit_is_no_worse_than_the_nested_search(probes):
    """One search over the direction of (b, c) fits as well as the nested
    searches over b and c, inside the same box."""
    fit = fit_accuracy_curve(probes)
    assert curve_sse(fit, probes) <= curve_sse(nested_fit(probes), probes) * (1 + 1e-6) + 1e-12
    assert np.isfinite([fit.b, fit.c]).all()
    assert 0.0 <= fit.b <= 1e3 and 1e-9 <= fit.c <= 1e4
    e = np.asarray(probes)[:, 0]
    values = [fit.predict(x) for x in np.linspace(e.min(), e.max(), 50)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def cost_model(f):
    p, d, u, e, b = f
    return 2.0 + 0.0008 * p * u + 0.02 * d * e / np.sqrt(b)


def make_samples(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        f = [float(rng.uniform(50, 2000)), float(rng.uniform(20, 400)),
             float(rng.integers(1, 31)), float(rng.integers(5, 41)),
             float(rng.integers(4, 65))]
        out.append((f, float(cost_model(f))))
    return out


@pytest.fixture(scope="module")
def trained():
    samples = make_samples(200, seed=11)
    return train_time_regressor(samples[:160], seed=0), samples[160:]


class TestTimeRegressor:
    def test_holdout_mre(self, trained):
        reg, holdout = trained
        assert mean_relative_error(reg, holdout) <= 0.05

    def test_deterministic_weights(self):
        samples = make_samples(60, seed=3)
        r1 = train_time_regressor(samples, seed=0, epochs=300)
        r2 = train_time_regressor(samples, seed=0, epochs=300)
        for a, b in zip(r1.weights + r1.biases, r2.weights + r2.biases):
            assert np.array_equal(a, b)

    def test_weights_and_predictions_pinned(self, trained):
        # Digests of the fixture's trained bytes: any change to the forward
        # pass, the backward pass or the Adam update moves at least one bit.
        reg, holdout = trained
        params = hashlib.sha256()
        for a in reg.weights + reg.biases:
            params.update(np.ascontiguousarray(a).tobytes())
        assert params.hexdigest() == (
            "d0aefe2249b19a4886a826a468f2495c8cc407b90607ec8c596d4d6f19328b45")
        pred = reg.predict_many([f for f, _ in holdout])
        assert hashlib.sha256(pred.tobytes()).hexdigest() == (
            "e6ff2ac6c2bc5030590cbcc2b2f7198b3b33708bd6442fb78bf45b86c87e24e4")

    def test_positive_and_fast(self, trained):
        reg, holdout = trained
        f = holdout[0][0]
        assert reg.predict(f) > 0
        start = time.perf_counter()
        for _ in range(200):
            reg.predict(f)
        per_call = (time.perf_counter() - start) / 200
        assert per_call <= 1e-3

    def test_malformed_features_rejected(self, trained):
        reg, holdout = trained
        for features in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0, float("nan")],
                         [1.0, 2.0, 3.0, 4.0, float("inf")], [1.0, 2.0, 3.0, 4.0, 0.0],
                         [1.0, 2.0, -3.0, 4.0, 5.0]):
            with pytest.raises(ValueError):
                reg.predict(features)
            with pytest.raises(ValueError):
                reg.predict_many([holdout[0][0], features])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_mre_rejects_non_finite_features(self, trained, bad):
        # nan > bound is False: a NaN error must not pass an MRE bound check
        reg, holdout = trained
        rows = [(list(f), y) for f, y in holdout]
        rows[0][0][1] = bad
        with pytest.raises(ValueError, match="finite"):
            mean_relative_error(reg, rows)

    @pytest.mark.parametrize("bad", [float("nan"), 0.0])
    def test_mre_rejects_nan_and_zero_targets(self, trained, bad):
        # a NaN target makes the error NaN and a zero one infinite
        reg, holdout = trained
        rows = [(f, bad if i == 0 else y) for i, (f, y) in enumerate(holdout)]
        with pytest.raises(ValueError, match="finite and positive"):
            mean_relative_error(reg, rows)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            train_time_regressor(make_samples(10, seed=0))

    def test_non_finite_training_sample_rejected(self):
        good = make_samples(60, seed=3)
        (f, y), rest = good[0], good[1:]
        for samples in ([([f[0], float("nan")] + f[2:], y)] + rest, [(f, float("nan"))] + rest):
            with pytest.raises(ValueError, match="finite"):
                train_time_regressor(samples, epochs=2)
