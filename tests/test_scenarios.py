import csv
import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest

from nishape import scenarios, simulate
from nishape import (IntegratorConfig, PendulumParams, ScalarField, ShapingParams, StaticNonlinearity,
                     build_full_shaping, build_linear_example,
                     build_sync_shaping, export_potential_surface, get_scenario,
                     gradient_check, make_closed_loop, make_shaped_storage, run_scenario,
                     scenario_config, scenario_names, synchronization_statistic,
                     Trajectory)
from nishape.cli import main

from conftest import g17_hard_values


# ---------------------------------------------------------------------------
# Parameters


def test_pendulum_params_defaults():
    p = PendulumParams()
    assert (p.m1, p.m2, p.k1, p.k2) == (2.0, 1.5, 2.0, 1.0)
    assert (p.l1, p.l2, p.d1, p.d2) == (1.0, 1.0, 0.5, 0.8)
    assert (p.kc, p.dc, p.g) == (0.2, 1.5, 9.81)


def test_pendulum_params_validation():
    with pytest.raises(ValueError):
        PendulumParams(m1=0.0)
    with pytest.raises(ValueError):
        PendulumParams(d1=-0.1)


def test_shaping_params_defaults_and_validation():
    s = ShapingParams()
    assert (s.beta, s.kappa, s.delta, s.a, s.b) == (1.5, 5.0, 0.1, 5.0, 3.0)
    with pytest.raises(ValueError):
        ShapingParams(delta=0.0)
    with pytest.raises(ValueError):
        ShapingParams(kappa=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("params, label", [
    *((PendulumParams, label) for label in ("m1", "m2", "l1", "l2", "k1", "k2", "kc",
                                             "d1", "d2", "dc", "g")),
    *((ShapingParams, label) for label in ("beta", "kappa", "delta", "a", "b"))])
def test_params_reject_a_non_finite_value_by_name(params, label, bad):
    with pytest.raises(ValueError, match=f"^{label} must be .* and finite, got {bad}$"):
        params(**{label: bad})


# ---------------------------------------------------------------------------
# Pendulum plant


def test_pendulum_origin_is_equilibrium(pendulum):
    plant, _ = pendulum
    assert np.allclose(plant.f(np.zeros(4), np.zeros(2)), np.zeros(4))


def test_pendulum_storage_value_by_hand(pendulum):
    _, V = pendulum
    th = math.pi / 2
    expected = (0.5 * 2.0 * th ** 2              # hinge spring 1
                + 2.0 * 9.81 * 1.0 * (1.0 - math.cos(th))  # gravity 1
                + 0.5 * 0.2 * th ** 2)           # coupling spring
    assert V.value((th, 0.0, 0.0, 0.0)) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(22.334, abs=5e-4)


def test_pendulum_damping_row_by_hand(pendulum):
    plant, _ = pendulum
    # omega1 rate at (0, 0, 1, 0) with u = 0: -(d1 + dc) / (m1 l1^2) = -1
    rate = plant.f(np.array([0.0, 0.0, 1.0, 0.0]), np.zeros(2))
    assert rate[2] == pytest.approx(-1.0, abs=1e-14)


def test_pendulum_output_is_angle_projection(pendulum):
    plant, _ = pendulum
    x = np.array([0.3, -0.7, 2.0, -1.0])
    assert np.array_equal(plant.h(x), np.array([0.3, -0.7]))
    assert np.array_equal(plant.output_jacobian(x), np.eye(2, 4))


# ---------------------------------------------------------------------------
# Shaping feedbacks


def test_sync_shaping_values():
    nl = build_sync_shaping()
    assert np.allclose(nl.phi(np.zeros(2)), np.zeros(2))
    e = 0.1
    expected_first = -2.0 * 1.5 * e - 5.0 * e / math.sqrt(e * e + 0.01)
    out = nl.phi(np.array([0.2, 0.1]))
    assert out[0] == pytest.approx(expected_first, abs=1e-12)
    assert out[1] == pytest.approx(-expected_first, abs=1e-12)
    assert expected_first == pytest.approx(-3.8355, abs=5e-5)


def test_sync_potential_is_even_in_the_swap():
    nl = build_sync_shaping()
    rng = np.random.default_rng(13)
    for _ in range(20):
        y1, y2 = rng.uniform(-4.0, 4.0, size=2)
        assert nl.potential.value((y1, y2)) == pytest.approx(
            nl.potential.value((y2, y1)), abs=1e-12)


def test_full_shaping_values():
    nl = build_full_shaping()
    assert np.allclose(nl.phi(np.zeros(2)), np.zeros(2))
    out = nl.phi(np.array([0.5, 0.5]))
    expected = -5.0 * 3.0 * math.tanh(1.5)
    assert out[0] == pytest.approx(expected, abs=1e-12)
    assert out[1] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-13.577, abs=5e-4)


def test_full_shaping_gradient_consistency():
    nl = build_full_shaping()
    rng = np.random.default_rng(14)
    report = gradient_check(nl.potential, rng.uniform(-3.0, 3.0, size=(100, 2)))
    assert report.passed
    assert report.worst_value <= 1e-6


@pytest.mark.parametrize("build", [build_sync_shaping, build_full_shaping,
                                   lambda: build_linear_example("a").build_nonlinearity(),
                                   lambda: build_linear_example("b").build_nonlinearity()])
def test_each_feedback_is_the_gradient_form_of_its_potential(build):
    nl, again = build(), build()
    assert nl.phi_floats is nl.potential.gradient_floats
    assert nl.potential.value_floats.source and nl.phi_floats.source
    # the same source texts and constants: the second build reuses the compiled forms
    assert again.phi_floats is nl.phi_floats
    assert again.potential.value_floats is nl.potential.value_floats


def test_linear_example_case_a_keeps_its_channels_and_names():
    nl = build_linear_example("a").build_nonlinearity()
    assert (nl.name, nl.potential.name) == ("diagonal gains", "sign-indefinite potential")
    assert [channel(2.0) for channel in nl.channels] == [0.4, -1.0]
    nl = build_linear_example("b").build_nonlinearity()
    assert (nl.name, nl.potential.name, nl.channels) == (
        "coupled sine feedback", "coupled potential", None)


# ---------------------------------------------------------------------------
# Model callables against the numpy-scalar formulas (bitwise)


def _sin(z):
    """``math.sin``, with numpy's nan at an infinity, where ``math.sin`` raises."""
    return float(np.sin(z)) if math.isinf(z) else math.sin(z)


def _cos(z):
    """``math.cos``, with numpy's nan at an infinity, where ``math.cos`` raises."""
    return float(np.cos(z)) if math.isinf(z) else math.cos(z)


def _numpy_scalar_models(pp, sp):
    """The model formulas evaluated on numpy scalars (unpacked ``x``, ``y[0]``),
    as the Python-float callables must reproduce them bit for bit."""
    m1l1 = pp.m1 * pp.l1 ** 2
    m2l2 = pp.m2 * pp.l2 ** 2
    m1gl1 = pp.m1 * pp.g * pp.l1
    m2gl2 = pp.m2 * pp.g * pp.l2
    k1, k2, kc, d1, d2, dc = pp.k1, pp.k2, pp.kc, pp.d1, pp.d2, pp.dc
    beta, kappa, delta, a, b = sp.beta, sp.kappa, sp.delta, sp.a, sp.b

    def f(x, u):
        th1, th2, w1, w2 = x
        e = th1 - th2
        de = w1 - w2
        return np.array([
            w1,
            w2,
            (-m1gl1 * _sin(th1) - k1 * th1 - d1 * w1 - kc * e - dc * de + u[0]) / m1l1,
            (-m2gl2 * _sin(th2) - k2 * th2 - d2 * w2 + kc * e + dc * de + u[1]) / m2l2,
        ])

    def v_value(x):
        th1, th2, w1, w2 = x
        return (0.5 * kc * (th1 - th2) ** 2
                + 0.5 * k1 * th1 ** 2 + 0.5 * m1l1 * w1 ** 2 + m1gl1 * (1.0 - _cos(th1))
                + 0.5 * k2 * th2 ** 2 + 0.5 * m2l2 * w2 ** 2 + m2gl2 * (1.0 - _cos(th2)))

    def v_gradient(x):
        th1, th2, w1, w2 = x
        e = th1 - th2
        return np.array([kc * e + k1 * th1 + m1gl1 * _sin(th1),
                         -kc * e + k2 * th2 + m2gl2 * _sin(th2),
                         m1l1 * w1, m2l2 * w2])

    def log_cosh(z):
        az = abs(z)
        return az - math.log(2.0) + math.log1p(math.exp(-2.0 * az))

    def sync_value(y):
        e = y[0] - y[1]
        return -beta * e * e - kappa * (math.sqrt(e * e + delta * delta) - delta)

    def sync_gradient(y):
        e = y[0] - y[1]
        g = -2.0 * beta * e - kappa * e / math.sqrt(e * e + delta * delta)
        return np.array([g, -g])

    def full_value(y):
        return sync_value(y) - a * log_cosh(b * y[0]) - a * log_cosh(b * y[1])

    def full_gradient(y):
        e = y[0] - y[1]
        g = -2.0 * beta * e - kappa * e / math.sqrt(e * e + delta * delta)
        return np.array([g - a * b * math.tanh(b * y[0]), -g - a * b * math.tanh(b * y[1])])

    h_jac = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    return {
        "plant f": f,
        "plant h": lambda x: np.array([x[0], x[1]]),
        "V value": v_value,
        "V gradient": v_gradient,
        "V gradient floats": v_gradient,
        "sync F gradient floats": sync_gradient,
        "full F gradient floats": full_gradient,
        "sync F": sync_value,
        "sync phi": sync_gradient,
        "full F": full_value,
        "full phi": full_gradient,
        "linear-a F": lambda y: 0.1 * y[0] ** 2 - 0.25 * y[1] ** 2,
        "linear-a phi": lambda y: np.array([0.2 * y[0], -0.5 * y[1]]),
        "linear-b F": lambda y: _cos(y[0] - y[1]) - 1.0,
        "linear-b phi": lambda y: np.array([_sin(y[1] - y[0]), _sin(y[0] - y[1])]),
        # the closed loops f(x, phi(h(x)) + v) and the shaped storages V - F(h(x))
        "sync closed f": lambda x, u: f(x, sync_gradient(x[:2]) + u),
        "full closed f": lambda x, u: f(x, full_gradient(x[:2]) + u),
        "sync W": lambda x: v_value(x) - sync_value(x[:2]),
        "full W": lambda x: v_value(x) - full_value(x[:2]),
        "sync W gradient floats": lambda x: v_gradient(x) - h_jac.T @ sync_gradient(x[:2]),
        "full W gradient floats": lambda x: v_gradient(x) - h_jac.T @ full_gradient(x[:2]),
    }


def _storage_fields(pp, sp):
    """The pendulum's V, both potentials F and both shaped storages W."""
    plant, V = scenarios.build_pendulum(pp)
    sync, full = build_sync_shaping(sp), build_full_shaping(sp)
    W_sync, W_full = (make_shaped_storage(V, nl.potential, plant.h, 4, h_jacobian=plant.h_jacobian)
                      for nl in (sync, full))
    return {"V": V, "sync F": sync.potential, "full F": full.potential,
            "sync W": W_sync, "full W": W_full}


def _python_float_models(pp, sp):
    """The built-in models' numpy callables, the float forms of the closed
    loops and shaped storages as the step loop composes them, and the
    gradient float forms of V, F and W."""
    plant, V = scenarios.build_pendulum(pp)
    sync, full = build_sync_shaping(sp), build_full_shaping(sp)
    lin_a = build_linear_example("a").build_nonlinearity()
    lin_b = build_linear_example("b").build_nonlinearity()
    fields = _storage_fields(pp, sp)
    W_sync, W_full = fields["sync W"], fields["full W"]
    models = {f"{label} gradient floats": lambda x, g=field.gradient_floats: g(x.tolist())
              for label, field in fields.items()}
    models |= {
        "plant f": plant.f,
        "plant h": plant.h,
        "V value": V.value,
        "V gradient": V.gradient,
        "sync F": sync.potential.value,
        "sync phi": sync.phi,
        "full F": full.potential.value,
        "full phi": full.phi,
        "linear-a F": lin_a.potential.value,
        "linear-a phi": lin_a.phi,
        "linear-b F": lin_b.potential.value,
        "linear-b phi": lin_b.phi,
        "sync W": lambda x: W_sync.value_floats(x.tolist()),
        "full W": lambda x: W_full.value_floats(x.tolist()),
    }
    for label, nl in (("sync", sync), ("full", full)):
        closed = make_closed_loop(plant, nl)
        models[f"{label} closed f"] = lambda x, u, f=closed.f_floats: f(x.tolist(), u.tolist())
    return models


_SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-170, -1e-170, 1.5e154,
                   1e200, -1e200, 1.7976931348623157e308, math.inf, -math.inf, math.nan)


def _probe_vectors(rng, n, dim):
    """Random vectors: moderate values, log-uniform magnitudes over the whole
    float range, and the special values above in random slots."""
    moderate = rng.uniform(-10.0, 10.0, size=(n, dim))
    wide = rng.choice((-1.0, 1.0), size=(n, dim)) * 10.0 ** rng.uniform(-320.0, 308.0, size=(n, dim))
    special = rng.choice(np.array(_SPECIAL_VALUES), size=(n, dim))
    pick = rng.uniform(size=(n, dim))
    return np.where(pick < 0.7, moderate, np.where(pick < 0.85, wide, special))


def _pow_sensitive_values(rng, n_pool=100_000):
    """Values whose ``z ** 2`` (pow) and ``z * z`` round differently, so that a
    square written as a product changes the result there."""
    pool = rng.uniform(-10.0, 10.0, n_pool) * 10.0 ** rng.integers(-3, 4, n_pool)
    powers = np.array([z ** 2 for z in pool.tolist()])
    return pool[powers != pool * pool]


def _outcome(fn, *args):
    """The result's bit patterns (so -0.0 != 0.0), with every NaN made one.

    Which operand's NaN an addition of two NaNs returns differs between numpy
    scalars and Python floats (and even between CPython's generic and
    specialized float add), so NaN sign and payload are not compared; every
    artifact prints any NaN as "nan".
    """
    out = np.atleast_1d(np.asarray(fn(*args), dtype=float))
    out[np.isnan(out)] = math.nan
    return out.view(np.uint64).tolist()


# The second and third sets isolate each square of V on a one-entry probe
# (no gravity; no coupling spring, or no hinge springs), with delta * delta a
# subnormal 1e-320 (a delta whose square underflows to zero is rejected).
@pytest.mark.parametrize("pp, sp", [
    (PendulumParams(), ShapingParams()),
    (PendulumParams(kc=0.0, dc=0.0, g=0.0), ShapingParams(delta=1e-160, kappa=0.0)),
    (PendulumParams(m1=1e-300, k1=0.0, k2=0.0, g=0.0), ShapingParams(delta=1e-160, beta=0.0)),
], ids=["defaults", "kc0-delta1e-160", "springless-tiny-mass"])
def test_model_callables_match_the_numpy_scalar_formulas_bitwise(pp, sp):
    oracle = _numpy_scalar_models(pp, sp)
    models = _python_float_models(pp, sp)
    rng = np.random.default_rng(41)
    z = _pow_sensitive_values(rng)
    assert z.size >= 20
    one_entry = np.zeros((4 * z.size, 4))
    for slot in range(4):
        one_entry[slot * z.size:(slot + 1) * z.size, slot] = z
    states = np.vstack([_probe_vectors(rng, 4000, 4), one_entry])
    inputs = _probe_vectors(rng, states.shape[0], 2)
    # every sign pattern of a zero state, under a zero input: phi(h(x)) + v turns a
    # -0.0 of phi into 0.0, so a closed loop that skipped adding a zero v shows here
    signed_zeros = np.array([[math.copysign(0.0, 1 - 2 * (k >> i & 1)) for i in range(4)]
                             for k in range(16)])
    states = np.vstack([states, signed_zeros])
    inputs = np.vstack([inputs, np.zeros((16, 2))])
    with np.errstate(all="ignore"):
        for x, u in zip(states, inputs):
            y = x[:2].copy()
            for name, fn in models.items():
                args = ((x, u) if name.endswith(" f")
                        else (x,) if name.startswith(("plant", "V")) or " W" in name
                        else (y,))
                got, want = _outcome(fn, *args), _outcome(oracle[name], *args)
                assert got == want, (name, x, u)
    assert np.isinf(states[:, :2]).any()  # infinite angles reached sin and cos
    # gradients(xs) stacks the gradient_floats checked above, bit for bit
    with np.errstate(all="ignore"):
        for name, field in _storage_fields(pp, sp).items():
            points = states[:, :field.dim]
            stacked = np.array([field.gradient_floats(p) for p in points.tolist()], dtype=float)
            assert (field.gradients(points).view(np.uint64).tolist()
                    == stacked.view(np.uint64).tolist()), name


def test_pendulum_rejects_an_underflowing_inertia():
    with pytest.raises(ValueError, match="underflows"):
        scenarios.build_pendulum(PendulumParams(l1=1e-170))


def test_shaping_rejects_a_delta_whose_square_underflows():
    # delta * delta = 0.0 would make the smoothed |e| divide 0 by 0 at the origin
    with pytest.raises(ValueError, match="underflows"):
        ShapingParams(delta=1e-200)
    assert ShapingParams(delta=1e-160).delta == 1e-160  # a subnormal square is kept


# ---------------------------------------------------------------------------
# Linear examples


def test_linear_example_case_a_storage_and_loop():
    sc = build_linear_example("a")
    plant = sc.build_plant()
    nl = sc.build_nonlinearity()
    V = sc.build_storage()
    W = make_shaped_storage(V, nl.potential, plant.h, 2, h_jacobian=plant.h_jacobian)
    rng = np.random.default_rng(15)
    for _ in range(20):
        x = rng.uniform(-4.0, 4.0, size=2)
        assert W.value(x) == pytest.approx(0.4 * x[0] ** 2 + 0.75 * x[1] ** 2, abs=1e-12)
        assert np.allclose(plant.f(x, nl.phi(plant.h(x))), np.diag([-0.8, -3.0]) @ x,
                           atol=1e-12)


def test_linear_example_case_b_storage_vanishes_at_origin():
    sc = build_linear_example("b")
    plant = sc.build_plant()
    nl = sc.build_nonlinearity()
    V = sc.build_storage()
    W = make_shaped_storage(V, nl.potential, plant.h, 2, h_jacobian=plant.h_jacobian)
    assert W.value(np.zeros(2)) == 0.0


def test_linear_example_unknown_case():
    with pytest.raises(ValueError, match="case"):
        build_linear_example("c")


# ---------------------------------------------------------------------------
# Registry


def test_registry_contents():
    assert scenario_names() == ["linear-a", "linear-b", "pendulum-stabilize", "pendulum-sync"]
    with pytest.raises(ValueError, match="unknown scenario"):
        get_scenario("linear-z")


def test_scenario_builders_are_referentially_transparent():
    sc = get_scenario("pendulum-sync")
    plant_a = sc.build_plant()
    plant_b = sc.build_plant()
    nl_a = sc.build_nonlinearity()
    nl_b = sc.build_nonlinearity()
    rng = np.random.default_rng(16)
    for _ in range(100):
        x = rng.uniform(-5.0, 5.0, size=4)
        u = rng.uniform(-3.0, 3.0, size=2)
        assert np.array_equal(plant_a.f(x, u), plant_b.f(x, u))
        assert np.array_equal(nl_a.phi(x[:2]), nl_b.phi(x[:2]))


def test_scenario_config_dump():
    cfg = scenario_config("pendulum-sync")
    assert cfg["pendulum"]["m1"] == 2.0
    assert cfg["shaping"]["kappa"] == 5.0
    assert cfg["integrator"] == {"step": 1e-3, "t_end": 30.0, "method": "RK4"}
    assert list(cfg["integrator"]) == ["step", "t_end", "method"]  # scenario.json key order
    assert cfg["x0"] == [6.0, 4.5, 0.0, 0.0]
    assert cfg["signal"]["kind"] == "square_wave"
    lin = scenario_config("linear-a")
    assert lin["A"] == [[-1.0, 0.0], [0.0, -2.0]]


# ---------------------------------------------------------------------------
# Potential surfaces


def test_surface_minima_counts(pendulum, tmp_path):
    plant, V = pendulum
    nl = build_full_shaping()
    W2 = make_shaped_storage(V, nl.potential, plant.h, 4, h_jacobian=plant.h_jacobian)
    original = export_potential_surface(V, tmp_path / "v.csv", points=81)
    shaped = export_potential_surface(W2, points=81)
    assert len(original.minima) > 1
    assert shaped.minima == ((0.0, 0.0),)
    header = (tmp_path / "v.csv").read_text().splitlines()[0]
    assert header == "theta1,theta2,value"


def _per_cell_surface_csv(report):
    """The former surface writer: one f-string per grid cell."""
    lines = ["theta1,theta2,value\n"]
    for i, t1 in enumerate(report.axis):
        for j, t2 in enumerate(report.axis):
            lines.append(f"{t1:.17g},{t2:.17g},{report.values[i, j]:.17g}\n")
    return "".join(lines)


def test_surface_csv_matches_the_per_cell_writer_bytewise(pendulum, tmp_path):
    plant, V = pendulum
    nl = build_full_shaping()
    W = make_shaped_storage(V, nl.potential, plant.h, 4, h_jacobian=plant.h_jacobian)
    axis = np.linspace(-1.0 / 3.0, 1.0 / 3.0, 21)
    rng = np.random.default_rng(17)
    patterns = rng.integers(0, 2 ** 64, size=21 * 21, dtype=np.uint64).view(np.float64)
    patterns[:8] = [math.nan, math.inf, -math.inf, -0.0, 5e-324, -5e-324,
                    1.7976931348623157e308, 1e-310]
    table = {(t1, t2): v for (t1, t2), v in zip(
        ((t1, t2) for t1 in axis.tolist() for t2 in axis.tolist()), patterns.tolist())}
    table[(0.0, 0.0)] = 0.0
    odd = ScalarField(2, lambda x: table.get((float(x[0]), float(x[1])), 0.0))
    # every value of g17_hard_values on a grid of 224 x 224 cells, 37 chunks of rows
    hard, hard_axis = g17_hard_values(rng), np.linspace(-1.0 / 3.0, 1.0 / 3.0, 224).tolist()
    hard_table = dict(zip(((t1, t2) for t1 in hard_axis for t2 in hard_axis),
                          np.resize(hard, 224 * 224).tolist()))
    hard_field = ScalarField(2, lambda x: hard_table.get((float(x[0]), float(x[1])), 0.0))
    cases = [(V, 8.0, 81), (W, 8.0, 4), (nl.potential, 1e200, 5), (odd, 1.0 / 3.0, 21),
             (hard_field, 1.0 / 3.0, 224)]
    for k, (field, half_range, points) in enumerate(cases):
        path = tmp_path / f"surface{k}.csv"
        with np.errstate(all="ignore"):
            report = export_potential_surface(field, path, half_range=half_range, points=points)
        assert path.read_text() == _per_cell_surface_csv(report), k
    assert np.isnan(report.values).any() and np.isinf(report.values).any()


SHAPED_SURFACE_MINIMA = {  # (original, shaped) at 161 points on +-8, 41 on +-3 and 401 on +-8
    "linear-a": ((1, 1), (1, 1), (1, 1)), "linear-b": ((1, 1), (1, 1), (1, 1)),
    "pendulum-stabilize": ((9, 1), (1, 1), (9, 1)), "pendulum-sync": ((9, 3), (1, 1), (9, 3))}


@pytest.mark.parametrize("name", sorted(SHAPED_SURFACE_MINIMA))
def test_shaped_surface_from_the_storage_grid_matches_the_per_cell_field_bitwise(name):
    _, V, _, W = scenarios._build_parts(get_scenario(name))
    for (half_range, points), counts in zip(((8.0, 161), (3.0, 41), (8.0, 401)),
                                            SHAPED_SURFACE_MINIMA[name]):
        original = export_potential_surface(V, half_range=half_range, points=points)
        shaped = export_potential_surface(W, half_range=half_range, points=points, base=original)
        ticks = original.axis.tolist()
        pad = (0.0,) * (W.dim - 2)
        for grid, field in ((original, V), (shaped, W)):  # both grids run on columns
            per_cell = np.array([[field.value_floats((t1, t2) + pad) for t2 in ticks]
                                 for t1 in ticks])
            assert np.array_equal(grid.values.view(np.uint64), per_cell.view(np.uint64))
        direct = export_potential_surface(W, half_range=half_range, points=points)
        assert (shaped.minima, shaped.n_plateau) == (direct.minima, direct.n_plateau)
        assert (len(original.minima), len(shaped.minima)) == counts
    with pytest.raises(ValueError, match="base"):  # V's grid on another axis
        export_potential_surface(W, half_range=3.0, points=43, base=original)
    with pytest.raises(ValueError, match="base"):  # a grid of a field W is not shaped from
        export_potential_surface(W, half_range=3.0, points=41, base=shaped)


def test_surface_constant_field_is_degenerate():
    flat = ScalarField(2, lambda x: 0.0)
    report = export_potential_surface(flat, points=21, half_range=2.0)
    assert report.degenerate
    assert report.minima == ()
    assert report.n_plateau == 19 * 19


def test_surface_grid_validation(pendulum):
    _, V = pendulum
    with pytest.raises(ValueError):
        export_potential_surface(V, points=2)
    with pytest.raises(ValueError, match="points"):
        export_potential_surface(V, points=scenarios.MAX_SURFACE_POINTS + 1)
    for half_range in (0.0, -1.0, math.nan, math.inf, 1e308):  # 2 * 1e308 overflows
        with pytest.raises(ValueError, match="half_range"):
            export_potential_surface(V, half_range=half_range)
    with pytest.raises(ValueError, match="dimension"):
        export_potential_surface(ScalarField(3, lambda x: float(x @ x)))


# ---------------------------------------------------------------------------
# Pipeline


def test_run_scenario_linear_a_bundle(tmp_path):
    result = run_scenario("linear-a", out_dir=tmp_path)
    assert result.passed
    names = [name for name, _ in result.checks]
    assert "ssni-certificate" in names
    assert "shaped-storage positive-definite" in names
    assert "closed-loop storage decay" in names
    assert result.extras["epsilon_estimate"] > 0.0

    csv_path = result.artifacts["checks_csv"]
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["check", "verdict", "worst_value", "witness"]
    assert all(row[1] in ("pass", "skipped", "info", "flagged") for row in rows[1:])

    with open(result.artifacts["scenario_json"]) as fh:
        cfg = json.load(fh)
    assert cfg["name"] == "linear-a"
    with open(result.artifacts["trajectory"]) as fh:
        traj_lines = fh.read().splitlines()
    assert traj_lines[0] == "t,x1,x2,v1,v2,y1,y2,W"


def test_run_scenario_pendulum_sync_bundle(tmp_path):
    result = run_scenario("pendulum-sync", out_dir=tmp_path)
    assert result.passed
    names = [name for name, _ in result.checks]
    assert "synchronization statistic" in names
    assert "hidden-motion heuristic" in names
    sync = dict(result.checks)["synchronization statistic"]
    # worst: the ratio of the shaped to the original mean |y1 - y2|; witness: the two means
    mean_original, mean_shaped = sync.witness
    assert sync.worst_value == mean_shaped / mean_original < 0.25
    assert set(result.artifacts) == {"trajectory", "trajectory_unforced",
                                     "trajectory_original", "checks_csv",
                                     "checks_txt", "scenario_json"}


def test_run_scenario_pendulum_stabilize_bundle(tmp_path):
    result = run_scenario("pendulum-stabilize", out_dir=tmp_path)
    assert result.passed
    names = [name for name, _ in result.checks]
    assert "convergence endpoint" in names
    assert "equilibrium uniqueness" in names
    endpoint = dict(result.checks)["convergence endpoint"]
    # worst: max |x(T)|; witness: x(T)
    assert endpoint.worst_value == max(map(abs, endpoint.witness)) < 1e-2


@pytest.mark.parametrize("name, n_runs", [
    ("pendulum-stabilize", 2),  # plant, unforced closed loop
    ("pendulum-sync", 4),       # plus forced closed loop, unshaped run (repeats the plant run)
])
def test_run_scenario_simulation_count(monkeypatch, name, n_runs):
    calls = []

    def counting_simulate(*args, **kwargs):
        calls.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(scenarios, "simulate", counting_simulate)
    run_scenario(name, t_end=0.05)
    assert len(calls) == n_runs


@pytest.mark.parametrize("name, passes", [
    ("linear-a", {"W": 1}),
    ("linear-b", {"W": 1}),
    ("pendulum-stabilize", {"W": 1}),  # the unforced closed loop's decay check and CSV
    # and the forced closed loop and the original plant for their CSVs; the rated plant
    # run is never read, so no V
    ("pendulum-sync", {"pendulum storage": 1, "W": 2}),
])
def test_run_scenario_storage_passes_per_read_run(monkeypatch, name, passes):
    # a pass over a whole record: field.values on as many rows as a run has knots
    cfg = IntegratorConfig(step=1e-3, t_end=0.057)
    seen = Counter()
    values = ScalarField.values

    def counted(field, xs):
        if len(xs) == cfg.n_steps + 1:
            seen[field.name] += 1
        return values(field, xs)

    monkeypatch.setattr(ScalarField, "values", counted)
    run_scenario(name, t_end=cfg.t_end)
    assert seen == passes


_BOX_CHECKS = ["gradient-consistency F", "gradient-consistency V",
               "shaped-storage positive-definite"]
_PLANT_AND_LOOP = ["plant NI residuals", "plant OSNI residuals", "closed-loop storage decay",
                   "closed-loop NI residuals (shaped storage)"]
_FILES = ["checks_csv", "checks_txt", "scenario_json"]


@pytest.mark.parametrize("name, checks, extras, artifacts", [
    ("linear-a", _BOX_CHECKS + ["ssni-certificate", "minimal-realization"] + _PLANT_AND_LOOP,
     ["dc_gain_max_abs", "epsilon_estimate"], ["trajectory"] + _FILES),
    ("linear-b", _BOX_CHECKS + ["ssni-certificate", "minimal-realization"] + _PLANT_AND_LOOP,
     ["dc_gain_max_abs", "epsilon_estimate"], ["trajectory"] + _FILES),
    ("pendulum-sync", _BOX_CHECKS + _PLANT_AND_LOOP
     + ["hidden-motion heuristic", "synchronization statistic"], ["epsilon_estimate"],
     ["trajectory", "trajectory_unforced", "trajectory_original"] + _FILES),
    ("pendulum-stabilize", _BOX_CHECKS + _PLANT_AND_LOOP
     + ["hidden-motion heuristic", "convergence endpoint", "equilibrium uniqueness"],
     ["epsilon_estimate"], ["trajectory"] + _FILES),
])
def test_run_scenario_check_order_and_artifact_labels(name, checks, extras, artifacts, tmp_path):
    result = run_scenario(name, t_end=0.05, out_dir=tmp_path)
    assert [check for check, _ in result.checks] == checks
    assert list(result.extras) == extras
    assert list(result.artifacts) == artifacts


def test_run_scenario_unknown_name():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("nope")


def test_run_scenario_overrides(tmp_path):
    result = run_scenario("linear-b", step=2e-3, t_end=2.0, x0=[0.5, -0.5], seed=3)
    assert result.passed
    assert result.artifacts == {}


def test_gradient_consistency_f_probes_the_feedback_that_closes_the_loop(monkeypatch, capsys):
    sc = get_scenario("linear-b")

    def doubled():  # phi = 2 grad F, with F unchanged
        nl = sc.build_nonlinearity()
        return StaticNonlinearity.from_floats(2, lambda y: [2.0 * g for g in nl.phi_floats(y)],
                                              potential=nl.potential)

    monkeypatch.setitem(scenarios.REGISTRY, "linear-b",
                        dataclasses.replace(sc, build_nonlinearity=doubled))
    assert main(["run", "linear-b"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if ": fail" in line]
    assert [line.split("  ")[0] for line in failed] == ["gradient-consistency F: fail",
                                                         "overall: fail"]


def test_synchronization_statistic_window():
    times = np.arange(5) * 1.0
    outputs = np.array([[1.0, 0.0]] * 5)
    traj = Trajectory(times=times, states=np.zeros((5, 2)), inputs=np.zeros((5, 2)),
                      outputs=outputs)
    assert synchronization_statistic(traj, 1.0, 3.0) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="window"):
        synchronization_statistic(traj, 10.0, 12.0)
