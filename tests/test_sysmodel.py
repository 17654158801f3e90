import math

import numpy as np
import pytest

from nishape import (NonlinearSystem, ScalarField, StaticNonlinearity,
                     build_full_shaping, gradient_check,
                     hamiltonian_to_nonlinear, make_closed_loop,
                     make_shaped_storage, scenario_names, get_scenario,
                     zero_field, TAU_ZERO)
from conftest import make_rotation_hamiltonian


# ---------------------------------------------------------------------------
# Construction invariants


def test_nonlinear_system_rejects_nonzero_equilibrium():
    with pytest.raises(ValueError, match="equilibrium"):
        NonlinearSystem(1, 1, lambda x, u: x + 1.0, lambda x: x.copy())


def test_nonlinear_system_rejects_nonzero_output_at_origin():
    with pytest.raises(ValueError, match="vanish"):
        NonlinearSystem(1, 1, lambda x, u: -x, lambda x: x + 2.0)


def test_nonlinear_system_rejects_nondeterministic_field():
    rng = np.random.default_rng(0)

    def noisy(x, u):
        return -x + 1e-15 * rng.normal(size=1) * 0.0 + rng.normal(size=1) * 1e-18

    with pytest.raises(ValueError, match="deterministic"):
        NonlinearSystem(1, 1, noisy, lambda x: x.copy())


def test_nonlinear_system_rejects_bad_io_dimension():
    with pytest.raises(ValueError, match="n_io"):
        NonlinearSystem(1, 2, lambda x, u: -x, lambda x: x.copy())


def test_scalar_field_must_vanish_at_origin():
    with pytest.raises(ValueError, match="vanish"):
        ScalarField(1, lambda x: float(x[0]) + 1.0)


def test_static_nonlinearity_must_vanish_at_origin():
    with pytest.raises(ValueError, match="vanish"):
        StaticNonlinearity(1, lambda y: y + 1.0)


@pytest.mark.parametrize("from_floats", [False, True], ids=["numpy", "floats"])
def test_nan_at_the_origin_is_rejected(from_floats):
    # NaN fails every "<= TAU_ZERO" test, so it cannot pass for "close to zero"
    def build(cls, *args):
        return cls.from_floats(*args) if from_floats else cls(*args)

    zero, nan = (lambda *args: [0.0, 0.0]), (lambda *args: [math.nan, math.nan])
    with pytest.raises(ValueError, match="equilibrium"):
        build(NonlinearSystem, 2, 2, nan, zero)
    with pytest.raises(ValueError, match="vanish"):
        build(NonlinearSystem, 2, 2, zero, nan)
    with pytest.raises(ValueError, match="vanish"):
        build(ScalarField, 2, lambda x: math.nan)
    with pytest.raises(ValueError, match="vanish"):
        build(StaticNonlinearity, 2, nan)


def test_hamiltonian_rejects_non_skew_J():
    H = ScalarField(2, lambda x: 0.5 * float(x @ x))
    from nishape import HamiltonianSystem
    with pytest.raises(ValueError, match="skew"):
        HamiltonianSystem(2, 1, lambda x: np.eye(2), lambda x: np.eye(2), H,
                          lambda x: np.array([x[0]]))


# ---------------------------------------------------------------------------
# Lur'e closure


def test_closed_loop_matches_linear_gain_example(linear_cases):
    sc = linear_cases["a"]
    closed = make_closed_loop(sc.build_plant(), sc.build_nonlinearity())
    A_cl = np.diag([-0.8, -3.0])
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(-4.0, 4.0, size=2)
        assert np.allclose(closed.f(x, np.zeros(2)), A_cl @ x, rtol=0, atol=1e-12)


def test_closed_loop_with_zero_map_is_identity(pendulum):
    plant, _ = pendulum
    zero_nl = StaticNonlinearity(2, lambda y: np.zeros(2), potential=zero_field(2))
    closed = make_closed_loop(plant, zero_nl)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-3.0, 3.0, size=4)
        u = rng.uniform(-2.0, 2.0, size=2)
        assert np.array_equal(closed.f(x, u), plant.f(x, u))


def test_closed_loop_pendulum_matches_hand_composition(pendulum):
    # independent composition of the plant equations with the shaping feedback
    plant, _ = pendulum
    closed = make_closed_loop(plant, build_full_shaping())
    th1, th2 = 0.3, 0.1
    x = np.array([th1, th2, 0.0, 0.0])

    beta, kappa, delta, a, b = 1.5, 5.0, 0.1, 5.0, 3.0
    e = th1 - th2
    g = -2.0 * beta * e - kappa * e / math.sqrt(e * e + delta * delta)
    u1 = g - a * b * math.tanh(b * th1)
    u2 = -g - a * b * math.tanh(b * th2)
    wdot1 = (-2.0 * 9.81 * math.sin(th1) - 2.0 * th1 - 0.2 * e + u1) / 2.0
    wdot2 = (-1.5 * 9.81 * math.sin(th2) - 1.0 * th2 + 0.2 * e + u2) / 1.5

    expected = np.array([0.0, 0.0, wdot1, wdot2])
    assert np.allclose(closed.f(x, np.zeros(2)), expected, rtol=0, atol=1e-12)


def test_closed_loop_dimension_mismatch_names_both_dims(pendulum):
    plant, _ = pendulum
    one_channel = StaticNonlinearity(1, lambda y: np.zeros(1))
    with pytest.raises(ValueError, match=r"2.*1"):
        make_closed_loop(plant, one_channel)


def test_closed_loop_fixes_origin_for_all_scenarios():
    for name in scenario_names():
        sc = get_scenario(name)
        closed = make_closed_loop(sc.build_plant(), sc.build_nonlinearity())
        z = np.zeros(closed.n_states)
        assert np.linalg.norm(closed.f(z, np.zeros(closed.n_io))) <= TAU_ZERO


# ---------------------------------------------------------------------------
# Shaped storage


def _quadratic_storage():
    return ScalarField(2, lambda x: 0.5 * float(x @ x),
                       lambda x: np.array(x, dtype=float))


def test_shaped_storage_diagonal_gain_case():
    V = _quadratic_storage()
    F = ScalarField(2, lambda y: 0.1 * y[0] ** 2 - 0.25 * y[1] ** 2,
                    lambda y: np.array([0.2 * y[0], -0.5 * y[1]]))
    W = make_shaped_storage(V, F, lambda x: x.copy(), 2, h_jacobian=lambda x: np.eye(2))
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-5.0, 5.0, size=2)
        assert W.value(x) == pytest.approx(0.4 * x[0] ** 2 + 0.75 * x[1] ** 2, abs=1e-12)


def test_shaped_storage_with_zero_potential_is_original():
    V = _quadratic_storage()
    W = make_shaped_storage(V, zero_field(2), lambda x: x.copy(), 2)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.uniform(-5.0, 5.0, size=2)
        assert W.value(x) == pytest.approx(V.value(x), abs=1e-14)


def test_shaped_storage_coupled_case():
    V = _quadratic_storage()
    F = ScalarField(2, lambda y: math.cos(y[0] - y[1]) - 1.0,
                    lambda y: np.array([math.sin(y[1] - y[0]), math.sin(y[0] - y[1])]))
    W = make_shaped_storage(V, F, lambda x: x.copy(), 2, h_jacobian=lambda x: np.eye(2))
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-5.0, 5.0, size=2)
        expected = 0.5 * x[0] ** 2 + 0.5 * x[1] ** 2 + 1.0 - math.cos(x[0] - x[1])
        assert W.value(x) == pytest.approx(expected, abs=1e-12)


def test_shaped_storage_decomposition_holds_on_probes(pendulum):
    plant, V = pendulum
    nl = build_full_shaping()
    W = make_shaped_storage(V, nl.potential, plant.h, 4, h_jacobian=plant.h_jacobian)
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = rng.uniform(-6.0, 6.0, size=4)
        residual = W.value(x) - V.value(x) + nl.potential.value(plant.h(x))
        assert abs(residual) <= TAU_ZERO


def test_shaped_storage_chain_rule_gradient_matches_differences(pendulum):
    plant, V = pendulum
    nl = build_full_shaping()
    W = make_shaped_storage(V, nl.potential, plant.h, 4, h_jacobian=plant.h_jacobian)
    assert W.has_analytic_gradient
    rng = np.random.default_rng(7)
    report = gradient_check(W, rng.uniform(-4.0, 4.0, size=(50, 4)))
    assert report.passed


def test_shaped_storage_dimension_mismatch():
    V = _quadratic_storage()
    with pytest.raises(ValueError, match="dimension"):
        make_shaped_storage(V, zero_field(2), lambda x: x.copy(), 3)


# ---------------------------------------------------------------------------
# One stored form: the compositions against their numpy oracles, and the two
# constructors against each other


def _bits(values):
    """Bit patterns of a float or a vector, every NaN made one: which operand's
    NaN an operation on two NaNs returns differs between numpy and Python."""
    out = np.atleast_1d(np.array(values, dtype=float))
    out[np.isnan(out)] = math.nan
    return out.view(np.uint64).tolist()


def _oracle_states(rng, dim):
    """Random states, every sign pattern of a zero state, and random states
    with one inf or nan entry."""
    zeros = np.array([[math.copysign(0.0, 1 - 2 * (k >> i & 1)) for i in range(dim)]
                      for k in range(2 ** dim)])
    special = rng.uniform(-8.0, 8.0, size=(60, dim))
    special[np.arange(60), rng.integers(0, dim, 60)] = rng.choice(
        [math.inf, -math.inf, math.nan], 60)
    return np.vstack([rng.uniform(-8.0, 8.0, size=(200, dim)), zeros, special])


# linear-b's plant is built from numpy callables, the pendulum from float forms
@pytest.mark.parametrize("name", ["linear-b", "pendulum-stabilize"])
def test_closed_loop_is_the_numpy_composition_bitwise(name):
    sc = get_scenario(name)
    plant, nl = sc.build_plant(), sc.build_nonlinearity()
    closed = make_closed_loop(plant, nl)
    rng = np.random.default_rng(11)
    states = _oracle_states(rng, plant.n_states)
    inputs = rng.uniform(-2.0, 2.0, size=(len(states), plant.n_io))
    # a zero v still turns a -0.0 of phi into 0.0
    inputs[(states == 0.0).all(axis=1)] = 0.0
    with np.errstate(all="ignore"):
        for x, v in zip(states, inputs):
            want = _bits(plant.f(x, nl.phi(plant.h(x)) + v))
            assert _bits(closed.f(x, v)) == want, (x, v)
            assert _bits(closed.f_floats(x.tolist(), v.tolist())) == want, (x, v)


@pytest.mark.parametrize("name", ["linear-b", "pendulum-stabilize"])
@pytest.mark.parametrize("with_h_floats", [True, False], ids=["h_floats", "adapted_h"])
def test_shaped_storage_is_the_numpy_composition_bitwise(name, with_h_floats):
    sc = get_scenario(name)
    plant, V, F = sc.build_plant(), sc.build_storage(), sc.build_nonlinearity().potential
    W = make_shaped_storage(V, F, plant.h, plant.n_states, h_jacobian=plant.h_jacobian,
                            h_floats=plant.h_floats if with_h_floats else None)
    states = _oracle_states(np.random.default_rng(12), plant.n_states)
    with np.errstate(all="ignore"):
        for x in states:
            want = _bits(V.value(x) - F.value(plant.h(x)))
            assert _bits(W.value(x)) == want, x
            assert _bits(W.value_floats(x.tolist())) == want, x
        # the per-point chain rule and the stacked one
        for x, g in zip(states, W.gradients(states)):
            assert _bits(W.gradient(x)) == _bits(g), x


def _twin_models(from_floats):
    """A plant, two storages (analytic and finite-difference gradient) and two
    feedbacks (a map and channels), written on numpy arrays for the plain
    constructors or on float sequences for ``from_floats``."""
    def vector(*entries):
        return list(entries) if from_floats else np.array(entries)

    def f(x, u):
        return vector(x[1], -x[0] - 0.5 * x[1] - x[0] * x[0] * x[0] + u[0])

    def value(x):
        return 0.5 * x[0] * x[0] + 0.25 * x[1] * x[1] * x[1] * x[1]

    def gradient(x):
        return vector(x[0], x[1] * x[1] * x[1])

    def phi(y):
        return vector(-2.0 * y[0], 3.0 * y[1] * y[1] - y[0])

    def build(cls, *args, **kwargs):
        return cls.from_floats(*args, **kwargs) if from_floats else cls(*args, **kwargs)

    channels = (lambda s: -2.0 * s, lambda s: 0.5 * s)
    if from_floats:
        diagonal = StaticNonlinearity.from_floats(
            2, lambda y: [c(s) for c, s in zip(channels, y)], channels=channels)
    else:
        diagonal = StaticNonlinearity(2, channels=channels)
    return (build(NonlinearSystem, 2, 1, f, lambda x: vector(x[0]),
                  h_jacobian=lambda x: np.array([[1.0, 0.0]])),
            build(ScalarField, 2, value, gradient), build(ScalarField, 2, value),
            build(StaticNonlinearity, 2, phi), diagonal)


def test_plain_and_float_built_twins_agree_on_every_derived_method():
    plain, floats = _twin_models(False), _twin_models(True)
    rng = np.random.default_rng(13)
    states = _oracle_states(rng, 2)
    inputs = rng.uniform(-2.0, 2.0, size=(len(states), 1))
    with np.errstate(all="ignore"):
        for x, u in zip(states, inputs):
            xs = x.tolist()
            for a, b in zip(plain, floats):
                if isinstance(a, NonlinearSystem):
                    pairs = [(a.f(x, u), b.f(x, u)), (a.h(x), b.h(x)),
                             (a.f_floats(xs, u.tolist()), b.f_floats(xs, u.tolist())),
                             (a.h_floats(xs), b.h_floats(xs)),
                             (a.output_jacobian(x), b.output_jacobian(x))]
                elif isinstance(a, ScalarField):
                    assert a.has_analytic_gradient == b.has_analytic_gradient
                    pairs = [(a.value(x), b.value(x)), (a.gradient(x), b.gradient(x)),
                             (a.value_floats(xs), b.value_floats(xs)),
                             (a.gradient_floats(xs), b.gradient_floats(xs))]
                else:
                    pairs = [(a.phi(x), b.phi(x)), (a.phi_floats(xs), b.phi_floats(xs))]
                for got, want in pairs:
                    assert _bits(got) == _bits(want), (a, x, u)
        for a, b in zip(plain[1:3], floats[1:3]):
            assert _bits(a.gradients(states)) == _bits(b.gradients(states))


# ---------------------------------------------------------------------------
# Hamiltonian realization


def test_hamiltonian_dynamics_damped_rotation():
    hs = make_rotation_hamiltonian(omega=1.0, r=1.0)
    sys = hamiltonian_to_nonlinear(hs)
    # (J - R) grad H at x = (1, 0) with u = 0
    assert np.allclose(sys.f(np.array([1.0, 0.0]), np.zeros(1)),
                       np.array([-1.0, -1.0]), atol=1e-14)
    # origin stays put
    assert np.allclose(sys.f(np.zeros(2), np.zeros(1)), np.zeros(2), atol=1e-14)
    # u = 1 cancels grad H at (1, 0): grad C^T u = (1, 0)
    assert np.allclose(sys.f(np.array([1.0, 0.0]), np.array([1.0])),
                       np.zeros(2), atol=1e-14)
    assert np.allclose(sys.h(np.array([1.0, 0.5])), np.array([1.0]), atol=1e-15)


def test_lossless_hamiltonian_conserves_energy():
    from nishape import simulate, InputSignal, IntegratorConfig
    hs = make_rotation_hamiltonian(omega=1.0, r=0.0)
    sys = hamiltonian_to_nonlinear(hs)
    traj = simulate(sys, [1.0, 0.0], InputSignal.zero(1),
                    IntegratorConfig(step=1e-3, t_end=10.0), monitor=hs.H)
    assert np.max(traj.storage) - np.min(traj.storage) <= 1e-8


# ---------------------------------------------------------------------------
# Gradient checking


def test_gradient_check_coupled_potential():
    F = ScalarField(2, lambda y: math.cos(y[0] - y[1]) - 1.0,
                    lambda y: np.array([math.sin(y[1] - y[0]), math.sin(y[0] - y[1])]))
    rng = np.random.default_rng(8)
    report = gradient_check(F, rng.uniform(-3.0, 3.0, size=(100, 2)))
    assert report.passed
    assert report.max_deviation <= 1e-6
    assert report.n_points == 100


def test_gradient_check_exact_linear_field():
    F = ScalarField(2, lambda y: 2.0 * y[0] - 3.0 * y[1],
                    lambda y: np.array([2.0, -3.0]))
    rng = np.random.default_rng(9)
    report = gradient_check(F, rng.uniform(-3.0, 3.0, size=(20, 2)))
    assert report.passed
    assert report.max_deviation <= 1e-9


def test_gradient_check_catches_sign_flip():
    F = ScalarField(2, lambda y: 0.5 * float(y @ y),
                    lambda y: -np.asarray(y, dtype=float))
    rng = np.random.default_rng(10)
    report = gradient_check(F, rng.uniform(1.0, 3.0, size=(20, 2)))
    assert report.verdict == "fail"
    assert report.max_deviation > 0.5


def test_gradient_check_without_analytic_gradient():
    F = ScalarField(2, lambda y: float(y @ y))
    report = gradient_check(F, [np.ones(2)])
    assert report.verdict == "nothing to check"
    assert report.n_points == 0
