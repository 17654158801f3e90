import hashlib
import inspect
import math
import warnings
from operator import add

import numpy as np
import pytest

import nishape
from nishape import sysmodel
from nishape import (Check, InputSignal, IntegratorConfig, LinearSystem, NonlinearSystem,
                     ScalarField, SlopeBounds, SsniCertificate, StaticNonlinearity,
                     build_full_shaping, gradient_check, make_closed_loop,
                     make_shaped_storage, rate_table, run_scenario, scenario_names,
                     get_scenario, simulate, to_nonlinear, zero_field, TAU_ZERO)
from nishape.scenarios import ScenarioResult
from conftest import (fused_and_composed, make_linear_gain_feedback, make_rotation_hamiltonian,
                      probe_states, with_storage)


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


# a system's bound h contributes its h_floats; any other callable is adapted
@pytest.mark.parametrize("name", ["linear-b", "pendulum-stabilize"])
@pytest.mark.parametrize("bound_h", [True, False], ids=["h_floats", "adapted_h"])
def test_shaped_storage_is_the_numpy_composition_bitwise(name, bound_h):
    sc = get_scenario(name)
    plant, V, F = sc.build_plant(), sc.build_storage(), sc.build_nonlinearity().potential
    h = plant.h if bound_h else lambda x: plant.h(x)
    W = make_shaped_storage(V, F, h, plant.n_states, h_jacobian=plant.h_jacobian)
    states = _oracle_states(np.random.default_rng(12), plant.n_states)
    with np.errstate(all="ignore"):
        for x in states:
            want = _bits(V.value(x) - F.value(plant.h(x)))
            assert _bits(W.value(x)) == want, x
            assert _bits(W.value_floats(x.tolist())) == want, x
        # the per-point chain rule and the stacked one
        for x, g in zip(states, W.gradients(states)):
            assert _bits(W.gradient(x)) == _bits(g), x


def _assert_chain_rule_bitwise(W, V, F, h, J, states):
    """W's gradient, per point and stacked, against numpy's ``grad V - J^T grad F(h)``."""
    with np.errstate(all="ignore"):
        stacked = W.gradients(states)
        for x, g in zip(states, stacked):
            jac = np.asarray(J(x) if callable(J) else J, dtype=float)
            want = _bits(V.gradient(x) - jac.T @ F.gradient(h(x)))
            assert _bits(W.gradient(x)) == want, x
            assert _bits(W.gradient_floats(x.tolist())) == want, x
            assert _bits(g) == want, x


@pytest.mark.parametrize("name", ["linear-a", "linear-b", "pendulum-sync", "pendulum-stabilize"])
def test_projected_storage_gradient_is_the_numpy_chain_rule_bitwise(name):
    sc = get_scenario(name)
    plant, V, F = sc.build_plant(), sc.build_storage(), sc.build_nonlinearity().potential
    W = make_shaped_storage(V, F, plant.h, plant.n_states, h_jacobian=plant.h_jacobian)
    # C = I or the pendulum's [I 0]: the generated float form, stacked by ScalarField.gradients
    assert type(W.gradient_floats([0.0] * plant.n_states)) is tuple
    assert W.gradients.__func__ is ScalarField.gradients
    states = _oracle_states(np.random.default_rng(14), plant.n_states)
    _assert_chain_rule_bitwise(W, V, F, plant.h, plant.h_jacobian, states)


def test_out_of_order_projection_gradient_keeps_signed_zeros_and_nans():
    # rows e2, e0 on n = 3: y = (x2, x0); V and F give -0.0 entries at zeros
    V = ScalarField.from_floats(3, lambda x: 0.0, lambda x: (-x[0], -0.0 * x[1], x[2] * x[2]))
    F = ScalarField.from_floats(2, lambda y: 0.0, lambda y: (-y[0], 3.0 * y[1] * y[1]))
    J = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]

    def h(x):
        return np.array([x[2], x[0]])

    W = make_shaped_storage(V, F, h, 3, h_jacobian=J)
    assert type(W.gradient_floats([0.0] * 3)) is tuple
    states = _oracle_states(np.random.default_rng(15), 3)
    # an infinite grad F turns every entry it does not select into NaN, as J.T @ g does
    assert math.isnan(W.gradient_floats([math.inf, 1.0, 0.0])[1])
    _assert_chain_rule_bitwise(W, V, F, h, np.array(J), states)
    zero = W.gradient_floats([-0.0, -0.0, -0.0])
    assert _bits(zero) == _bits(V.gradient([-0.0] * 3) - np.array(J).T @ F.gradient([-0.0] * 2))


@pytest.mark.parametrize("jacobian", ["sum", "callable", "scaled"])
def test_other_output_jacobians_keep_numpy_chain_rule_bitwise(jacobian):
    V = ScalarField.from_floats(2, lambda x: 0.0, lambda x: (math.sin(x[0]), -0.0 * x[1]))
    F = ScalarField.from_floats(1, lambda y: 0.0, lambda y: (y[0] * y[0] * y[0],))
    J = {"sum": [[1.0, 1.0]], "scaled": [[2.0, 0.0]],
         "callable": lambda x: np.array([[1.0, 0.0]])}[jacobian]

    def h(x):
        return np.array([x[0] + x[1]]) if jacobian == "sum" else np.array([x[0]])

    W = make_shaped_storage(V, F, h, 2, h_jacobian=J)
    assert type(W.gradient_floats([0.0, 0.0])) is np.ndarray  # numpy's product, not generated
    states = _oracle_states(np.random.default_rng(16), 2)[:204]  # finite: sin raises at inf
    _assert_chain_rule_bitwise(W, V, F, h, J, states)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_generated_closed_loop_is_the_mapped_sum_bitwise(p):
    received = []

    def f(x, u):  # hands back the input it is given
        received.append(u)
        return tuple(u)

    def phi(y):  # -0.0 at a zero output
        return tuple(-(s * s * s) - 0.5 * math.sin(s) for s in y)

    plant = NonlinearSystem.from_floats(p, p, f, lambda x: tuple(2.0 * s for s in x))
    nl = StaticNonlinearity.from_floats(p, phi)
    closed = make_closed_loop(plant, nl)
    rng = np.random.default_rng(30 + p)
    states = _oracle_states(rng, p)[:200 + 2 ** p]  # the finite ones: math.sin raises at inf
    inputs = rng.uniform(-2.0, 2.0, size=(len(states), p))
    zeros = states[200:]  # every sign pattern of a zero state, under a zero v of each sign
    states = np.vstack([states, zeros])
    inputs = np.vstack([inputs[:200], np.zeros_like(zeros), np.full_like(zeros, -0.0)])
    assert _bits(phi([0.0] * p)) == _bits([-0.0] * p)
    with np.errstate(all="ignore"):
        for x, v in zip(states.tolist(), inputs.tolist()):
            want = _bits(f(x, list(map(add, phi(plant.h_floats(x)), v))))
            received.clear()
            assert _bits(closed.f_floats(x, v)) == want, (x, v)
            assert type(received[0]) is tuple and len(received[0]) == p
    assert _bits(closed.f_floats([0.0] * p, [0.0] * p)) == [0] * p  # -0.0 + 0.0 is 0.0


@pytest.mark.parametrize("extra", [1, -1])
def test_generated_closed_loop_rejects_a_phi_of_the_wrong_length(extra):
    def phi(y):  # the right length only at the origin, where it is probed
        return [0.0, 0.0] if y == [0.0, 0.0] else [1.0] * (2 + extra)

    plant = NonlinearSystem.from_floats(2, 2, lambda x, u: (u[0], u[1]), lambda x: list(x))
    closed = make_closed_loop(plant, StaticNonlinearity.from_floats(2, phi))
    with pytest.raises(ValueError):
        closed.f_floats([1.0, 0.0], (0.0, 0.0))


@pytest.mark.parametrize("name", ["pendulum-sync", "pendulum-stabilize"])
def test_spliced_forms_are_the_composed_forms_bitwise(name):
    (_, _, closed, W), (_, _, closed_ref, W_ref) = fused_and_composed(name)
    pairs = [(closed.f_floats, closed_ref.f_floats), (W.value_floats, W_ref.value_floats),
             (W.shaping.value_floats, W_ref.shaping.value_floats),
             (W.gradient_floats, W_ref.gradient_floats)]
    assert all(hasattr(form, "source") and not hasattr(ref, "source") for form, ref in pairs)
    states = probe_states(4, 19)
    inputs = nishape.halton_box_samples([(-2.0, 2.0)] * 2, len(states), 20)
    inputs[200:208], inputs[208:216] = 0.0, -0.0  # at the zero states, a zero v of each sign
    with np.errstate(all="ignore"):
        for x, v in zip(states.tolist(), inputs.tolist()):
            for form, ref in pairs:
                args = (x, v) if form is closed.f_floats else (x,)
                assert _bits(form(*args)) == _bits(ref(*args)), (form.__name__, x, v)
        assert _bits(W.gradients(states)) == _bits(W_ref.gradients(states))
    # sin raised at the infinite angle, and the one retry gave numpy's nan
    assert math.isnan(closed.f_floats([math.inf, 0.0, 0.0, 0.0], [0.0, 0.0])[2])


@pytest.mark.parametrize("name", ["pendulum-stabilize", "pendulum-sync"])
def test_column_forms_are_the_per_point_forms_bitwise(name):
    plant, V, nl, W = nishape.scenarios._build_parts(get_scenario(name))
    probes = probe_states(4, 29)  # 200 Halton, 16 signed-zero, 80 with inf, nan or +-1e308
    ok = np.all(np.abs(probes) < 1e300, axis=1)
    halton = nishape.halton_box_samples([(-8.0, 8.0)] * 4, 5000, 31)
    states, finite = np.vstack([probes, halton]), np.vstack([probes[ok], halton])
    for field, width in ((V, None), (W, None), (W.shaping, None), (V, 4), (W, 4)):
        form = field.value_floats if width is None else field.gradient_floats
        run = sysmodel._column_form(form.source)
        per_point = [form(x) for x in states.tolist()]
        whole = field.values(states) if width is None else field.gradients(states)
        assert _bits(whole) == _bits(per_point)
        # at finite states, one run on the columns and no call at a point
        calls = []
        counted = lambda x, form=form: calls.append(x) or form(x)  # noqa: E731
        counted.source = form.source
        assert _bits(sysmodel.on_columns(counted, tuple(finite.T), width=width)) == _bits(
            [form(x) for x in finite.tolist()])
        assert not calls
        # each probe on its own: only an infinity, a nan or an overflow may stop a column
        # run (sin(inf) and pow past the overflow raise), and a run that ends gives the
        # per-point bits
        for x, finite_x, ref in zip(probes.tolist(), ok, per_point):
            with np.errstate(divide="raise", invalid="raise", over="ignore"):
                try:
                    result = run(tuple(np.array([entry]) for entry in x))
                except (FloatingPointError, ValueError, OverflowError):
                    assert not finite_x, (form.__name__, x)
                    continue
            entries = [np.broadcast_to(entry, (1,))[0] for entry in (
                result if width else (result,))]
            assert _bits(entries) == _bits(ref), (form.__name__, x)
    # f(x, u) of the plant and of the closed loop, a form of two parameters: every state
    # against a zero input (as floats, broadcast), a square wave and the probe inputs
    n = len(states)
    square = np.column_stack([np.where(np.arange(n) % 3, 2.0, -2.0), np.zeros(n)])
    probe_inputs = probe_states(2, 37)
    probe_inputs = probe_inputs[np.arange(n) % len(probe_inputs)]
    for form in (plant.f_floats, make_closed_loop(plant, nl).f_floats):
        for inputs in (np.zeros((n, 2)), square, probe_inputs):
            per_point = np.array([form(x, u) for x, u in zip(states.tolist(), inputs.tolist())])
            held = tuple(inputs.T) if inputs.any() else (0.0, 0.0)
            whole = sysmodel.on_columns(form, tuple(states.T), held, width=4)
            assert whole.shape == (n, 4) and _bits(whole) == _bits(per_point)
            # at finite states and inputs, one run on the columns and no call at a point
            calls = []
            counted = lambda x, u, form=form: calls.append(x) or form(x, u)  # noqa: E731
            counted.source = form.source
            keep = np.all(np.abs(np.hstack([states, inputs])) < 1e300, axis=1)
            assert _bits(sysmodel.on_columns(counted, tuple(states[keep].T),
                                             tuple(inputs[keep].T), width=4)) == \
                _bits(per_point[keep])
            assert not calls
    # sin raises at an infinite angle and ends the column run; on_columns then calls V at
    # each point, whose one retry gives numpy's nan
    angle = (np.array([math.inf, -math.inf]), np.array([0.0, 1.0]), 0.0, 0.0)
    with pytest.raises(ValueError), np.errstate(divide="raise", invalid="raise", over="ignore"):
        sysmodel._column_form(V.value_floats.source)(angle)
    whole = sysmodel.on_columns(V.value_floats, angle)
    assert np.isnan(whole).all() and _bits(whole) == _bits(
        [V.value_floats([a, b, 0.0, 0.0]) for a, b in ((math.inf, 0.0), (-math.inf, 1.0))])


@pytest.mark.parametrize("width, column, entry", [
    (4, 0, math.inf), (4, 1, -math.inf),  # sin raises at the infinite angle: V's gradient
    (None, 2, 1e200), (None, 3, -1e200)])  # sq's pow overflows at the huge velocity: V's value
def test_a_column_map_that_raises_sends_the_block_to_the_call_per_point(pendulum, width, column,
                                                                       entry):
    # one such entry in a block of 1,024 finite states: the column run raises, and on_columns
    # calls the form once at each row, in order, which gives nan or inf there as the form does
    _, V = pendulum
    form = V.value_floats if width is None else V.gradient_floats
    states = nishape.halton_box_samples([(-8.0, 8.0)] * 4, 1024, 3)
    states[517, column] = entry
    calls = []
    counted = lambda x: calls.append(x) or form(x)  # noqa: E731
    counted.source = form.source
    whole = sysmodel.on_columns(counted, tuple(states.T), width=width)
    per_point = [form(x) for x in states.tolist()]
    assert calls == states.tolist()
    assert _bits(whole) == _bits(per_point)
    assert not np.isfinite(whole[517]).all() and np.isfinite(np.delete(whole, 517, 0)).all()


def test_column_log_cosh_is_the_float_log_cosh_bitwise():
    # numpy's abs, * and + around libm maps of exp and log1p: the bits of the Python
    # _log_cosh on random values of every scale, signed zeros, infinities, nan, +-1e308
    # (where -2.0 * |z| overflows to -inf) and the smallest subnormal, and on a bare float,
    # with no numpy warning (an error in this suite) under on_columns' errstate
    rng = np.random.default_rng(11)
    values = np.concatenate([rng.normal(0.0, 1.0, 50001) * 10.0 ** rng.integers(-12, 4, 50001),
                             [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324]])
    column = sysmodel._COLUMNS["log_cosh"]
    with np.errstate(divide="raise", invalid="raise", over="ignore"):
        got = column(values)
        bare = [column(z) for z in values[-8:].tolist()]
    want = np.array([sysmodel._log_cosh(z) for z in values.tolist()])
    assert got.tobytes() == want.tobytes()
    assert all(type(z) is float for z in bare) and np.array(bare).tobytes() == want[-8:].tobytes()
    # a form that calls it runs once on the columns, with no call at a point
    calls = []
    form = nishape.float_form("def f(x):\n    a, = x\n    return 5.0 * log_cosh(3.0 * a)")
    counted = lambda x: calls.append(x) or form(x)  # noqa: E731
    counted.source = form.source
    assert _bits(sysmodel.on_columns(counted, (values,))) == _bits(
        [form([z]) for z in values.tolist()])
    assert not calls


# every source of the four scenarios' models and compositions (plant f and h, V and its
# gradient, phi, F, the closed loop's f, W, W's gradient and S): the texts that the step
# loop and float_form's cache are keyed on, as they read before the rate table's joined form
_SOURCES_SHA256 = "1969b8c85c0efe57fccbbf4fbbaaf52f7a6c65eb3c37ec67f46924aaed8e0c4a"


def test_every_built_in_float_form_keeps_its_source():
    digest, count = hashlib.sha256(), 0
    for name in scenario_names():
        plant, V, nl, W = nishape.scenarios._build_parts(get_scenario(name))
        closed = make_closed_loop(plant, nl)
        for form in (plant.f_floats, plant.h_floats, V.value_floats, V.gradient_floats,
                     nl.phi_floats, nl.potential.value_floats, closed.f_floats, W.value_floats,
                     W.gradient_floats, W.shaping.value_floats):
            if hasattr(form, "source"):
                assert "__shared" not in form.source
                digest.update(form.source.encode())
                count += 1
    assert (count, digest.hexdigest()) == (24, _SOURCES_SHA256)


def test_fd_step_retakes_a_norm_that_overflowed_on_the_scaled_point():
    # below the overflow, np.linalg.norm's bits; above it, the norm of the point over its
    # largest entry, and no numpy warning (an error in this suite)
    for x in ([3.0, 4.0], [0.1, -0.2, 0.3], [1e150, -1e150], [5e-324, 0.0], [0.0]):
        assert sysmodel.fd_step(x) == 1e-6 * max(1.0, float(np.linalg.norm(x))), x
    assert sysmodel.fd_step([1e200, -1e200]) == 1e-6 * (1e200 * float(np.linalg.norm([1.0, 1.0])))
    assert sysmodel.fd_step([1e200, math.inf]) == math.inf


def test_fd_step_holds_the_overflow_warning_that_norm_leaves_to_its_caller():
    # _norm enters no errstate of its own; fd_step holds the warning, as the box checks'
    # errstate does for their other calls of _norm
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        assert sysmodel.fd_step([1e200, -1e200]) == 1e-6 * (1e200 * math.sqrt(2.0))
        with pytest.raises(RuntimeWarning, match="overflow"):
            sysmodel._norm([1e200, -1e200])


def test_a_form_that_cannot_run_on_columns_runs_at_each_point():
    def form(body):
        return nishape.float_form(f"def f(x):\n    a, b = x\n    return {body}")

    xs = (np.array([2.0, -3.0, 0.0]), np.array([0.5, 0.0, 1.0]))
    points = np.column_stack(xs).tolist()
    # a zero divisor or a negative square root: the per-point call raises today's error
    for body, error, match in (("1.0 / a", ZeroDivisionError, "float division by zero"),
                               ("sqrt(-1.0 + a)", ValueError, "math domain error")):
        assert sysmodel._column_form(form(body).source) is not None
        with pytest.raises(error, match=match):
            sysmodel.on_columns(form(body), xs)
    # Python raises at every zero divisor, numpy not for nan / 0 or inf / 0
    for a in (math.nan, math.inf, 0.0):
        with pytest.raises(ZeroDivisionError):
            sysmodel.on_columns(form("a / b"), (np.array([1.0, a]), np.array([2.0, 0.0])))
    # numpy squares where Python calls pow; min takes one branch for every point
    for body in ("a ** 2 + b", "min(a, b)", "-a if a > b else b"):
        assert sysmodel._column_form(form(body).source) is None
        values = sysmodel.on_columns(form(body), xs)
        assert _bits(values) == _bits([form(body)(x) for x in points])
    values = sysmodel.on_columns(form("sqrt(b) * sin(a)"), xs)  # a run on columns
    assert _bits(values) == _bits([math.sqrt(b) * math.sin(a) for a, b in points])


def test_the_at_infinity_copy_is_compiled_at_the_first_raise():
    form = nishape.float_form("def f(y):\n    a, = y\n    return cos(a) + 0.375")
    assert form([0.0]) == 1.375
    assert form.__globals__["_retry"].__name__ == "at_infinity"  # no copy yet
    assert math.isnan(form([math.inf]))
    retry = form.__globals__["_retry"]
    assert retry.__name__ == "f"  # the copy, compiled once, in the placeholder's place
    assert math.isnan(form([-math.inf])) and form.__globals__["_retry"] is retry


def test_float_form_binds_constants_as_literals_that_locals_shadow():
    form = nishape.float_form("""
        def f(x):
            a, = x
            g = 2.0 * a
            return (g + k, c * a, c ** 2)
        """, g=5.0, k=1.0, c=-0.0)
    assert "1.0" in form.source and "5.0" not in form.source  # the local g shadows g = 5.0
    assert _bits(form([1.0])) == _bits([3.0, -0.0, 0.0])  # (-0.0) ** 2, not -(0.0 ** 2)
    assert math.isnan(nishape.float_form("def f(y):\n    a, = y\n    return sin(a)")([math.inf]))


@pytest.mark.parametrize("body", [
    "y = x\n    return y", "return x",
    "a, b = x\n    if a > 0:\n        return (a, b)\n    return (b, a)"],
    ids=["alias", "whole", "early-return"])
def test_a_source_that_cannot_be_spliced_raises_where_it_is_spliced(body):
    h = nishape.float_form(f"def h(x):\n    {body}")
    f = nishape.float_form("def f(x, u):\n    a, b = x\n    c, d = u\n    return (c - a, d - b)")
    plant = NonlinearSystem.from_floats(2, 2, f, h)
    assert list(plant.h_floats([1.0, -2.0])) == [1.0, -2.0]  # as a float form it runs
    nl = StaticNonlinearity.from_floats(2, nishape.float_form("def phi(y):\n    a, b = y\n"
                                                              "    return (-a, -b)"))
    with pytest.raises(ValueError, match="cannot splice"):
        make_closed_loop(plant, nl)


def test_a_constant_output_jacobian_is_stored_once_read_only_in_c_order():
    C = np.asfortranarray(np.arange(1.0, 13.0).reshape(3, 4))
    ls = LinearSystem(-np.eye(4), np.asfortranarray(C.T), C)
    assert ls.C.flags.f_contiguous and not ls.C.flags.c_contiguous
    gain = StaticNonlinearity.from_floats(3, lambda y: [-0.5 * s for s in y])
    for sys in (to_nonlinear(ls), make_closed_loop(to_nonlinear(ls), gain)):
        jac = sys.h_jacobian
        assert jac.flags.c_contiguous and not jac.flags.writeable
        assert np.array_equal(jac, C) and sys.output_jacobian(np.ones(4)) is jac
        with pytest.raises(ValueError, match="read-only"):
            jac[0, 0] = 5.0
    # the caller's array is copied: it stays writable, and a later write reaches no system
    mine = np.eye(2, 4)
    sys = NonlinearSystem.from_floats(4, 2, lambda x, u: (0.0,) * 4, lambda x: x[:2],
                                      h_jacobian=mine)
    mine[0, 0] = 5.0
    assert sys.h_jacobian[0, 0] == 1.0
    for jac in (np.eye(4, 2), np.eye(2)):
        with pytest.raises(ValueError, match="h_jacobian must be a 2 x 4 matrix"):
            NonlinearSystem.from_floats(4, 2, lambda x, u: (0.0,) * 4, lambda x: x[:2],
                                        h_jacobian=jac)
    with pytest.raises(ValueError, match="h_jacobian must be a 2 x 4 matrix"):
        make_shaped_storage(zero_field(4), zero_field(2), lambda x: x[:2], 4,
                            h_jacobian=np.eye(4))


def test_shaped_storage_reads_the_float_output_map_of_a_bound_h():
    seen = []

    def h_floats(x):
        seen.append(x)
        return [x[0]]

    plant = NonlinearSystem.from_floats(2, 1, lambda x, u: [x[1], u[0] - x[0]], h_floats)
    W = make_shaped_storage(_quadratic_storage(), zero_field(1), plant.h, 2)
    xs = [1.5, -2.0]
    assert W.value_floats(xs) == 3.125
    assert seen[-1] is xs


_PASSED = {  # verdict -> passed: the one pass policy as a table
    "pass": True, "skipped": True, "info": True, "flagged": True,
    "fail": False, "nothing to check": False, "indeterminate": False,
}


def test_check_reads_the_one_pass_policy():
    for verdict, passed in _PASSED.items():
        check = Check(verdict, 0.0)
        assert check.passed is passed, verdict
        assert ScenarioResult("t", [("check", check)], {}, {}).passed is passed
    # a verdict outside the table fails, "ok" included: a surface grid is no check
    assert not any(Check(verdict, 0.0).passed for verdict in ("ok", "degenerate", ""))
    check = Check("pass", np.float64(0.5), np.array([1.0, 2.0]), 3, {"note": ""})
    assert (check.worst_value, check.witness) == (0.5, (1.0, 2.0))
    assert type(check.worst_value) is float and all(type(v) is float for v in check.witness)
    with pytest.raises(TypeError):
        check.detail["note"] = "changed"


def _checks_of_every_check_function():
    """check function -> the records it returns on inputs that reach each of
    its verdicts (Schur's "fail" needs the two predicates to disagree, which
    no exact input gives)."""
    cfg = IntegratorConfig(step=1e-2, t_end=0.5)
    zero = InputSignal.zero(1)
    square = ScalarField(1, lambda x: float(x @ x), lambda x: 2.0 * x)

    def run(f, signal=zero):
        sys = NonlinearSystem(1, 1, f, lambda x: x.copy(), h_jacobian=lambda x: np.eye(1))
        return sys, with_storage(simulate(sys, [1.0], signal, cfg), square)

    stable, decay = run(lambda x, u: -x + u)
    unstable, growth = run(lambda x, u: x + u)
    _, forced = run(lambda x, u: -x + u, signal=InputSignal.constant([1.0]))
    hidden = NonlinearSystem(2, 1, lambda x, u: np.array([0.0, -x[1]]), lambda x: x[:1].copy(),
                             h_jacobian=lambda x: np.array([[1.0, 0.0]]))
    hidden_run = simulate(hidden, [0.0, 1.0], zero, cfg)
    well = ScalarField(1, lambda x: 0.25 * x[0] ** 4 - 0.5 * x[0] ** 2,
                       lambda x: np.array([x[0] ** 3 - x[0]]))
    hs, nl = make_rotation_hamiltonian(), make_linear_gain_feedback()
    box = [(-2.0, 2.0)]
    lin = LinearSystem([[-1.0]], [[1.0]], [[1.0]])
    cert = SsniCertificate(lin, [[1.0]])
    wrong = SsniCertificate(LinearSystem([[-1.0]], [[2.0]], [[1.0]]), [[1.0]])
    scenario_checks = [check for name in ("pendulum-sync", "pendulum-stabilize")
                       for _, check in run_scenario(name, t_end=0.3).checks]
    flip = ScalarField(1, square.value, lambda x: -x)
    negative = ScalarField(1, lambda x: -square.value(x))
    roots = NonlinearSystem(1, 1, lambda x, u: x - x ** 3, lambda x: x.copy())
    closed = make_closed_loop(hs, nl)
    return {
        nishape.gradient_check: [gradient_check(square, [[0.5]]), gradient_check(flip, [[1.0]]),
                                 gradient_check(square, [])],
        nishape.dissipation_from_rates: [
            nishape.dissipation_from_rates(rate_table(sys, square, traj), 0.0)
            for sys, traj in ((stable, decay), (unstable, growth))],
        nishape.check_positive_definite: [nishape.check_positive_definite(field, box, 16)
                                          for field in (square, negative)],
        nishape.check_gradient_nonvanishing: [nishape.check_gradient_nonvanishing(field, box, 16)
                                              for field in (square, well)],
        nishape.check_equilibrium_uniqueness: [nishape.check_equilibrium_uniqueness(sys, box, 16)
                                               for sys in (stable, roots)],
        nishape.hamiltonian_decay_identity: [
            nishape.hamiltonian_decay_identity(hs, nl, simulate(closed, [1.0, 0.0], zero, cfg))],
        nishape.hidden_motion_from_rates: [
            nishape.hidden_motion_from_rates(rate_table(sys, zero_field(n), traj))
            for sys, n, traj in ((stable, 1, decay), (hidden, 2, hidden_run))],
        nishape.check_ssni: [nishape.check_ssni(c) for c in (cert, wrong)],
        nishape.dey_condition: [nishape.dey_condition(lin, cert, SlopeBounds([m]))
                                for m in (0.5, 2.0)],
        nishape.schur_equivalence: [nishape.schur_equivalence(cert, SlopeBounds([2.0]))],
        nishape.is_hurwitz: [nishape.is_hurwitz(A) for A in ([[-1.0]], [[1.0]], [[0.0]])],
        nishape.check_minimal: [nishape.check_minimal(sys) for sys in (
            lin, LinearSystem([[-1.0]], [[0.0]], [[1.0]]))],
        nishape.monitor_decay: [nishape.monitor_decay(traj) for traj in (decay, growth, forced)],
        nishape.refine_check: [nishape.refine_check(stable, [1.0], zero, cfg)],
        nishape.run_scenario: scenario_checks,
    }


def test_every_check_function_emits_only_table_verdicts():
    emitted = _checks_of_every_check_function()
    # every public function annotated to return a Check is exercised
    returns_check = {f for f in vars(nishape).values() if inspect.isfunction(f)
                     and inspect.signature(f).return_annotation == "Check"}
    assert returns_check == set(emitted) - {nishape.run_scenario}
    verdicts = set()
    for func, checks in emitted.items():
        assert all(type(check) is Check for check in checks), func.__name__
        assert {check.verdict for check in checks} <= set(_PASSED), func.__name__
        verdicts |= {check.verdict for check in checks}
    assert verdicts == set(_PASSED)


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
    sys = make_rotation_hamiltonian(omega=1.0, r=1.0)
    assert isinstance(sys, NonlinearSystem)
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
    traj = with_storage(simulate(hs, [1.0, 0.0], InputSignal.zero(1),
                                 IntegratorConfig(step=1e-3, t_end=10.0)), hs.H)
    assert np.max(traj.storage) - np.min(traj.storage) <= 1e-8


# ---------------------------------------------------------------------------
# Gradient checking


def test_gradient_check_coupled_potential():
    F = ScalarField(2, lambda y: math.cos(y[0] - y[1]) - 1.0,
                    lambda y: np.array([math.sin(y[1] - y[0]), math.sin(y[0] - y[1])]))
    rng = np.random.default_rng(8)
    report = gradient_check(F, rng.uniform(-3.0, 3.0, size=(100, 2)))
    assert report.passed
    assert report.worst_value <= 1e-6
    assert report.n_samples == 100


def test_gradient_check_exact_linear_field():
    F = ScalarField(2, lambda y: 2.0 * y[0] - 3.0 * y[1],
                    lambda y: np.array([2.0, -3.0]))
    rng = np.random.default_rng(9)
    report = gradient_check(F, rng.uniform(-3.0, 3.0, size=(20, 2)))
    assert report.passed
    assert report.worst_value <= 1e-9


def test_gradient_check_catches_sign_flip():
    F = ScalarField(2, lambda y: 0.5 * float(y @ y),
                    lambda y: -np.asarray(y, dtype=float))
    rng = np.random.default_rng(10)
    points = rng.uniform(1.0, 3.0, size=(20, 2))
    report = gradient_check(F, points)
    assert report.verdict == "fail"
    assert report.worst_value > 0.5
    # the witness is the probe point of the largest deviation
    assert report.witness in [tuple(pt) for pt in points.tolist()]
    assert gradient_check(F, [report.witness]).worst_value == report.worst_value


def test_gradient_check_fails_a_nan_gradient():
    F = ScalarField(1, lambda x: float(x[0] ** 2), lambda x: np.array([np.nan]))
    report = gradient_check(F, [[1.0], [2.0]])
    assert report.verdict == "fail" and not report.passed
    assert math.isnan(report.worst_value) and report.n_samples == 2
    # witnessed by the first point, also when finite deviations follow it
    assert report.witness == (1.0,)
    G = ScalarField(1, lambda x: float(x[0] ** 2),
                    lambda x: np.array([np.nan if x[0] == 2.0 else 2.0 * x[0]]))
    report = gradient_check(G, [[1.0], [2.0], [3.0], [-4.0]])
    assert report.verdict == "fail" and math.isnan(report.worst_value)
    assert report.witness == (2.0,) and report.n_samples == 4


def test_gradient_check_without_analytic_gradient():
    F = ScalarField(2, lambda y: float(y @ y))
    report = gradient_check(F, [np.ones(2)])
    assert report.verdict == "nothing to check"
    assert (report.worst_value, report.witness, report.n_samples) == (0.0, (), 0)


def test_gradient_check_of_no_points_has_nothing_to_check():
    F = ScalarField(2, lambda y: float(y @ y), lambda y: 2.0 * np.asarray(y, dtype=float))
    for points in ([], np.empty((0, 2))):
        report = gradient_check(F, points)
        assert report.verdict == "nothing to check" and not report.passed
        assert (report.worst_value, report.witness, report.n_samples) == (0.0, (), 0)


def _gradient_check_per_point(field, points):
    """gradient_check as a loop over the points, each analytic gradient taken on its own."""
    floor = sysmodel.TAU_GRAD_FLOOR / sysmodel.TAU_GRAD
    worst, count = -1.0, 0
    for pt in points:
        pt = np.asarray(pt, dtype=float)
        g_an = field.gradient(pt)
        g_fd = sysmodel.central_gradient(field.value_floats, pt.tolist())
        dev = float(np.linalg.norm(g_an - g_fd) / max(np.linalg.norm(g_fd), floor))
        count += 1
        if not dev <= worst and not math.isnan(worst):  # the first NaN stays the worst
            worst, worst_pt = dev, pt
    return Check("pass" if worst <= sysmodel.TAU_GRAD else "fail", worst, worst_pt, count)


def _check_bits(check):
    return check.verdict, _bits(check.worst_value), _bits(check.witness), check.n_samples


@pytest.mark.parametrize("name", ["linear-a", "linear-b", "pendulum-stabilize", "pendulum-sync"])
def test_gradient_check_matches_the_per_point_loop_bitwise(name):
    from nishape.scenarios import _build_parts
    sc = get_scenario(name)
    plant, V, nl, W = _build_parts(sc)
    phi_as_grad_F = ScalarField.from_floats(nl.p, nl.potential.value_floats, nl.phi_floats)
    box = np.asarray(sc.box, dtype=float)
    for seed in range(8):
        probes_x = nishape.halton_box_samples(box, 100, seed + 1)
        probes_y = nishape.halton_box_samples(box[:nl.p], 100, seed)
        for field, probes in ((V, probes_x), (W, probes_x), (phi_as_grad_F, probes_y),
                              (nl.potential, probes_y)):
            assert field.has_analytic_gradient
            assert _check_bits(gradient_check(field, probes)) == _check_bits(
                _gradient_check_per_point(field, probes))


def test_gradient_check_takes_a_generator_of_points():
    F = ScalarField(2, lambda y: math.cos(y[0] - y[1]) - 1.0,
                    lambda y: np.array([math.sin(y[1] - y[0]), math.sin(y[0] - y[1])]))
    points = np.random.default_rng(12).uniform(-3.0, 3.0, size=(30, 2))
    report = gradient_check(F, (tuple(pt) for pt in points.tolist()))
    assert _check_bits(report) == _check_bits(gradient_check(F, points))
    assert report.n_samples == 30


def test_gradient_check_names_the_shape_of_a_point_of_the_wrong_size():
    F = ScalarField(2, lambda y: float(y @ y), lambda y: 2.0 * np.asarray(y, dtype=float))
    with pytest.raises(ValueError, match=r"shape \(3,\), field dimension is 2"):
        gradient_check(F, np.ones((4, 3)))
    with pytest.raises(ValueError, match=r"shape \(1,\), field dimension is 2"):
        gradient_check(F, [[1.0, 2.0], [3.0], [4.0, 5.0]])


def test_gradient_check_without_analytic_gradient_reads_no_point():
    F = ScalarField(2, lambda y: float(y @ y))

    def points():
        raise AssertionError("a probe point was read")
        yield

    report = gradient_check(F, points())
    assert (report.verdict, report.n_samples) == ("nothing to check", 0)
