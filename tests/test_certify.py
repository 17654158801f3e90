import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import nishape
from nishape import (Check, HamiltonianSystem, InputSignal, IntegratorConfig, LinearSystem,
                     NonlinearSystem, ScalarField, StaticNonlinearity, Trajectory, build_pendulum,
                     PendulumParams, TAU_ZERO, get_scenario,
                     check_equilibrium_uniqueness, check_gradient_nonvanishing,
                     check_positive_definite, dissipation_from_rates,
                     epsilon_from_rates, halton_box_samples,
                     hamiltonian_decay_identity, hidden_motion_from_rates,
                     make_closed_loop, make_shaped_storage, rate_table, report_line,
                     simulate, to_nonlinear, write_reports_csv, zero_field)
from nishape import certify, sim, sysmodel
from nishape.scenarios import _build_parts
from nishape.sim import _CHUNK
from nishape.sysmodel import on_columns
from conftest import (make_linear_gain_feedback, make_rotation_hamiltonian, probe_states,
                      with_storage)


def _pendulum_square_wave_run(t_end=10.0):
    plant, V = build_pendulum()
    sig = InputSignal.square_wave(2, 0, 2.0, 3.0)
    traj = simulate(plant, (6.0, 4.5, 0.0, 0.0), sig, IntegratorConfig(step=1e-3, t_end=t_end))
    return plant, V, traj


def _random_pendulum_batch(n_traj=5, t_end=3.0, seed=42):
    plant, V = build_pendulum()
    rng = np.random.default_rng(seed)
    trajs = [simulate(plant, rng.uniform(-3.0, 3.0, size=4), InputSignal.zero(2),
                      IntegratorConfig(step=1e-3, t_end=t_end))
             for _ in range(n_traj)]
    return plant, V, trajs


# ---------------------------------------------------------------------------
# Sampling


def test_halton_samples_reproducible_and_in_box():
    box = [(-2.0, 3.0), (-1.0, 1.0)]
    a = halton_box_samples(box, 64, seed=5)
    b = halton_box_samples(box, 64, seed=5)
    assert np.array_equal(a, b)
    assert np.all(a[:, 0] >= -2.0) and np.all(a[:, 0] <= 3.0)
    assert np.all(a[:, 1] >= -1.0) and np.all(a[:, 1] <= 1.0)
    # index-based generation: shorter runs are prefixes of longer ones
    assert np.array_equal(a[:16], halton_box_samples(box, 16, seed=5))
    # different seeds move the points
    assert not np.allclose(a, halton_box_samples(box, 64, seed=6))


def test_halton_rejects_degenerate_box():
    with pytest.raises(ValueError, match="degenerate"):
        halton_box_samples([(1.0, 1.0)], 8, seed=0)


def _radical_inverse(index, base):
    inv = 0.0
    scale = 1.0 / base
    while index > 0:
        inv += scale * (index % base)
        index //= base
        scale /= base
    return inv


def _halton_per_sample(box, n_samples, seed):
    """The sampler as one numpy row per sample from scalar radical inverses."""
    box = np.asarray(box, dtype=float)
    dim = box.shape[0]
    shift = np.random.default_rng(seed).random(dim)
    width = box[:, 1] - box[:, 0]
    points = np.empty((n_samples, dim))
    for i in range(n_samples):
        u = np.array([_radical_inverse(i + 1, b) for b in (2, 3, 5, 7, 11, 13, 17, 19)[:dim]])
        points[i] = box[:, 0] + np.mod(u + shift, 1.0) * width
    return points


@pytest.mark.parametrize("dim", range(1, 9))
def test_halton_matches_the_per_sample_loop_bitwise(dim):
    box = [(-8.0 + j, 5.0 + 0.3 * j) for j in range(dim)]
    for seed in (0, 1, 7, 2 ** 40 + 3):
        longest = halton_box_samples(box, 4097, seed)
        assert longest.tobytes() == _halton_per_sample(box, 4097, seed).tobytes()
        for n in (0, 1, 2, 255, 256):  # every shorter set is a prefix, bit for bit
            short = halton_box_samples(box, n, seed)
            assert short.shape == (n, dim)
            assert short.tobytes() == longest[:n].tobytes()


def test_halton_rejects_a_negative_count_or_seed_by_name():
    with pytest.raises(ValueError, match="n_samples must be nonnegative, got -1"):
        halton_box_samples([(-1.0, 1.0)], -1, seed=0)
    with pytest.raises(ValueError, match="seed must be nonnegative, got -3"):
        halton_box_samples([(-1.0, 1.0)], 8, seed=-3)


# ---------------------------------------------------------------------------
# Dissipation residuals


def test_pendulum_square_wave_is_dissipative():
    plant, V, traj = _pendulum_square_wave_run(t_end=30.0)
    report = dissipation_from_rates(rate_table(plant, V, traj), 0.0)
    assert report.verdict == "pass"
    assert report.detail["n_violations"] == 0
    assert report.n_samples == traj.n_samples


def test_lossless_storage_rate_vanishes():
    hs = make_rotation_hamiltonian(omega=1.0, r=0.0)
    traj = simulate(hs, [1.0, 0.0], InputSignal.zero(1),
                    IntegratorConfig(step=1e-3, t_end=5.0))
    report = dissipation_from_rates(rate_table(hs, hs.H, traj), 0.0)
    assert report.verdict == "pass"
    assert abs(report.worst_value) <= 1e-12


def test_flipped_hinge_damper_violates_dissipation():
    # reversing the second hinge damper makes the damping form indefinite
    p = PendulumParams()
    m1l1, m2l2 = p.m1 * p.l1 ** 2, p.m2 * p.l2 ** 2
    m1gl1, m2gl2 = p.m1 * p.g * p.l1, p.m2 * p.g * p.l2
    d2 = -p.d2

    def f(x, u):
        th1, th2, w1, w2 = x
        e, de = th1 - th2, w1 - w2
        return np.array([
            w1,
            w2,
            (-m1gl1 * math.sin(th1) - p.k1 * th1 - p.d1 * w1 - p.kc * e - p.dc * de + u[0]) / m1l1,
            (-m2gl2 * math.sin(th2) - p.k2 * th2 - d2 * w2 + p.kc * e + p.dc * de + u[1]) / m2l2,
        ])

    bad_plant = NonlinearSystem(4, 2, f, lambda x: x[:2].copy(),
                                h_jacobian=lambda x: np.eye(2, 4))
    _, V = build_pendulum(p)
    traj = simulate(bad_plant, (1.0, -0.5, 0.0, 0.0), InputSignal.zero(2),
                    IntegratorConfig(step=1e-3, t_end=5.0))
    report = dissipation_from_rates(rate_table(bad_plant, V, traj), 0.0)
    assert report.verdict == "fail"
    assert report.worst_value > report.detail["tolerance"]


def test_osni_with_zero_epsilon_is_bitwise_ni():
    plant, V, traj = _pendulum_square_wave_run(t_end=2.0)
    rates = rate_table(plant, V, traj)
    report = dissipation_from_rates(rates, 0.0)
    # the NI inequality Vdot <= u . ydot: the epsilon term adds nothing
    assert np.array_equal(report.detail["residuals"], rates.vdot - rates.supply)
    assert report.worst_value == float(np.max(rates.vdot - rates.supply))
    # witnessed by the time and state of the largest residual
    k = int(np.argmax(rates.vdot - rates.supply))
    assert report.witness == (traj.times[k], *traj.states[k])


def test_osni_passes_at_half_estimate_fails_at_ten_times():
    plant, V, trajs = _random_pendulum_batch()
    tables = [rate_table(plant, V, traj) for traj in trajs]
    eps_hat = epsilon_from_rates(tables)
    assert eps_hat > 0.0
    for rates in tables:
        assert dissipation_from_rates(rates, 0.5 * eps_hat).verdict == "pass"
    assert any(dissipation_from_rates(rates, 10.0 * eps_hat).verdict == "fail"
               for rates in tables)


def test_osni_passes_just_below_the_estimate():
    plant, V, trajs = _random_pendulum_batch(n_traj=3)
    tables = [rate_table(plant, V, traj) for traj in trajs]
    eps_hat = epsilon_from_rates(tables)
    for rates in tables:
        assert dissipation_from_rates(rates, eps_hat * (1.0 - 1e-6)).verdict == "pass"


def _knot_loop_oracle(sys, V, traj, epsilon):
    """The per-knot loops the rate table replaced, written out one knot at a
    time: (residuals, max |supply|, epsilon estimate, hidden-motion intervals)."""
    residuals = np.empty(traj.n_samples)
    max_supply = 0.0
    best = math.inf
    flagged = []
    for k in range(traj.n_samples):
        x, u = traj.states[k], traj.inputs[k]
        fx = np.asarray(sys.f(x, u), dtype=float)
        vdot = float(V.gradient(x) @ fx)
        ydot = sys.output_jacobian(x) @ fx
        supply = float(u @ ydot)
        ydot_sq = float(ydot @ ydot)
        residuals[k] = vdot - supply + epsilon * ydot_sq
        max_supply = max(max_supply, abs(supply))
        if ydot_sq > TAU_ZERO * TAU_ZERO:
            best = min(best, (supply - vdot) / ydot_sq)
        flagged.append(bool(np.linalg.norm(ydot) < TAU_ZERO
                            and np.linalg.norm(fx) > 100.0 * TAU_ZERO))
    eps_hat = 0.0 if math.isinf(best) else max(0.0, best)
    intervals = []
    start = None
    for k, is_flagged in enumerate(flagged):
        if is_flagged and start is None:
            start = k
        elif not is_flagged and start is not None:
            intervals.append((float(traj.times[start]), float(traj.times[k - 1])))
            start = None
    if start is not None:
        intervals.append((float(traj.times[start]), float(traj.times[-1])))
    return residuals, max_supply, eps_hat, tuple(intervals)


def test_rate_checks_match_the_per_knot_loops_bitwise():
    plant, V, traj = _pendulum_square_wave_run(t_end=2.0)
    _, max_supply, eps_hat, intervals = _knot_loop_oracle(plant, V, traj, 0.0)
    assert eps_hat > 0.0 and intervals
    rates = rate_table(plant, V, traj)
    assert epsilon_from_rates([rates]) == eps_hat
    assert hidden_motion_from_rates(rates).detail["intervals"] == intervals
    assert hidden_motion_from_rates(rate_table(plant, zero_field(4), traj)).detail["intervals"] \
        == intervals
    for epsilon in (0.0, 0.5 * eps_hat):
        report = dissipation_from_rates(rates, epsilon)
        residuals = _knot_loop_oracle(plant, V, traj, epsilon)[0]
        assert np.array_equal(report.detail["residuals"], residuals)
        assert report.detail["tolerance"] == 1e-6 * (1.0 + max_supply)
    # several trajectories: one infimum over all of their knots
    _, _, trajs = _random_pendulum_batch(n_traj=2, t_end=0.5)
    oracle = min(_knot_loop_oracle(plant, V, t, 0.0)[2] for t in trajs)
    assert epsilon_from_rates([rate_table(plant, V, t) for t in trajs]) == oracle

    # hidden motion in runs of several knots, the last one reaching the end
    sys = NonlinearSystem(2, 1, lambda x, u: np.array([max(u[0], 0.0), -x[1]]),
                          lambda x: x[:1].copy(), h_jacobian=lambda x: np.array([[1.0, 0.0]]))
    traj = simulate(sys, [0.0, 1.0], InputSignal.square_wave(1, 0, 1.0, 0.5),
                    IntegratorConfig(step=1e-2, t_end=0.9))
    intervals = _knot_loop_oracle(sys, zero_field(2), traj, 0.0)[3]
    assert len(intervals) == 2 and intervals[-1][1] == traj.times[-1]
    report = hidden_motion_from_rates(rate_table(sys, zero_field(2), traj))
    assert report.detail["intervals"] == intervals
    # witnessed by the first interval
    assert report.witness == intervals[0]


def _per_knot_rates(sys, V, traj):
    """The rate sweep as a per-knot loop of 1-D ``@`` products on the numpy
    callables: (vdot, supply, ydot_sq, f_sq)."""
    n = traj.n_samples
    vdot, supply, ydot_sq, f_sq = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    for k in range(n):
        x, u = traj.states[k], traj.inputs[k]
        fx = np.asarray(sys.f(x, u), dtype=float)
        vdot[k] = V.gradient(x) @ fx
        ydot = sys.output_jacobian(x) @ fx
        supply[k] = u @ ydot
        ydot_sq[k] = ydot @ ydot
        f_sq[k] = fx @ fx
    return vdot, supply, ydot_sq, f_sq


def _assert_rates_bitwise(sys, V, traj):
    rates = rate_table(sys, V, traj)
    got = (rates.vdot, rates.supply, rates.ydot_sq, rates.f_sq)
    for label, g, want in zip(("vdot", "supply", "ydot_sq", "f_sq"), got,
                              _per_knot_rates(sys, V, traj)):
        assert g.shape == want.shape, label
        assert g.view(np.uint64).tolist() == want.view(np.uint64).tolist(), label
    return rates


def _rate_bits(rates):
    return [a.tobytes() for a in (rates.vdot, rates.supply, rates.ydot_sq, rates.f_sq)]


def _assert_run_rates_bitwise(sys, V, traj, other=None):
    """``rate_table`` on a run of ``sys``: the bits of the per-knot loop and of the
    same knots rebuilt by hand.  Under ``other``, a system of another ``f``, the
    bits of that system's per-knot loop."""
    rates = _assert_rates_bitwise(sys, V, traj)
    bare = Trajectory(traj.times, traj.states, traj.inputs, traj.outputs)
    assert _rate_bits(rates) == _rate_bits(rate_table(sys, V, bare))
    if other is not None:
        assert other.f_floats is not sys.f_floats
        other_rates = rate_table(other, V, traj)
        assert _rate_bits(other_rates) == [a.tobytes() for a in _per_knot_rates(other, V, traj)]
        assert _rate_bits(other_rates) != _rate_bits(rates)
    return rates


def _mixed_io_system(h_jacobian_order):
    """A numpy-built plant with 4 states and 3 inputs and outputs whose output
    Jacobian has no zero entry, in the given memory order ("F", "C"), or none
    ("fd").  In F order both ``Dh(x) @ fx`` and ``Dh(x).T @ g`` take another
    BLAS path than in C order, with other bits for most x."""
    def f(x, u):
        return np.array([x[1], -np.sin(x[0]) - 0.3 * x[1] + u[0] + u[2],
                         x[3], -x[2] ** 3 - 0.5 * x[3] + u[1] + 0.2 * x[0]])

    def h(x):
        return np.array([x[0] + 0.5 * np.sin(x[1]) + 0.2 * x[2] * x[3],
                         x[2] - 0.3 * x[0] * x[1] + 0.1 * np.sin(x[3]),
                         x[1] + 0.4 * np.sin(x[2]) - 0.1 * x[0] * x[3]])

    def h_jacobian(x):
        return np.array([[1.0, 0.5 * np.cos(x[1]), 0.2 * x[3], 0.2 * x[2]],
                         [-0.3 * x[1], -0.3 * x[0], 1.0, 0.1 * np.cos(x[3])],
                         [-0.1 * x[3], 1.0, 0.4 * np.cos(x[2]), -0.1 * x[0]]],
                        order=h_jacobian_order)

    return NonlinearSystem(4, 3, f, h, None if h_jacobian_order == "fd" else h_jacobian)


@pytest.mark.parametrize("name", ["linear-a", "linear-b", "pendulum-sync",
                                  "pendulum-stabilize"])
def test_rate_table_matches_the_per_knot_loop_bitwise_on_every_scenario(name):
    sc = get_scenario(name)
    plant, V, nl, W = _build_parts(sc)
    closed = make_closed_loop(plant, nl)
    cfg = IntegratorConfig(step=1e-3, t_end=1.5)  # 1501 knots: a full chunk and a partial one
    # pendulum-sync's runs are forced by its square wave; the others are unforced
    _assert_run_rates_bitwise(plant, V, simulate(plant, sc.x0, sc.signal, cfg), other=closed)
    traj = simulate(closed, sc.x0, sc.signal, cfg)
    _assert_run_rates_bitwise(closed, W, traj, other=plant)


def test_rate_table_matches_the_per_knot_loop_bitwise_on_numpy_built_systems():
    hs = make_rotation_hamiltonian(omega=1.3, r=0.4)
    traj = simulate(hs, [1.0, -0.5], InputSignal.square_wave(1, 0, 1.0, 0.7),
                    IntegratorConfig(step=1e-3, t_end=1.2))
    _assert_rates_bitwise(hs, hs.H, traj)

    x0 = (0.8, -0.4, 0.6, 0.3)
    signal = InputSignal.square_wave(3, 1, 0.7, 0.4)
    cfg = IntegratorConfig(step=1e-3, t_end=1.1)
    V = ScalarField(4, lambda x: 0.5 * float(x @ x) + 1.0 - float(np.cos(x[0])),
                    lambda x: x + np.array([np.sin(x[0]), 0.0, 0.0, 0.0]))
    V_fd = ScalarField(4, V.value)
    F = ScalarField(3, lambda y: float(np.sin(y[0]) * y[1] + 0.3 * y[0] * y[2]),
                    lambda y: np.array([np.cos(y[0]) * y[1] + 0.3 * y[2], np.sin(y[0]),
                                        0.3 * y[0]]))
    for order in ("F", "C", "fd"):
        sys = _mixed_io_system(order)
        traj = simulate(sys, x0, signal, cfg)
        _assert_rates_bitwise(sys, V, traj)
        _assert_rates_bitwise(sys, V_fd, traj)
        W = make_shaped_storage(V, F, sys.h, 4, h_jacobian=sys.h_jacobian)
        assert W.has_analytic_gradient == (order != "fd")
        _assert_rates_bitwise(sys, W, traj)
        stacked = np.array([W.gradient(x) for x in traj.states])
        assert W.gradients(traj.states).view(np.uint64).tolist() == \
            stacked.view(np.uint64).tolist(), order


def _fortran_linear_scenario():
    """A linear plant whose C (3 x 4, no zero entry) is Fortran-ordered, with a
    storage, a coupled feedback, a start and a forcing; in F order ``C @ fx``
    and ``C.T @ g`` take another BLAS path than in C order."""
    C = np.asfortranarray(np.array([[1.0, 0.3, -0.2, 0.7], [0.4, -1.1, 0.6, 0.25],
                                    [-0.35, 0.45, 0.9, -0.6]]))
    A = np.array([[-1.0, 0.2, 0.0, 0.1], [-0.2, -1.5, 0.3, 0.0],
                  [0.0, -0.3, -0.8, 0.2], [-0.1, 0.0, -0.2, -1.2]])
    plant = to_nonlinear(LinearSystem(A, np.asfortranarray(C.T), C))
    V = ScalarField(4, lambda x: 0.5 * float(x @ x), lambda x: np.array(x, dtype=float))
    F = ScalarField(3, lambda y: float(np.sin(y[0]) * y[1] - 0.2 * y[2] ** 2),
                    lambda y: np.array([np.cos(y[0]) * y[1], np.sin(y[0]), -0.4 * y[2]]))
    nl = StaticNonlinearity(3, F.gradient, potential=F)
    return plant, V, nl, (0.8, -0.4, 0.6, 0.3), InputSignal.square_wave(3, 1, 0.7, 0.4)


@pytest.mark.parametrize("name", ["pendulum-sync", "linear-a", "fortran-C"])
def test_constant_output_jacobian_matches_the_per_point_callable_bitwise(name):
    if name == "fortran-C":
        plant, V, nl, x0, signal = _fortran_linear_scenario()
        assert not plant.h_jacobian.flags.f_contiguous
    else:
        sc = get_scenario(name)
        plant, V, nl, x0, signal = (sc.build_plant(), sc.build_storage(),
                                    sc.build_nonlinearity(), sc.x0, sc.signal)
    jac = plant.h_jacobian
    assert isinstance(jac, np.ndarray)
    given = np.asfortranarray(jac) if name == "fortran-C" else jac  # as the model gave it
    per_point = NonlinearSystem.from_floats(plant.n_states, plant.n_io, plant.f_floats,
                                            plant.h_floats, h_jacobian=lambda x: given)
    W, W_per_point = (make_shaped_storage(V, nl.potential, plant.h, plant.n_states,
                                          h_jacobian=j) for j in (given, lambda x: given))
    cfg = IntegratorConfig(step=1e-3, t_end=1.1)  # 1101 knots: a full chunk and a partial one
    for sys, twin, field, field_twin in (
            (plant, per_point, V, V),
            (make_closed_loop(plant, nl), make_closed_loop(per_point, nl), W, W_per_point)):
        traj = simulate(sys, x0, signal, cfg)
        assert traj.diagnostic is None
        assert _rate_bits(rate_table(sys, field, traj)) == \
            _rate_bits(rate_table(twin, field_twin, traj))
        _assert_rates_bitwise(sys, field, traj)
    assert W.gradients(traj.states).tobytes() == W_per_point.gradients(traj.states).tobytes()
    for x in traj.states[::37]:
        assert W.gradient(x).tobytes() == W_per_point.gradient(x).tobytes()


def test_rate_table_matches_the_per_knot_loop_bitwise_at_chunk_boundaries():
    sc = get_scenario("pendulum-sync")
    plant, V, nl, W = _build_parts(sc)
    closed = make_closed_loop(plant, nl)
    traj = simulate(closed, sc.x0, sc.signal, IntegratorConfig(step=1e-3, t_end=2.048))
    assert traj.n_samples == 2049
    for m in (1, 1023, 1024, 1025, 2049):
        prefix = Trajectory(traj.times[:m], traj.states[:m], traj.inputs[:m], traj.outputs[:m])
        _assert_rates_bitwise(closed, W, prefix)


@pytest.mark.parametrize("sourceless", ["gradient", "f"])
def test_rate_table_matches_the_per_knot_loop_bitwise_with_one_part_sourceless(sourceless):
    # a sourced f with a sourceless gradient, and the reverse: the knot form calls both
    # parts at each knot, the sourceless one once per knot, with the sourced table's bits
    sc = get_scenario("pendulum-sync")
    plant, V, nl, W = _build_parts(sc)
    closed = make_closed_loop(plant, nl)
    traj = simulate(closed, sc.x0, sc.signal, IntegratorConfig(step=1e-3, t_end=1.5))
    calls = []
    if sourceless == "f":
        f = lambda x, u: calls.append(x) or closed.f_floats(x, u)  # noqa: E731
        sys, field = NonlinearSystem.from_floats(4, 2, f, closed.h_floats,
                                                 h_jacobian=closed.h_jacobian), W
    else:
        gradient = lambda x: calls.append(x) or W.gradient_floats(x)  # noqa: E731
        sys, field = closed, ScalarField.from_floats(4, W.value_floats, gradient)
    calls.clear()
    rates = rate_table(sys, field, traj)
    assert calls == traj.states.tolist()
    assert _rate_bits(rates) == _rate_bits(rate_table(closed, W, traj))
    _assert_rates_bitwise(sys, field, traj)


def test_an_output_returned_by_name_is_spliced_unpacked_as_a_call_result():
    # h ends in ``return r``, not in a tuple literal: the closed loop's source unpacks r
    sc = get_scenario("pendulum-sync")
    plant, V, nl, _ = _build_parts(sc)
    h = nishape.float_form("def h(x):\n    th1, th2, w1, w2 = x\n    r = (th1, th2)\n    return r")
    named, called = (NonlinearSystem.from_floats(4, 2, plant.f_floats, form,
                                                 h_jacobian=plant.h_jacobian)
                     for form in (h, lambda x: h(x)))  # spliced, and called
    closed, closed_ref = (make_closed_loop(sys, nl) for sys in (named, called))
    assert "r0__y, r1__y = r__y" in closed.f_floats.source
    assert not hasattr(closed_ref.f_floats, "source")
    states = halton_box_samples([(-8.0, 8.0)] * 4, 200, 3).tolist()
    inputs = halton_box_samples([(-2.0, 2.0)] * 2, 200, 4).tolist()
    assert ([np.array(closed.f_floats(x, v)).tobytes() for x, v in zip(states, inputs)]
            == [np.array(closed_ref.f_floats(x, v)).tobytes() for x, v in zip(states, inputs)])
    W = make_shaped_storage(V, nl.potential, named.h, 4, h_jacobian=plant.h_jacobian)
    traj = simulate(closed, sc.x0, sc.signal, IntegratorConfig(step=1e-3, t_end=1.5))
    _assert_rates_bitwise(closed, W, traj)


def test_rate_table_matches_the_per_knot_loop_bitwise_on_blown_up_runs():
    sc = get_scenario("pendulum-stabilize")
    plant, V, nl, W = _build_parts(sc)
    closed = make_closed_loop(plant, nl)
    huge = (1e308, -1e308, 1e308, -1e308)  # the CLI's blow-up start: truncated after one knot
    # a run that grows for 1492 knots: |fx|^2 overflows at every knot, and the
    # two terms of grad V . fx overflow to opposite infinities
    growth = NonlinearSystem.from_floats(
        2, 1, lambda x, u: (10.0 * x[0] + u[0], -x[1]), lambda x: (x[0] + x[1],),
        h_jacobian=lambda x: np.array([[1.0, 1.0]]))
    quartic = ScalarField.from_floats(2, lambda x: 0.25 * sum(z * z * z * z for z in x),
                                      lambda x: (x[0] * x[0] * x[0], x[1] * x[1] * x[1]))
    with np.errstate(all="ignore"):
        for sys, field, x0, signal in (
                (plant, V, huge, sc.signal), (closed, W, huge, sc.signal),
                (growth, quartic, (1e300, -1e300), InputSignal.square_wave(1, 0, 1.0, 0.5))):
            traj = simulate(sys, x0, signal, IntegratorConfig(step=1e-3, t_end=3.0))
            assert traj.diagnostic is not None
            rates = _assert_run_rates_bitwise(sys, field, traj)
            if sys is not closed:  # the closed loop's one knot has only nan
                values = np.concatenate([rates.vdot, rates.supply, rates.ydot_sq, rates.f_sq])
                assert np.isinf(values).any() and np.isnan(values).any()
    assert traj.n_samples > _CHUNK


class _Counted:
    """A float form ``f`` that counts its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x, u):
        self.calls += 1
        return self.f(x, u)


def test_four_f_calls_per_step_and_one_per_knot_in_a_sourceless_rate_table(monkeypatch):
    sc = get_scenario("pendulum-sync")
    plant, V, nl, W = _build_parts(sc)
    closed = make_closed_loop(plant, nl)

    def counted(f, n, p, h, h_jacobian=None):
        return NonlinearSystem.from_floats(n, p, _Counted(f), h, h_jacobian=h_jacobian)

    runs = [(counted(closed.f_floats, 4, 2, closed.h_floats, closed.h_jacobian), W, sc.x0,
             sc.signal, IntegratorConfig(step=1e-3, t_end=1.5)),
            # blows up near t = 1: truncated after about a thousand knots
            (counted(lambda x, u: (x[0] * x[0] + u[0],), 1, 1, lambda x: (x[0],)),
             zero_field(1), (1.0,), InputSignal.zero(1), IntegratorConfig(step=1e-3, t_end=2.0))]
    for sys, field, x0, signal, cfg in runs:
        f = sys.f_floats
        f.calls = 0  # from the construction's probes
        with np.errstate(over="ignore", invalid="ignore"):
            traj = simulate(sys, x0, signal, cfg)
            n = traj.n_samples
            if traj.diagnostic is None:  # four stages per step, none at the final knot
                assert n == cfg.n_steps + 1 and f.calls == 4 * cfg.n_steps
            else:  # four stages per recorded knot: the last one's step was attempted
                assert 2 < n < cfg.n_steps and f.calls == 4 * n
            # _Counted has no source: one call per knot, on a run and on its knots by hand
            for knots in (traj, Trajectory(traj.times, traj.states, traj.inputs, traj.outputs)):
                f.calls = 0
                rate_table(sys, field, knots)
                assert f.calls == n

    # a float form with a source runs on the columns of each chunk: no call at a knot
    calls = []
    form = closed.f_floats
    counted_f = lambda x, u: calls.append(x) or form(x, u)  # noqa: E731
    counted_f.source = form.source
    sourced = NonlinearSystem.from_floats(4, 2, counted_f, closed.h_floats, closed.h_jacobian)
    traj = simulate(closed, sc.x0, sc.signal, IntegratorConfig(step=1e-3, t_end=1.5))
    calls.clear()  # from the construction's probes
    assert _rate_bits(rate_table(sourced, W, traj)) == _rate_bits(rate_table(closed, W, traj))
    assert not calls

    # _Counted has no source, so the runs above call it from each stage. The closed
    # loop's own f is spliced into every stage of the fused loop: count the plant's
    # sin(theta1) and sin(theta2) there instead, bound into a loop generated for it
    # (sysmodel._guarded compiles every generated function against ELEMENTARY)
    calls = Counter()

    def counted_sin(z):
        calls["sin"] += 1
        return math.sin(z)

    cfg = IntegratorConfig(step=1e-3, t_end=1.5)
    sim._rk4_loop.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(sysmodel, "ELEMENTARY", {**sysmodel.ELEMENTARY, "sin": counted_sin})
            traj = with_storage(simulate(closed, sc.x0, sc.signal, cfg), W)
    finally:
        sim._rk4_loop.cache_clear()  # no later run may take the counting loop
    assert hasattr(closed.f_floats, "source") and traj.diagnostic is None
    assert calls["sin"] == 2 * 4 * cfg.n_steps  # two per stage, none at the final knot


def test_rate_table_peak_memory_stays_within_one_chunk():
    sc = get_scenario("pendulum-stabilize")
    plant, V, nl, W = _build_parts(sc)
    closed = make_closed_loop(plant, nl)
    n = 20 * _CHUNK
    states = np.random.default_rng(5).uniform(-8.0, 8.0, size=(n, 4))
    traj = Trajectory(np.arange(n) * 1e-3, states, np.zeros((n, 2)), states[:, :2])
    tracemalloc.start()
    try:
        rates = rate_table(closed, W, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (rates.vdot, rates.supply, rates.ydot_sq, rates.f_sq))
    assert held == 4 * 8 * n
    # the chunk's Python floats and stacked products: well under 1 kB per knot
    assert peak <= held + 1024 * _CHUNK, (peak, held)


def _joined_form(sys, field):
    return sysmodel.float_form(sysmodel._joined_text(
        sys.n_states, sys.n_io, sys.f_floats.source, field.gradient_floats.source))


def _bits(values):
    """The bytes of ``values``, each NaN as numpy's nan: once a function is warm, CPython's
    specialized float operations (3.11) may give an invalid operation's NaN the other sign."""
    values = np.array(values, dtype=float)
    values[np.isnan(values)] = np.nan
    return values.tobytes()


@pytest.mark.parametrize("name", nishape.scenario_names())
def test_the_joined_form_is_the_separate_forms_bitwise(name):
    sc = get_scenario(name)
    plant, V, nl, W = _build_parts(sc)
    closed = make_closed_loop(plant, nl)
    cfg = IntegratorConfig(step=1e-3, t_end=1.5)
    for sys, field, signal in ((plant, V, sc.signal), (closed, W, InputSignal.zero(plant.n_io))):
        traj = simulate(sys, sc.x0, signal, cfg)
        rates = _assert_rates_bitwise(sys, field, traj)  # both tables, against the per-knot loop
        if not hasattr(sys.f_floats, "source"):  # a linear plant: the knot calls f and the gradient
            assert not hasattr(field.gradient_floats, "source")
            continue
        n, p = sys.n_states, sys.n_io
        # the run's knots, then signed zeros, infinities, nan and +-1e308 in the states and
        # the inputs, which a column run meets as an invalid operation or a raise
        probes = probe_states(n, 41)
        inputs = probe_states(p, 43)
        inputs = inputs[np.arange(len(probes)) % len(inputs)]
        states, inputs = np.vstack([traj.states, probes]), np.vstack([traj.inputs, inputs])
        joined = _joined_form(sys, field)
        with np.errstate(all="ignore"):
            separate = np.hstack([on_columns(sys.f_floats, tuple(states.T), tuple(inputs.T),
                                             width=n), field.gradients(states)])
            assert _bits(on_columns(joined, tuple(states.T), tuple(inputs.T),
                                    width=2 * n)) == _bits(separate)
            # the per-point fallback: the joined float form at each point, its one retry
            # after a sin that raised at an infinity included
            per_point = [joined(x, u) for x, u in zip(states.tolist(), inputs.tolist())]
            assert _bits(per_point) == _bits(separate)
        assert _rate_bits(rates) == _rate_bits(rate_table(sys, field, Trajectory(
            traj.times, traj.states, traj.inputs, traj.outputs)))


def _counting(calls, name):
    mapped = sysmodel._COLUMNS[name]
    return lambda z: calls.update({name: np.size(z)}) or mapped(z)


def test_the_joined_form_makes_each_repeated_call_once_per_knot(monkeypatch):
    # the closed loop's f and W's gradient each call sin(x0), sin(x1), tanh(3.0 * x0) and
    # tanh(3.0 * x1); the plant's f and V's gradient each call sin(x0) and sin(x1).  Counting
    # column maps see each distinct call text once per knot in a rate table, and twice
    # through f on columns and the gradients called apart
    sc = get_scenario("pendulum-stabilize")
    plant, V, nl, W = _build_parts(sc)
    closed = make_closed_loop(plant, nl)
    traj = simulate(closed, sc.x0, InputSignal.zero(2), IntegratorConfig(step=1e-3, t_end=1.5))
    n, calls, seen = traj.n_samples, Counter(), []
    sysmodel._column_form.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(sysmodel, "_COLUMNS", {**sysmodel._COLUMNS, **{
                name: _counting(calls, name) for name in ("sin", "tanh")}})
            for sys, field in ((closed, W), (plant, V)):
                rate_table(sys, field, traj)
                seen.append(dict(calls))
                calls.clear()
            on_columns(closed.f_floats, tuple(traj.states.T), (0.0, 0.0), width=4)
            W.gradients(traj.states)
    finally:
        sysmodel._column_form.cache_clear()  # no later form may take the counting maps
    assert seen == [{"sin": 2 * n, "tanh": 2 * n}, {"sin": 2 * n}]
    assert calls == {"sin": 4 * n, "tanh": 4 * n}
    text = sysmodel._joined_text(4, 2, closed.f_floats.source, W.gradient_floats.source)
    assert [line.strip() for line in text.splitlines() if "__shared =" in line] == [
        "c0__shared = tanh(3.0 * x0)", "c1__shared = tanh(3.0 * x1)",
        "c2__shared = sin(x0)", "c3__shared = sin(x1)"]


def test_the_joined_form_shares_no_call_where_a_column_run_cannot_take_its_nodes():
    # a conditional may skip a call that would raise: no call is hoisted out of it
    f = sysmodel.float_form("""
        def f(x, u):
            a, = x
            v, = u
            return (sqrt(a) if a > 0.0 else 0.0 + v,)
        """)
    gradient = sysmodel.float_form("""
        def g(x):
            a, = x
            return (sqrt(a) if a > 0.0 else 1.0,)
        """)
    text = sysmodel._joined_text(1, 1, f.source, gradient.source)
    assert "__shared" not in text
    assert sysmodel.float_form(text)([-1.0], [2.0]) == (2.0, 1.0)


def test_osni_rejects_negative_epsilon():
    plant, V, traj = _pendulum_square_wave_run(t_end=1.0)
    rates = rate_table(plant, V, traj)
    # NaN and inf would turn every residual into NaN (inf * 0 warns on the way)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"nonnegative, got {bad}"):
            dissipation_from_rates(rates, bad)


# ---------------------------------------------------------------------------
# Strictness estimate


def test_epsilon_estimate_lossless_is_zero():
    hs = make_rotation_hamiltonian(omega=1.0, r=0.0)
    traj = simulate(hs, [1.0, 0.0], InputSignal.zero(1),
                    IntegratorConfig(step=1e-3, t_end=3.0))
    assert epsilon_from_rates([rate_table(hs, hs.H, traj)]) == 0.0


def test_epsilon_estimate_grows_with_damping():
    params = PendulumParams()
    doubled = PendulumParams(d1=2 * params.d1, d2=2 * params.d2, dc=2 * params.dc)
    rng = np.random.default_rng(11)
    starts = [rng.uniform(-2.0, 2.0, size=4) for _ in range(3)]
    estimates = []
    for p in (params, doubled):
        plant, V = build_pendulum(p)
        trajs = [simulate(plant, x0, InputSignal.zero(2),
                          IntegratorConfig(step=1e-3, t_end=3.0)) for x0 in starts]
        estimates.append(epsilon_from_rates([rate_table(plant, V, t) for t in trajs]))
    assert estimates[0] > 0.0
    assert estimates[1] >= estimates[0]


def test_epsilon_estimate_requires_trajectories():
    for empty in ([], iter([])):
        with pytest.raises(ValueError, match="at least one"):
            epsilon_from_rates(empty)


# ---------------------------------------------------------------------------
# Positive definiteness on a box


def _w1_field():
    return ScalarField(2, lambda x: 0.4 * x[0] ** 2 + 0.75 * x[1] ** 2,
                       lambda x: np.array([0.8 * x[0], 1.5 * x[1]]))


def _indefinite_field():
    return ScalarField(2, lambda x: x[0] ** 2 - x[1] ** 2,
                       lambda x: np.array([2.0 * x[0], -2.0 * x[1]]))


def _w2_field():
    return ScalarField(2, lambda x: 0.5 * x[0] ** 2 + 0.5 * x[1] ** 2 + 1.0 - math.cos(x[0] - x[1]),
                       lambda x: np.array([x[0] + math.sin(x[0] - x[1]),
                                           x[1] - math.sin(x[0] - x[1])]))


BOX2 = [(-5.0, 5.0), (-5.0, 5.0)]


def test_definiteness_diagonal_quadratic():
    report = check_positive_definite(_w1_field(), BOX2, n_samples=200, seed=0)
    assert report.verdict == "pass"
    assert report.worst_value > 0.0
    assert report.detail["min_hessian_eig_origin"] == pytest.approx(0.8, abs=1e-6)
    assert "box-local" in report.detail["caveat"]


def test_definiteness_indefinite_fails_with_witness():
    report = check_positive_definite(_indefinite_field(), BOX2, n_samples=200, seed=0)
    assert report.verdict == "fail"
    assert report.worst_value < 0.0
    witness = np.asarray(report.witness)
    assert witness[0] ** 2 - witness[1] ** 2 == report.worst_value


def test_definiteness_coupled_field_hessian_eigs():
    report = check_positive_definite(_w2_field(), BOX2, n_samples=200, seed=0)
    assert report.verdict == "pass"
    # Hessian at the origin is [[2, -1], [-1, 2]]
    assert report.detail["min_hessian_eig_origin"] == pytest.approx(1.0, abs=1e-6)


def test_definiteness_verdicts_are_seed_stable():
    for field, expected in ((_w1_field(), "pass"), (_indefinite_field(), "fail"),
                            (_w2_field(), "pass")):
        verdicts = {check_positive_definite(field, BOX2, n_samples=200, seed=s).verdict
                    for s in range(5)}
        assert verdicts == {expected}


def test_definiteness_box_must_contain_origin():
    field = _w1_field()
    with pytest.raises(ValueError, match="origin"):
        check_positive_definite(field, [(0.5, 5.0), (-5.0, 5.0)])
    with pytest.raises(ValueError, match="degenerate"):
        check_positive_definite(field, [(5.0, -5.0), (-5.0, 5.0)])


# ---------------------------------------------------------------------------
# Gradient nonvanishing


def _is_sample(witness, box, n_samples, seed=0):
    return witness in [tuple(x) for x in halton_box_samples(box, n_samples, seed).tolist()]


def test_nonvanishing_coupled_field_passes():
    field = _w2_field()
    report = check_gradient_nonvanishing(field, BOX2, n_samples=200, seed=0)
    assert report.verdict == "pass"
    # no critical point: the witness is the sampled minimizer of |grad W|
    assert _is_sample(report.witness, BOX2, 200)
    assert np.linalg.norm(field.gradient(report.witness)) == report.worst_value


def test_nonvanishing_quartic_passes_with_margin_note():
    field = ScalarField(1, lambda x: x[0] ** 4, lambda x: np.array([4.0 * x[0] ** 3]))
    report = check_gradient_nonvanishing(field, [(-1.0, 1.0)], n_samples=200, seed=0)
    assert report.verdict == "pass"
    assert "margin" in report.detail["note"]


def test_box_checks_take_a_one_dimensional_gradient_returned_as_a_bare_number():
    # the float-form probes and polish read it as one entry
    field = ScalarField(1, lambda x: float(x[0] ** 2 + x[0] ** 4),
                        lambda x: 2.0 * x[0] + 4.0 * x[0] ** 3)
    assert field.gradient([0.5]).tolist() == [1.5]
    assert check_positive_definite(field, [(-1.0, 1.0)], n_samples=64).verdict == "pass"
    assert check_gradient_nonvanishing(field, [(-1.0, 1.0)], n_samples=64).verdict == "pass"


def test_nonvanishing_double_well_fails_near_unit_points():
    field = ScalarField(1, lambda x: 0.25 * x[0] ** 4 - 0.5 * x[0] ** 2,
                        lambda x: np.array([x[0] ** 3 - x[0]]))
    report = check_gradient_nonvanishing(field, [(-2.0, 2.0)], n_samples=200, seed=0)
    assert report.verdict == "fail"
    # the witness is the polished critical point, not the sampled minimizer
    assert not _is_sample(report.witness, [(-2.0, 2.0)], 200)
    assert abs(abs(report.witness[0]) - 1.0) < 1e-6
    assert abs(field.gradient(report.witness)[0]) < 1e-9 < report.worst_value


# ---------------------------------------------------------------------------
# Equilibrium uniqueness


def test_uniqueness_shaped_pendulum_passes():
    from nishape import build_full_shaping
    plant, _ = build_pendulum()
    closed = make_closed_loop(plant, build_full_shaping())
    report = check_equilibrium_uniqueness(closed, [(-8.0, 8.0)] * 4, n_samples=512, seed=0)
    assert report.verdict == "pass"
    # no root: the witness is the sampled minimizer of |f(x, 0)|
    assert _is_sample(report.witness, [(-8.0, 8.0)] * 4, 512)
    assert np.linalg.norm(closed.f(report.witness, np.zeros(2))) == report.worst_value


def test_uniqueness_open_loop_pendulum_finds_nonzero_well():
    plant, _ = build_pendulum()
    report = check_equilibrium_uniqueness(plant, [(-8.0, 8.0)] * 4, n_samples=512, seed=0)
    assert report.verdict == "fail"
    # the witness is the polished root, not the sampled minimizer
    root = np.array(report.witness)
    assert not _is_sample(report.witness, [(-8.0, 8.0)] * 4, 512)
    assert np.linalg.norm(root) > 1.0
    # it really is an equilibrium, nearer than any sample
    assert np.linalg.norm(plant.f(root, np.zeros(2))) <= 1e-8 < report.worst_value
    # angular velocities vanish at any equilibrium
    assert np.max(np.abs(root[2:])) <= 1e-8


def test_uniqueness_linear_hurwitz_loop_passes(linear_cases):
    sc = linear_cases["a"]
    closed = make_closed_loop(sc.build_plant(), sc.build_nonlinearity())
    report = check_equilibrium_uniqueness(closed, [(-5.0, 5.0)] * 2, n_samples=256, seed=0)
    assert report.verdict == "pass"


def test_box_checks_on_an_empty_sample_set():
    sc = get_scenario("pendulum-stabilize")
    plant, V, nl, W = _build_parts(sc)
    closed = make_closed_loop(plant, nl)
    for report in (check_gradient_nonvanishing(W, sc.box, n_samples=0),
                   check_equilibrium_uniqueness(closed, sc.box, n_samples=0)):
        assert (report.verdict, report.worst_value, report.witness) == ("nothing to check", 0.0, ())
        assert report.n_samples == 0 and dict(report.detail) == {}  # no polish ran
    # the definiteness check still samples its origin shell: 2 n axis points, 2^n corners
    report = check_positive_definite(V, sc.box, n_samples=0)
    assert report.verdict == "pass" and report.n_samples == 24
    # on a box of the smallest subnormal, the shell's radius underflows to 0: no point is left
    field = ScalarField.from_floats(1, lambda x: x[0] * x[0], lambda x: [2.0 * x[0]])
    report = check_positive_definite(field, [(-5e-324, 5e-324)], n_samples=0)
    assert (report.verdict, report.n_samples) == ("nothing to check", 0)


def test_box_checks_fail_a_model_that_is_nan_on_part_of_the_box():
    # a NaN sampled minimum fails every comparison with its floor, so each verdict
    # must be written as "pass only if the minimum clears the floor"
    nan = math.nan
    field = ScalarField.from_floats(
        2, lambda x: x[0] * x[0] + x[1] * x[1] if x[0] <= 0.5 else nan,
        lambda x: [2.0 * x[0], 2.0 * x[1]] if x[0] <= 0.5 else [nan, nan])
    system = NonlinearSystem.from_floats(
        2, 1, lambda x, u: [-x[0] + u[0], -x[1]] if x[0] <= 0.5 else [nan, nan],
        lambda x: [x[0]])
    box = [(-1.0, 1.0)] * 2
    for report in (check_positive_definite(field, box), check_gradient_nonvanishing(field, box),
                   check_equilibrium_uniqueness(system, box)):
        assert report.verdict == "fail" and math.isnan(report.worst_value), report


def test_root_checks_are_scale_free(capfd):
    # q = |x|^2 and xdot = -x pass at every scale: each tolerance is relative to the largest
    # sampled value, and a norm that over- or underflows is taken on its scaled row.  Below
    # about 1e-154 q's own value underflows to 0, where definiteness is right to fail
    q = ScalarField(2, lambda x: float(x @ x), lambda x: 2.0 * x, name="q")
    closed = to_nonlinear(LinearSystem(-np.eye(2), np.eye(2), np.eye(2)))
    for k in [*range(-500, 501, 10), 1000, 1015]:
        box = [(-8.0 * 2.0 ** k, 8.0 * 2.0 ** k)] * 2
        definite = check_positive_definite(q, box, n_samples=64)
        if k < 1000:
            assert definite.verdict == "pass", (k, definite)
        else:  # q's values all overflow to inf: no finite value certifies definiteness
            assert definite.verdict == "fail" and definite.worst_value == math.inf, (k, definite)
        for report in (check_gradient_nonvanishing(q, box, n_samples=64),
                       check_equilibrium_uniqueness(closed, box, n_samples=64)):
            assert report.verdict == "pass", (k, report)
    # the boxes on which the tolerances read every sample as a root, 1 + max(values) below 1
    assert check_equilibrium_uniqueness(closed, [(-1e-8, 1e-8)] * 2, n_samples=512).passed
    assert check_gradient_nonvanishing(q, [(-1e-10, 1e-10)] * 2, n_samples=256).passed
    assert capfd.readouterr() == ("", "")


def test_box_checks_on_a_huge_box_return_quietly(capfd):
    # on +-1e200 the samples' norms overflow and W is inf at every sample: no numpy warning
    # (an error in this suite), no LinAlgError and no LAPACK line on stderr
    sc = get_scenario("pendulum-stabilize")
    plant, V, nl, W = _build_parts(sc)
    box = [(-1e200, 1e200)] * 4
    reports = (check_positive_definite(W, box, n_samples=64),
               check_gradient_nonvanishing(W, box, n_samples=64),
               check_equilibrium_uniqueness(make_closed_loop(plant, nl), box, n_samples=64))
    assert all(isinstance(report, Check) and report.n_samples for report in reports)
    assert capfd.readouterr() == ("", "")
    assert reports[0].verdict == "fail" and reports[0].worst_value == math.inf
    # fd_step retakes the overflowed norm, so each polish's first Jacobian is finite and
    # its Newton step reaches the line search: more calls than the start and the Jacobian
    for report in reports[1:]:
        stats = report.detail
        assert stats["newton_steps"] == stats["polishes"] == certify.N_POLISH
        assert stats["model_calls"] > stats["polishes"] * (1 + 2 * 4), stats


def test_polish_on_a_huge_box_compares_norms_where_its_dots_overflow():
    # on +-1e200 |f| is far above 1.3e154, where f @ f and np.linalg.norm overflow to inf.
    # The descent and stop tests compare _norm's norms there, so trials are accepted and
    # polishes converge; their roots lie well inside the exclusion ball, whose test takes
    # _norm's norm too, so the verdicts stay pass
    sc = get_scenario("pendulum-stabilize")
    plant, V, nl, W = _build_parts(sc)
    box = [(-1e200, 1e200)] * 4
    for report in (check_gradient_nonvanishing(W, box, n_samples=64),
                   check_equilibrium_uniqueness(make_closed_loop(plant, nl), box, n_samples=64)):
        stats = report.detail
        assert stats["newton_steps"] > stats["polishes"] or stats["converged"], stats
        assert report.verdict == "pass", report


def test_box_checks_reject_a_box_that_is_not_finite():
    # a NaN bound passes the ordering test, an infinite one gives inf or NaN samples,
    # and (-1e308, 1e308) has finite bounds but a width that overflows
    field = ScalarField.from_floats(2, lambda x: x[0] * x[0] + x[1] * x[1],
                                    lambda x: [2.0 * x[0], 2.0 * x[1]])
    system = NonlinearSystem.from_floats(2, 1, lambda x, u: [-x[0] + u[0], -x[1]],
                                         lambda x: [x[0]])
    for bounds in ((math.nan, 1.0), (-8.0, math.inf), (-math.inf, math.inf), (-1e308, 1e308)):
        box = [bounds, (-1.0, 1.0)]
        for call in (lambda: halton_box_samples(box, 8, 0),
                     lambda: check_positive_definite(field, box),
                     lambda: check_gradient_nonvanishing(field, box),
                     lambda: check_equilibrium_uniqueness(system, box)):
            with pytest.raises(ValueError, match="finite") as info:
                call()
            assert repr([list(bounds), [-1.0, 1.0]]) in str(info.value)


def _origin_hessian_per_pair(field):
    """_origin_hessian's second differences one (i, j) at a time, through ``field.value``."""
    n, h = field.dim, 1e-4
    H = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            H[i, j] = H[j, i] = (field.value(ei + ej) - field.value(ei - ej)
                                 - field.value(ej - ei) + field.value(-ei - ej)) / (4.0 * h * h)
    return 0.5 * (H + H.T)


def test_stacked_second_differences_match_the_per_pair_loop_bitwise():
    fields = []
    for name in ("pendulum-stabilize", "linear-a", "linear-b", "pendulum-sync"):
        _, V, _, W = _build_parts(get_scenario(name))
        fields += [ScalarField.from_floats(f.dim, f.value_floats) for f in (V, W)]  # float forms
    fields.append(ScalarField(W.dim, lambda x: W.value(x)))  # a numpy callable
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 5, 8):
        Q = rng.normal(size=(n, n))
        fields.append(ScalarField(n, lambda x, Q=Q, n=n: float(
            x @ (Q @ Q.T) @ x + np.sum(np.sin(x) * x[::-1]) + np.sum(np.cos(x)) - n)))
    for field in fields:
        assert not field.has_analytic_gradient
        expected = _origin_hessian_per_pair(field)
        assert certify._origin_hessian(field).tobytes() == expected.tobytes()


def _positive_definite_per_point(field, box, n_samples, seed):
    """check_positive_definite's sampled minimum through ``field.value`` per point."""
    box = np.asarray(box, dtype=float)
    points = np.vstack([halton_box_samples(box, n_samples, seed), certify._origin_shell(box)])
    points = points[np.linalg.norm(points, axis=1) > 0.0]
    values = np.array([field.value(x) for x in points])
    i_min = int(np.argmin(values))
    eigs = nishape.sym_eigenvalues(certify._origin_hessian(field))
    ok = values[i_min] > 0.0 and eigs[0] > nishape.TAU_PD
    return Check("pass" if ok else "fail", values[i_min], points[i_min], points.shape[0])


def _numpy_jacobian(func, x, n_out):
    """Central differences of a numpy callable, probed at numpy's ``x + e`` and ``x - e``."""
    h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
    jac = np.empty((n_out, x.size))
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        jac[:, j] = (np.asarray(func(x + e), dtype=float)
                     - np.asarray(func(x - e), dtype=float)) / (2.0 * h)
    return jac


def _numpy_polish(func, x0, tol, counts):
    """Damped Newton on numpy arrays: the polish's own oracle, counting its Jacobians and the
    polishes that the stall rule ends (``certify``'s constants, read at the call)."""
    x = np.array(x0, dtype=float)
    fx = np.asarray(func(x), dtype=float)
    stalls = 0
    for _ in range(certify.POLISH_ITERS):
        if float(np.linalg.norm(fx)) <= tol:
            return x, True
        if stalls == certify._STALL_STEPS:
            break
        J = _numpy_jacobian(func, x, x.size)
        counts["newton_steps"] += 1
        try:
            d = np.linalg.solve(J, -fx)
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(J, -fx, rcond=None)[0]
        if not np.isfinite(d).all():
            return x, False
        base = float(fx @ fx)
        alpha = 1.0
        while alpha >= 1e-6:
            x_new = x + alpha * d
            f_new = np.asarray(func(x_new), dtype=float)
            if np.isfinite(f_new).all() and float(f_new @ f_new) < base:
                stalls = stalls + 1 if float(f_new @ f_new) > certify._STALL_RATIO * base else 0
                x, fx = x_new, f_new
                break
            alpha *= 0.5
        else:
            break
    ok = float(np.linalg.norm(fx)) <= tol
    counts["stalled"] += stalls == certify._STALL_STEPS and not ok
    return x, ok


def _numpy_polished_root(func, points, norms, tol, accept):
    """The first converged root that ``accept`` admits, polished on numpy arrays, or None;
    and the counters ``polishes``, ``newton_steps``, ``converged`` and ``stalled``."""
    counts = {"polishes": 0, "newton_steps": 0, "converged": 0, "stalled": 0}
    for idx in np.argsort(norms)[:certify.N_POLISH]:
        root, ok = _numpy_polish(func, points[idx], tol, counts)
        counts["polishes"] += 1
        counts["converged"] += ok
        if ok and accept(root):
            return root, counts
    return None, counts


def _uniqueness_per_point(sys_cl, box, n_samples, seed):
    """check_equilibrium_uniqueness through the numpy ``sys_cl.f`` per point and per probe."""
    box = np.asarray(box, dtype=float)
    r_excl = certify.R_EXCL_SCALE * float(np.max(np.abs(box)))
    points = halton_box_samples(box, n_samples, seed)
    points = points[np.linalg.norm(points, axis=1) > r_excl]
    u0 = np.zeros(sys_cl.n_io)
    norms = np.array([float(np.linalg.norm(sys_cl.f(x, u0))) for x in points])
    i_min = int(np.argmin(norms))
    scale = float(np.max(norms))
    root, counts = _numpy_polished_root(lambda x: sys_cl.f(x, u0), points, norms, 1e-9 * scale,
                                        lambda x: float(np.linalg.norm(x)) > r_excl)
    verdict = "pass" if (root is None and norms[i_min] > TAU_ZERO * scale) else "fail"
    return Check(verdict, norms[i_min], points[i_min] if root is None else root, points.shape[0],
                 counts)


def _gradient_nonvanishing_per_point(gradient, box, n_samples, seed):
    """check_gradient_nonvanishing through the numpy callable ``gradient`` per point and
    per probe (its note left out)."""
    box = np.asarray(box, dtype=float)
    points = halton_box_samples(box, n_samples, seed)
    points = points[np.linalg.norm(points, axis=1) > 0.0]
    grad_norms = np.linalg.norm(np.array([gradient(x) for x in points]), axis=1)
    i_min = int(np.argmin(grad_norms))
    floor = nishape.TAU_PD * float(np.min(np.linalg.norm(points, axis=1)))
    r_excl = certify.R_EXCL_SCALE * float(np.max(np.abs(box)))
    slack = 0.05 * (box[:, 1] - box[:, 0])
    tol_root = 1e-10 * float(np.max(grad_norms))
    critical, counts = _numpy_polished_root(
        gradient, points, grad_norms, tol_root,
        lambda x: (float(np.linalg.norm(x)) > r_excl and np.all(x >= box[:, 0] - slack)
                   and np.all(x <= box[:, 1] + slack)))
    verdict = "fail" if (critical is not None or grad_norms[i_min] <= floor) else "pass"
    return Check(verdict, grad_norms[i_min], points[i_min] if critical is None else critical,
                 points.shape[0], counts)


def _check_bits(check):
    return (check.verdict, np.float64(check.worst_value).tobytes(),
            np.array(check.witness).tobytes(), check.n_samples)


def _counters(check):
    return {k: check.detail[k] for k in ("polishes", "newton_steps", "converged", "stalled")}


@pytest.mark.parametrize("name", ["pendulum-stabilize", "linear-a", "linear-b", "pendulum-sync"])
def test_float_form_box_checks_match_the_per_point_numpy_path(name):
    sc = get_scenario(name)
    plant, V, nl, W = _build_parts(sc)
    closed = make_closed_loop(plant, nl)
    J, F = plant.h_jacobian, nl.potential

    def chain_rule(x):  # W's gradient by numpy's product, not W's generated form
        return V.gradient(x) - J.T @ F.gradient(plant.h(x))

    roots = 0
    for seed in range(16):
        pd = check_positive_definite(W, sc.box, n_samples=256, seed=seed)
        assert _check_bits(pd) == _check_bits(_positive_definite_per_point(W, sc.box, 256, seed))
        grad = check_gradient_nonvanishing(W, sc.box, n_samples=256, seed=seed)
        want = _gradient_nonvanishing_per_point(chain_rule, sc.box, 256, seed)
        assert _check_bits(grad) == _check_bits(want), seed
        assert _counters(grad) == dict(want.detail), seed
        uniq = check_equilibrium_uniqueness(closed, sc.box, n_samples=512, seed=seed)
        want = _uniqueness_per_point(closed, sc.box, 512, seed)
        assert _check_bits(uniq) == _check_bits(want), seed
        assert _counters(uniq) == dict(want.detail), seed
        roots += uniq.verdict == "fail" and not _is_sample(uniq.witness, sc.box, 512, seed)
    # the synchronizing loop keeps the plant's distant wells: Newton polishes nonzero roots
    assert roots == (12 if name == "pendulum-sync" else 0)


def test_stacked_row_norms_are_the_per_row_norm_bitwise():
    rng = np.random.default_rng(17)
    rows = [rng.normal(size=(2000, 4)) * 10.0 ** rng.integers(-8, 8, size=(2000, 1)),
            np.full((3, 4), 1e200), rng.uniform(-1e200, 1e200, size=(50, 4)),  # overflow
            rng.uniform(-1.0, 1.0, size=(50, 4)) * 5e-321,  # subnormal entries
            rng.normal(size=(50, 4)) * 1e-160, np.full((2, 4), -0.0)]  # subnormal squares
    special = rng.normal(size=(60, 4))
    special[np.arange(60), rng.integers(0, 4, 60)] = rng.choice([math.inf, -math.inf, math.nan], 60)
    fxs = np.vstack(rows + [special])
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = np.sqrt(certify._row_dots(fxs, fxs))
        per_row = np.array([float(np.linalg.norm(fx)) for fx in fxs])
    assert np.isinf(stacked[2000:2053]).all() and np.isnan(stacked[-60:]).any()
    assert np.array_equal(stacked, per_row, equal_nan=True)


def test_row_norms_retake_only_an_overflowed_or_underflowed_norm():
    rng = np.random.default_rng(29)
    plain = rng.normal(size=(200, 3)) * 10.0 ** rng.integers(-100, 100, size=(200, 1))
    rows = np.vstack([plain, [[3e200, 4e200, 0.0], [3e-200, -4e-200, 0.0], [0.0, -0.0, 0.0],
                              [math.inf, 1.0, 0.0], [math.nan, 1.0, 0.0], [1.7e308, 1.7e308, 0.0]]])
    with np.errstate(over="ignore", under="ignore"):
        norms = sysmodel._row_norms(rows)
        assert norms[:200].tobytes() == np.linalg.norm(plain, axis=1).tobytes()
    assert norms[200:204].tolist() == pytest.approx([5e200, 5e-200, 0.0, math.inf], rel=1e-15)
    assert math.isnan(norms[204]) and norms[205] == math.inf  # the true norm is not finite


def _polish_both(func, x0, tol=1e-12):
    """The float-form polish of ``func`` and the numpy oracle's from ``x0``, with the
    float form's calls counted."""
    calls = []

    def counted(x):
        calls.append(list(x))
        return func(x)

    stats = Counter(polishes=0, newton_steps=0, model_calls=0, converged=0)
    x, ok = certify._newton_polish(counted, list(x0), tol, stats)
    counts = Counter()
    want = _numpy_polish(lambda x: func(x.tolist()), np.array(x0), tol, counts)
    assert stats["model_calls"] == len(calls) and stats["polishes"] == 1
    assert stats["newton_steps"] == counts["newton_steps"] and stats["converged"] == ok
    return (np.array(x).tobytes(), ok), (want[0].tobytes(), want[1]), stats, calls


def test_polish_takes_the_least_squares_step_on_a_singular_jacobian():
    # the second column is exactly zero: solve raises and lstsq takes the step
    got, want, stats, _ = _polish_both(
        lambda x: (x[0] * x[0] - 2.0, 3.0 * x[0] * x[0] - 6.0), (1.0, 0.5))
    assert got == want and got[1] and stats["newton_steps"] >= 3
    assert abs(np.frombuffer(got[0])[0] - math.sqrt(2.0)) < 1e-12


def test_polish_stops_at_a_newton_step_that_is_not_finite():
    # a probe past x0 = 1 reads a NaN, so the Jacobian and the step are NaN
    got, want, stats, _ = _polish_both(
        lambda x: (math.nan if x[0] > 1.0 else x[0] - 2.0, x[1]), (1.0, 0.25))
    assert got == want and not got[1]
    assert stats["newton_steps"] == 1 and stats["model_calls"] == 1 + 4
    assert np.frombuffer(got[0]).tolist() == [1.0, 0.25]


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_polish_backtracks_past_a_form_that_is_not_finite(bad):
    # the full Newton step from 0.1 lands near 20, where the form is not finite
    def func(x):
        return (x[0] * x[0] - 4.0 if abs(x[0]) < 10.0 else bad, x[1] - 0.5)

    got, want, stats, calls = _polish_both(func, (0.1, 0.0))
    assert got == want and got[1]
    assert any(abs(x[0]) >= 10.0 for x in calls)  # the rejected trials
    assert abs(np.frombuffer(got[0])[0] - 2.0) < 1e-12


@pytest.mark.parametrize("fx", [(math.inf, math.nan), (math.nan, -math.inf, 1.0)])
def test_polish_never_converges_on_a_residual_with_an_inf_and_a_nan(fx):
    # numpy's norm of such a residual is NaN, under no tol; math.hypot alone says inf
    with np.errstate(invalid="ignore"):
        assert math.isnan(np.linalg.norm(fx)) and math.hypot(*fx) == math.inf
    stats = Counter()
    x, ok = certify._newton_polish(lambda x: fx, [0.5] * len(fx), math.inf, stats)
    assert not ok and stats["converged"] == 0 and x == [0.5] * len(fx)
    assert stats["newton_steps"] == 1  # its Jacobian is NaN: no step to take


def test_polish_probes_a_signed_zero_as_numpy_does():
    # the + probe of x0 turns x1 = -0.0 into 0.0 and flips the second entry
    def func(x):
        return (x[0] - 1.0, x[1] + math.copysign(1e-3, x[1]))

    for x0 in ((0.5, -0.0), (-0.0, -0.0), (0.5, 0.0)):
        got, want, _, _ = _polish_both(func, x0)
        assert got == want, x0
    jac = nishape.sysmodel.central_jacobian(func, [0.5, -0.0], 2)
    assert np.array_equal(jac, _numpy_jacobian(lambda x: func(x.tolist()),
                                                np.array([0.5, -0.0]), 2))
    assert jac[1, 0] != 0.0  # the probes at x1 = 0.0 and -0.0 differ by 2e-3


def test_polish_counters_count_a_counting_float_form():
    sc = get_scenario("pendulum-stabilize")
    plant, V, nl, W = _build_parts(sc)
    closed = make_closed_loop(plant, nl)
    calls = {"f": 0, "gradient": 0}

    def f(x, u):
        calls["f"] += 1
        return closed.f_floats(x, u)

    def gradient(x):
        calls["gradient"] += 1
        return W.gradient_floats(x)

    counted = NonlinearSystem.from_floats(4, 2, f, closed.h_floats)
    field = ScalarField.from_floats(4, W.value_floats, gradient)
    totals = Counter()
    for seed in range(1, 5):
        calls.update(f=0, gradient=0)
        uniq = check_equilibrium_uniqueness(counted, sc.box, n_samples=512, seed=seed)
        grad = check_gradient_nonvanishing(field, sc.box, n_samples=256, seed=seed)
        # beyond the polish: one f call per sample, one gradient call per stacked sample
        assert uniq.detail["model_calls"] == calls["f"] - uniq.n_samples
        assert grad.detail["model_calls"] == calls["gradient"] - grad.n_samples
        for label, check in (("f", uniq), ("gradient", grad)):
            assert check.detail["polishes"] == certify.N_POLISH  # no root is admitted
            totals.update({label: check.detail["model_calls"],
                           **{k: check.detail[k] for k in ("newton_steps", "converged",
                                                           "stalled")}})
    assert totals == {"f": 2035, "gradient": 2468, "newton_steps": 355, "converged": 2,
                      "stalled": 78}


def _root_check_lines(name, seeds):
    """The gradient and uniqueness report lines of a scenario's W and closed loop at each seed,
    the count of polished roots (a failing uniqueness witness that is not a sample) and the
    count of polishes that the stall rule ended."""
    sc = get_scenario(name)
    plant, V, nl, W = _build_parts(sc)
    closed = make_closed_loop(plant, nl)
    lines, roots, stalled = [], 0, 0
    for seed in seeds:
        grad = check_gradient_nonvanishing(W, sc.box, n_samples=256, seed=seed)
        uniq = check_equilibrium_uniqueness(closed, sc.box, n_samples=512, seed=seed)
        lines += [report_line("gradient", grad), report_line("uniqueness", uniq)]
        roots += uniq.verdict == "fail" and not _is_sample(uniq.witness, sc.box, 512, seed)
        stalled += grad.detail["stalled"] + uniq.detail["stalled"]
    return lines, roots, stalled


@pytest.mark.parametrize("name", ["pendulum-stabilize", "pendulum-sync"])
def test_stall_rule_keeps_every_root_check_line_of_the_full_hunt(name, monkeypatch):
    lines, roots, stalled = _root_check_lines(name, range(16))
    assert stalled > 0  # the rule ends polishes here
    monkeypatch.setattr(certify, "_STALL_STEPS", certify.POLISH_ITERS + 1)  # never reached
    full = _root_check_lines(name, range(16))
    assert full == (lines, roots, 0)


def test_a_polish_cut_short_loses_sync_roots_the_full_hunt_finds(monkeypatch):
    # the comparison above has teeth: a polish of one Newton step loses polished roots
    assert _root_check_lines("pendulum-sync", range(16))[1] == 12
    monkeypatch.setattr(certify, "POLISH_ITERS", 1)
    assert _root_check_lines("pendulum-sync", range(16))[1] < 12


# The synchronizing loop's distant in-phase wells, up to sign: the nonzero equilibria its
# uniqueness check polishes to on its box
_SYNC_WELLS = ((5.744502022899757, 5.772211261064723, 0.0, 0.0),
               (3.437942023858352, 3.459972833106449, 0.0, 0.0))


def test_sync_loop_fails_uniqueness_at_a_polished_well():
    # negative control: the sync loop has nonzero equilibria in its box, and the root check
    # must name one, a root of f(x, 0) to the polish tolerance, wherever its hunt reaches one.
    # At seeds 5, 8, 9 and 14 no polish from the ten smallest samples reaches a well, and the
    # sampled check passes
    sc = get_scenario("pendulum-sync")
    plant, V, nl, W = _build_parts(sc)
    closed = make_closed_loop(plant, nl)
    wells = [sign * np.array(well) for well in _SYNC_WELLS for sign in (1.0, -1.0)]
    r_excl = certify.R_EXCL_SCALE * float(np.max(np.abs(np.asarray(sc.box))))
    u0 = np.zeros(closed.n_io)
    failed = []
    for seed in range(16):
        uniq = check_equilibrium_uniqueness(closed, sc.box, n_samples=512, seed=seed)
        if uniq.verdict == "pass":
            continue
        failed.append(seed)
        witness = np.array(uniq.witness)
        assert min(float(np.linalg.norm(witness - well)) for well in wells) <= 1e-6, seed
        points = halton_box_samples(sc.box, 512, seed)
        scale = max(float(np.linalg.norm(closed.f(x, u0))) for x in points
                    if float(np.linalg.norm(x)) > r_excl)
        assert float(np.linalg.norm(closed.f(witness, u0))) <= 1e-9 * scale, seed
    assert failed == [seed for seed in range(16) if seed not in (5, 8, 9, 14)]


# ---------------------------------------------------------------------------
# Storage decay identity


def _closed_rotation(omega=1.0, r=1.0, gain=-0.5):
    hs = make_rotation_hamiltonian(omega=omega, r=r)
    nl = make_linear_gain_feedback(gain)
    closed = make_closed_loop(hs, nl)
    return hs, nl, closed


def test_decay_identity_small_discrepancy():
    hs, nl, closed = _closed_rotation()
    traj = simulate(closed, [1.0, 0.0], InputSignal.zero(1),
                    IntegratorConfig(step=1e-3, t_end=5.0))
    report = hamiltonian_decay_identity(hs, nl, traj)
    assert report.worst_value <= 1e-7


def test_decay_identity_fourth_order_refinement():
    hs, nl, closed = _closed_rotation(omega=3.0, r=3.0)
    discrepancies = []
    for step in (1e-3, 5e-4):
        traj = simulate(closed, [1.0, 0.0], InputSignal.zero(1),
                        IntegratorConfig(step=step, t_end=3.0))
        discrepancies.append(hamiltonian_decay_identity(hs, nl, traj).worst_value)
    assert discrepancies[0] / discrepancies[1] >= 8.0


def test_decay_identity_zero_feedback_reduces_to_plant_rate():
    hs = make_rotation_hamiltonian(omega=1.0, r=1.0)
    nl = StaticNonlinearity(1, lambda y: np.zeros(1), potential=zero_field(1))
    closed = make_closed_loop(hs, nl)
    traj = simulate(closed, [1.0, 0.0], InputSignal.zero(1),
                    IntegratorConfig(step=1e-3, t_end=5.0))
    report = hamiltonian_decay_identity(hs, nl, traj)
    assert report.worst_value <= 1e-7


def test_decay_identity_lossless_conserves_storage():
    hs, nl, closed = _closed_rotation(r=0.0)
    W = lambda x: hs.H.value(x) - nl.potential.value(np.array([x[0]]))
    traj = simulate(closed, [1.0, 0.0], InputSignal.zero(1),
                    IntegratorConfig(step=1e-3, t_end=5.0))
    report = hamiltonian_decay_identity(hs, nl, traj)
    assert report.worst_value <= 1e-7
    w_values = np.array([W(x) for x in traj.states])
    assert np.max(w_values) - np.min(w_values) <= 1e-8


def _nonlinear_hamiltonian():
    """State-dependent J and R, a non-quadratic H, a nonlinear output C and a
    sine feedback, every gradient analytic."""
    def J(x):
        a = 1.0 + 0.2 * x[0] ** 2
        return np.array([[0.0, a], [-a, 0.0]])

    H = ScalarField(2, lambda x: 1.0 - math.cos(x[0]) + 0.25 * x[0] ** 4 + 0.5 * x[1] ** 2,
                    lambda x: np.array([math.sin(x[0]) + x[0] ** 3, x[1]]))
    hs = HamiltonianSystem(2, 1, J, lambda x: np.diag([0.1, 0.5 + 0.1 * x[1] ** 2]), H,
                           lambda x: np.array([x[0] + 0.1 * x[0] ** 3]),
                           grad_C_fn=lambda x: np.array([[1.0 + 0.3 * x[0] ** 2, 0.0]]))
    F = ScalarField(1, lambda y: 0.3 * (math.cos(y[0]) - 1.0),
                    lambda y: np.array([-0.3 * math.sin(y[0])]))
    return hs, StaticNonlinearity(1, F.gradient, potential=F)


def _hamiltonian_oracle(hs):
    """The Hamiltonian dynamics as a plain numpy-built system:
    ``(J(x) - R(x)) @ (grad H(x) - grad C(x)^T u)``, ``y = C(x)``."""
    def jac_C(x):
        return np.asarray(hs.h_jacobian(x), dtype=float)

    def f(x, u):
        return (np.asarray(hs.J(x), dtype=float) - np.asarray(hs.R(x), dtype=float)) @ (
            hs.H.gradient(x) - jac_C(x).T @ np.asarray(u, dtype=float))

    return NonlinearSystem(hs.n_states, hs.n_io, f, hs.h, h_jacobian=jac_C)


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("which", ["rotation", "nonlinear"])
def test_hamiltonian_system_matches_its_numpy_realization_bitwise(which, forced):
    if which == "rotation":
        hs, nl = make_rotation_hamiltonian(omega=1.3, r=0.4), make_linear_gain_feedback(-0.5)
    else:
        hs, nl = _nonlinear_hamiltonian()
    assert isinstance(hs, NonlinearSystem)
    oracle = _hamiltonian_oracle(hs)
    signal = InputSignal.square_wave(1, 0, 0.8, 0.7) if forced else InputSignal.zero(1)
    cfg = IntegratorConfig(step=1e-3, t_end=1.2)

    def bits(*arrays):
        return [a.tobytes() for a in arrays]

    for sys, ref in ((hs, oracle), (make_closed_loop(hs, nl), make_closed_loop(oracle, nl))):
        traj, want = (with_storage(simulate(s, (0.9, -0.6), signal, cfg), hs.H)
                      for s in (sys, ref))
        assert bits(traj.states, traj.outputs, traj.storage) == \
            bits(want.states, want.outputs, want.storage)
        got, exp = rate_table(sys, hs.H, traj), rate_table(ref, hs.H, traj)
        assert bits(got.vdot, got.supply, got.ydot_sq, got.f_sq) == \
            bits(exp.vdot, exp.supply, exp.ydot_sq, exp.f_sq)


def test_hamiltonian_system_rejects_an_output_off_the_origin():
    hs = make_rotation_hamiltonian()
    with pytest.raises(ValueError, match="output must vanish"):
        HamiltonianSystem(2, 1, hs.J, hs.R, hs.H, lambda x: np.array([x[0] + 1.0]))
    # a float-form system is never a Hamiltonian without J, R and H
    plain = HamiltonianSystem.from_floats(1, 1, lambda x, u: (-x[0],), lambda x: (x[0],))
    assert type(plain) is NonlinearSystem


def test_decay_identity_matches_the_hand_derived_loop():
    # oracle: the per-knot w = H(x) - F(C(x)) and rhs = -g^T R g with
    # g = grad H - grad C^T grad F(C(x)), written out by hand; the identity
    # reads w and grad W from make_shaped_storage with the same float operations
    hs, nl = _nonlinear_hamiltonian()
    H, F = hs.H, nl.potential
    W = make_shaped_storage(H, F, hs.h, hs.n_states, h_jacobian=hs.output_jacobian)
    closed = make_closed_loop(hs, nl)
    rng = np.random.default_rng(37)
    for x0 in rng.uniform(-1.5, 1.5, size=(2, 2)):
        traj = simulate(closed, x0, InputSignal.zero(1), IntegratorConfig(step=1e-3, t_end=1.0))
        states = np.vstack([traj.states, rng.uniform(-3.0, 3.0, size=(20, 2))])
        w = np.empty(len(states))
        rhs = np.empty(len(states))
        for k, x in enumerate(states):
            y = hs.h(x)
            w[k] = H.value(x) - F.value(y)
            g = H.gradient(x) - hs.output_jacobian(x).T @ F.gradient(y)
            rhs[k] = -float(g @ (np.asarray(hs.R(x), dtype=float) @ g))
        assert np.array_equal([W.value(x) for x in states], w)
        assert np.array_equal([-float(W.gradient(x) @ hs.R(x) @ W.gradient(x))
                               for x in states], rhs)
        n = traj.n_samples
        lhs = (-w[4:n] + 8.0 * w[3:n - 1] - 8.0 * w[1:n - 3] + w[:n - 4]) / (12.0 * traj.step)
        discrepancy = np.abs(lhs - rhs[2:n - 2])
        report = hamiltonian_decay_identity(hs, nl, traj)
        assert report.worst_value == float(np.max(discrepancy)) > 0.0
        assert report.witness == (traj.times[int(np.argmax(discrepancy)) + 2],)


def test_decay_identity_without_an_output_jacobian_differences_w_as_a_whole():
    # no grad_C_fn: W's gradient is the central difference of W, as
    # make_shaped_storage documents for a missing piece, and not the chain
    # rule on a central-difference Jacobian of the output sin(x1)
    rotation = make_rotation_hamiltonian(omega=2.0, r=0.5)
    hs = HamiltonianSystem(2, 1, rotation.J, rotation.R, rotation.H,
                           lambda x: np.array([math.sin(x[0])]))
    nl = make_linear_gain_feedback()
    traj = simulate(make_closed_loop(hs, nl), [1.0, 0.0], InputSignal.zero(1),
                    IntegratorConfig(step=1e-3, t_end=0.5))

    def worst(W):
        w = np.array([W.value(x) for x in traj.states])
        rhs = np.array([-float(g @ (hs.R(x) @ g))
                        for x, g in zip(traj.states, W.gradients(traj.states))])
        lhs = (-w[4:] + 8.0 * w[3:-1] - 8.0 * w[1:-3] + w[:-4]) / (12.0 * traj.step)
        return float(np.max(np.abs(lhs - rhs[2:-2])))

    differenced = make_shaped_storage(hs.H, nl.potential, hs.h, 2)
    chained = make_shaped_storage(hs.H, nl.potential, hs.h, 2, h_jacobian=hs.output_jacobian)
    assert hs.h_jacobian is None and chained.has_analytic_gradient
    assert not differenced.has_analytic_gradient
    report = hamiltonian_decay_identity(hs, nl, traj)
    assert report.worst_value == worst(differenced) != worst(chained)


def test_decay_identity_requires_potential_and_autonomy():
    hs, nl, closed = _closed_rotation()
    bare = StaticNonlinearity(1, lambda y: -0.5 * np.asarray(y, dtype=float))
    traj = simulate(closed, [1.0, 0.0], InputSignal.zero(1),
                    IntegratorConfig(step=1e-3, t_end=0.1))
    with pytest.raises(ValueError, match="potential"):
        hamiltonian_decay_identity(hs, bare, traj)
    forced = simulate(closed, [1.0, 0.0], InputSignal.constant([0.5]),
                      IntegratorConfig(step=1e-3, t_end=0.1))
    with pytest.raises(ValueError, match="forced"):
        hamiltonian_decay_identity(hs, nl, forced)


def test_shaped_closed_loops_stay_dissipative_for_all_scenarios():
    # NI preservation: whenever the shaped storage is positive definite on
    # the scenario box, the autonomous closure must dissipate it
    from nishape import get_scenario, scenario_names, make_shaped_storage
    for name in scenario_names():
        sc = get_scenario(name)
        plant = sc.build_plant()
        V = sc.build_storage()
        nl = sc.build_nonlinearity()
        W = make_shaped_storage(V, nl.potential, plant.h, plant.n_states,
                                h_jacobian=plant.h_jacobian)
        assert check_positive_definite(W, sc.box, n_samples=128, seed=0).verdict == "pass"
        closed = make_closed_loop(plant, nl)
        traj = simulate(closed, sc.x0, InputSignal.zero(closed.n_io),
                        IntegratorConfig(step=1e-3, t_end=3.0))
        report = dissipation_from_rates(rate_table(closed, W, traj), 0.0)
        assert report.verdict == "pass", name


# ---------------------------------------------------------------------------
# Hidden-motion heuristic


def test_hidden_motion_flags_unobserved_state():
    # y = x1 stays frozen while x2 moves
    sys = NonlinearSystem(2, 1, lambda x, u: np.array([0.0, -x[1]]),
                          lambda x: np.array([x[0]]),
                          h_jacobian=lambda x: np.array([[1.0, 0.0]]))
    traj = simulate(sys, [0.0, 1.0], InputSignal.zero(1),
                    IntegratorConfig(step=1e-2, t_end=1.0))
    report = hidden_motion_from_rates(rate_table(sys, zero_field(2), traj))
    assert report.verdict == "flagged"
    assert report.worst_value == traj.n_samples
    assert report.witness == report.detail["intervals"][0] == (0.0, traj.times[-1])


def test_hidden_motion_clean_on_observed_decay():
    sys = NonlinearSystem(1, 1, lambda x, u: -x, lambda x: x.copy(),
                          h_jacobian=lambda x: np.eye(1))
    traj = simulate(sys, [1.0], InputSignal.zero(1),
                    IntegratorConfig(step=1e-2, t_end=1.0))
    assert hidden_motion_from_rates(rate_table(sys, zero_field(1), traj)).verdict == "pass"


# ---------------------------------------------------------------------------
# Report serialization


def _checks_and_their_text():
    """(name, Check, report_line text, checks.csv row), one per witness shape."""
    nan = math.nan
    return [
        ("grad", Check("pass", 2.5e-9, (0.5, -1.25), 10),
         "pass  worst=2.5000000000000001e-09  witness=(0.5, -1.25)",
         "pass,2.5000000000000001e-09,0.5 -1.25"),
        ("grad-none", Check("nothing to check", 0.0),
         "nothing to check  worst=0  witness=-", "nothing to check,0,"),
        ("dissipation", Check("fail", 1e-3, (0.25, 1.0, -2.0), 5),
         "fail  worst=0.001  witness=(0.25, 1, -2)", "fail,0.001,0.25 1 -2"),
        ("definiteness", Check("pass", 0.125, (0.1, 0.2), 7),
         "pass  worst=0.125  witness=(0.10000000000000001, 0.20000000000000001)",
         "pass,0.125,0.10000000000000001 0.20000000000000001"),
        ("nonvanishing", Check("pass", 0.3, (0.5, 0.5), 9),
         "pass  worst=0.29999999999999999  witness=(0.5, 0.5)",
         "pass,0.29999999999999999,0.5 0.5"),
        ("critical", Check("fail", 0.3, (1.0, 0.0), 9),
         "fail  worst=0.29999999999999999  witness=(1, 0)", "fail,0.29999999999999999,1 0"),
        ("uniqueness", Check("pass", 0.7, (3.0, -1.0), 11),
         "pass  worst=0.69999999999999996  witness=(3, -1)", "pass,0.69999999999999996,3 -1"),
        ("root", Check("fail", 0.7, (2.0, 2.0), 11),
         "fail  worst=0.69999999999999996  witness=(2, 2)", "fail,0.69999999999999996,2 2"),
        ("decay", Check("info", 1e-7, (1.5,), 100),
         "info  worst=9.9999999999999995e-08  witness=(1.5)", "info,9.9999999999999995e-08,1.5"),
        ("hidden", Check("flagged", 3, (0.0, 0.5)),
         "flagged  worst=3  witness=(0, 0.5)", "flagged,3,0 0.5"),
        ("hidden-none", Check("pass", 0),
         "pass  worst=0  witness=-", "pass,0,"),
        ("ssni", Check("pass", -2.0, (1e-12,)),
         "pass  worst=-2  witness=(9.9999999999999998e-13)", "pass,-2,9.9999999999999998e-13"),
        ("dey", Check("pass", 0.25), "pass  worst=0.25  witness=-", "pass,0.25,"),
        ("schur", Check("fail", -0.125, (0.5, -0.125)),
         "fail  worst=-0.125  witness=(0.5, -0.125)", "fail,-0.125,0.5 -0.125"),
        ("hurwitz", Check("indeterminate", nan),
         "indeterminate  worst=nan  witness=-", "indeterminate,nan,"),
        ("minimality", Check("fail", 1, (2, 1)),
         "fail  worst=1  witness=(2, 1)", "fail,1,2 1"),
        ("monitor", Check("pass", -1e-11),
         "pass  worst=-9.9999999999999994e-12  witness=-", "pass,-9.9999999999999994e-12,"),
        ("refine", Check("info", 4.0, (1e-5, 6.25e-7)),
         "info  worst=4  witness=(1.0000000000000001e-05, 6.2500000000000005e-07)",
         "info,4,1.0000000000000001e-05 6.2500000000000005e-07"),
        ("refine-none", Check("info", nan, (0.0, 0.0)),
         "info  worst=nan  witness=(0, 0)", "info,nan,0 0"),
        ("surface", Check("ok", 2, (0.0, 0.1)),
         "ok  worst=2  witness=(0, 0.10000000000000001)", "ok,2,0 0.10000000000000001"),
        ("surface-flat", Check("degenerate", 0),
         "degenerate  worst=0  witness=-", "degenerate,0,"),
        ("sync", Check("pass", 0.15, (0.2, 0.03)),
         "pass  worst=0.14999999999999999  witness=(0.20000000000000001, 0.029999999999999999)",
         "pass,0.14999999999999999,0.20000000000000001 0.029999999999999999"),
        ("convergence", Check("pass", 1e-3, np.array([1e-3, 0.0])),
         "pass  worst=0.001  witness=(0.001, 0)", "pass,0.001,0.001 0"),
    ]


def test_report_line_and_csv_golden_text(tmp_path):
    cases = _checks_and_their_text()
    for name, report, line, _ in cases:
        assert report_line(name, report) == f"{name}: {line}"
    path = tmp_path / "checks.csv"
    write_reports_csv(path, [(name, report) for name, report, _, _ in cases])
    expected = ["check,verdict,worst_value,witness"] + [f"{name},{row}"
                                                        for name, _, _, row in cases]
    assert path.read_bytes() == ("\r\n".join(expected) + "\r\n").encode()


def test_report_serialization(tmp_path):
    report = check_positive_definite(_w1_field(), BOX2, n_samples=50, seed=0)
    line = report_line("definiteness", report)
    assert line.startswith("definiteness: pass")
    assert "worst=" in line and "witness=" in line

    path = tmp_path / "checks.csv"
    write_reports_csv(path, [("definiteness", report)])
    lines = path.read_text().splitlines()
    assert lines[0] == "check,verdict,worst_value,witness"
    assert lines[1].startswith("definiteness,pass,")
