import math
import tracemalloc

import numpy as np
import pytest

import nishape
from nishape import (HamiltonianSystem, InputSignal, IntegratorConfig, NonlinearSystem,
                     Report, ScalarField, StaticNonlinearity, Trajectory, build_pendulum,
                     PendulumParams, TAU_ZERO, get_scenario,
                     check_equilibrium_uniqueness, check_gradient_nonvanishing,
                     check_positive_definite, estimate_max_epsilon,
                     flag_hidden_motion, halton_box_samples,
                     hamiltonian_decay_identity, hamiltonian_to_nonlinear,
                     make_closed_loop, make_shaped_storage, ni_residuals,
                     osni_residuals, report_line,
                     simulate, write_reports_csv, zero_field)
from nishape.certify import dissipation_from_rates, epsilon_from_rates, rate_table
from nishape.scenarios import ConvergenceReport, SyncReport, _build_parts
from nishape.sim import _CHUNK
from conftest import make_linear_gain_feedback, make_rotation_hamiltonian


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


# ---------------------------------------------------------------------------
# Dissipation residuals


def test_pendulum_square_wave_is_dissipative():
    plant, V, traj = _pendulum_square_wave_run(t_end=30.0)
    report = ni_residuals(plant, V, traj)
    assert report.verdict == "pass"
    assert report.n_violations == 0
    assert report.n_samples == traj.n_samples


def test_lossless_storage_rate_vanishes():
    hs = make_rotation_hamiltonian(omega=1.0, r=0.0)
    sys = hamiltonian_to_nonlinear(hs)
    traj = simulate(sys, [1.0, 0.0], InputSignal.zero(1),
                    IntegratorConfig(step=1e-3, t_end=5.0))
    report = ni_residuals(sys, hs.H, traj)
    assert report.verdict == "pass"
    assert abs(report.max_violation) <= 1e-12


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
    report = ni_residuals(bad_plant, V, traj)
    assert report.verdict == "fail"
    assert report.max_violation > report.tolerance


def test_osni_with_zero_epsilon_is_bitwise_ni():
    plant, V, traj = _pendulum_square_wave_run(t_end=2.0)
    r_ni = ni_residuals(plant, V, traj)
    r_osni = osni_residuals(plant, V, traj, 0.0)
    assert np.array_equal(r_ni.residuals, r_osni.residuals)
    assert r_ni.max_violation == r_osni.max_violation
    assert r_ni.tolerance == r_osni.tolerance


def test_osni_passes_at_half_estimate_fails_at_ten_times():
    plant, V, trajs = _random_pendulum_batch()
    eps_hat = estimate_max_epsilon(plant, V, trajs)
    assert eps_hat > 0.0
    for traj in trajs:
        assert osni_residuals(plant, V, traj, 0.5 * eps_hat).verdict == "pass"
    assert any(osni_residuals(plant, V, traj, 10.0 * eps_hat).verdict == "fail"
               for traj in trajs)


def test_osni_passes_just_below_the_estimate():
    plant, V, trajs = _random_pendulum_batch(n_traj=3)
    eps_hat = estimate_max_epsilon(plant, V, trajs)
    for traj in trajs:
        report = osni_residuals(plant, V, traj, eps_hat * (1.0 - 1e-6))
        assert report.verdict == "pass"


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
    assert estimate_max_epsilon(plant, V, [traj]) == eps_hat
    assert flag_hidden_motion(plant, traj).intervals == intervals
    for epsilon, report in ((0.0, ni_residuals(plant, V, traj)),
                            (0.5 * eps_hat, osni_residuals(plant, V, traj, 0.5 * eps_hat))):
        residuals = _knot_loop_oracle(plant, V, traj, epsilon)[0]
        assert np.array_equal(report.residuals, residuals)
        assert report.tolerance == 1e-6 * (1.0 + max_supply)
    # several trajectories: one infimum over all of their knots
    _, _, trajs = _random_pendulum_batch(n_traj=2, t_end=0.5)
    oracle = min(_knot_loop_oracle(plant, V, t, 0.0)[2] for t in trajs)
    assert estimate_max_epsilon(plant, V, trajs) == oracle

    # hidden motion in runs of several knots, the last one reaching the end
    sys = NonlinearSystem(2, 1, lambda x, u: np.array([max(u[0], 0.0), -x[1]]),
                          lambda x: x[:1].copy(), h_jacobian=lambda x: np.array([[1.0, 0.0]]))
    traj = simulate(sys, [0.0, 1.0], InputSignal.square_wave(1, 0, 1.0, 0.5),
                    IntegratorConfig(step=1e-2, t_end=0.9))
    intervals = _knot_loop_oracle(sys, zero_field(2), traj, 0.0)[3]
    assert len(intervals) == 2 and intervals[-1][1] == traj.times[-1]
    assert flag_hidden_motion(sys, traj).intervals == intervals


def _per_knot_rates(sys, V, traj):
    """The rate sweep as a per-knot loop of 1-D ``@`` products on the numpy
    callables: (vdot or None, supply, ydot_sq, f_sq)."""
    n = traj.n_samples
    vdot = None if V is None else np.empty(n)
    supply, ydot_sq, f_sq = np.empty(n), np.empty(n), np.empty(n)
    for k in range(n):
        x, u = traj.states[k], traj.inputs[k]
        fx = np.asarray(sys.f(x, u), dtype=float)
        if vdot is not None:
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
        if want is None:
            assert g is None, label
        else:
            assert g.shape == want.shape, label
            assert g.view(np.uint64).tolist() == want.view(np.uint64).tolist(), label
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
    _assert_rates_bitwise(plant, V, simulate(plant, sc.x0, sc.signal, cfg))
    traj = simulate(closed, sc.x0, sc.signal, cfg)
    _assert_rates_bitwise(closed, W, traj)
    assert _assert_rates_bitwise(closed, None, traj).vdot is None


def test_rate_table_matches_the_per_knot_loop_bitwise_on_numpy_built_systems():
    hs = make_rotation_hamiltonian(omega=1.3, r=0.4)
    ham = hamiltonian_to_nonlinear(hs)
    traj = simulate(ham, [1.0, -0.5], InputSignal.square_wave(1, 0, 1.0, 0.7),
                    IntegratorConfig(step=1e-3, t_end=1.2))
    _assert_rates_bitwise(ham, hs.H, traj)

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


def test_rate_table_matches_the_per_knot_loop_bitwise_at_chunk_boundaries():
    sc = get_scenario("pendulum-sync")
    plant, V, nl, W = _build_parts(sc)
    closed = make_closed_loop(plant, nl)
    traj = simulate(closed, sc.x0, sc.signal, IntegratorConfig(step=1e-3, t_end=2.048))
    assert traj.n_samples == 2049
    for m in (1, 1023, 1024, 1025, 2049):
        prefix = Trajectory(traj.times[:m], traj.states[:m], traj.inputs[:m], traj.outputs[:m])
        _assert_rates_bitwise(closed, W, prefix)


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
            rates = _assert_rates_bitwise(sys, field, traj)
            if sys is not closed:  # the closed loop's one knot has only nan
                values = np.concatenate([rates.vdot, rates.supply, rates.ydot_sq, rates.f_sq])
                assert np.isinf(values).any() and np.isnan(values).any()
    assert traj.n_samples > _CHUNK


def test_rate_checks_name_the_missing_storage():
    plant, _, traj = _pendulum_square_wave_run(t_end=0.1)
    rates = rate_table(plant, None, traj)
    with pytest.raises(ValueError, match="V=None"):
        dissipation_from_rates(rates, 0.0)
    with pytest.raises(ValueError, match="V=None"):
        epsilon_from_rates([rates])


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


def test_osni_rejects_negative_epsilon():
    plant, V, traj = _pendulum_square_wave_run(t_end=1.0)
    with pytest.raises(ValueError):
        osni_residuals(plant, V, traj, -0.1)


# ---------------------------------------------------------------------------
# Strictness estimate


def test_epsilon_estimate_lossless_is_zero():
    hs = make_rotation_hamiltonian(omega=1.0, r=0.0)
    sys = hamiltonian_to_nonlinear(hs)
    traj = simulate(sys, [1.0, 0.0], InputSignal.zero(1),
                    IntegratorConfig(step=1e-3, t_end=3.0))
    assert estimate_max_epsilon(sys, hs.H, [traj]) == 0.0


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
        estimates.append(estimate_max_epsilon(plant, V, trajs))
    assert estimates[0] > 0.0
    assert estimates[1] >= estimates[0]


def test_epsilon_estimate_requires_trajectories():
    plant, V = build_pendulum()
    with pytest.raises(ValueError):
        estimate_max_epsilon(plant, V, [])


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
    assert report.min_sampled_value > 0.0
    assert report.min_hessian_eig_origin == pytest.approx(0.8, abs=1e-6)
    assert "box-local" in report.caveat


def test_definiteness_indefinite_fails_with_witness():
    report = check_positive_definite(_indefinite_field(), BOX2, n_samples=200, seed=0)
    assert report.verdict == "fail"
    assert report.min_sampled_value < 0.0
    witness = np.asarray(report.witness)
    assert witness[0] ** 2 - witness[1] ** 2 == pytest.approx(report.min_sampled_value)


def test_definiteness_coupled_field_hessian_eigs():
    report = check_positive_definite(_w2_field(), BOX2, n_samples=200, seed=0)
    assert report.verdict == "pass"
    # Hessian at the origin is [[2, -1], [-1, 2]]
    assert report.min_hessian_eig_origin == pytest.approx(1.0, abs=1e-6)


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


def test_nonvanishing_coupled_field_passes():
    report = check_gradient_nonvanishing(_w2_field(), BOX2, n_samples=200, seed=0)
    assert report.verdict == "pass"
    assert report.critical_point is None


def test_nonvanishing_quartic_passes_with_margin_note():
    field = ScalarField(1, lambda x: x[0] ** 4, lambda x: np.array([4.0 * x[0] ** 3]))
    report = check_gradient_nonvanishing(field, [(-1.0, 1.0)], n_samples=200, seed=0)
    assert report.verdict == "pass"
    assert "margin" in report.note


def test_nonvanishing_double_well_fails_near_unit_points():
    field = ScalarField(1, lambda x: 0.25 * x[0] ** 4 - 0.5 * x[0] ** 2,
                        lambda x: np.array([x[0] ** 3 - x[0]]))
    report = check_gradient_nonvanishing(field, [(-2.0, 2.0)], n_samples=200, seed=0)
    assert report.verdict == "fail"
    assert report.critical_point is not None
    assert abs(abs(report.critical_point[0]) - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# Equilibrium uniqueness


def test_uniqueness_shaped_pendulum_passes():
    from nishape import build_full_shaping
    plant, _ = build_pendulum()
    closed = make_closed_loop(plant, build_full_shaping())
    report = check_equilibrium_uniqueness(closed, [(-8.0, 8.0)] * 4, n_samples=512, seed=0)
    assert report.verdict == "pass"
    assert report.root is None


def test_uniqueness_open_loop_pendulum_finds_nonzero_well():
    plant, _ = build_pendulum()
    report = check_equilibrium_uniqueness(plant, [(-8.0, 8.0)] * 4, n_samples=512, seed=0)
    assert report.verdict == "fail"
    root = report.root
    assert root is not None
    assert np.linalg.norm(root) > 1.0
    # it really is an equilibrium
    assert np.linalg.norm(plant.f(root, np.zeros(2))) <= 1e-8
    # angular velocities vanish at any equilibrium
    assert np.max(np.abs(root[2:])) <= 1e-8


def test_uniqueness_linear_hurwitz_loop_passes(linear_cases):
    sc = linear_cases["a"]
    closed = make_closed_loop(sc.build_plant(), sc.build_nonlinearity())
    report = check_equilibrium_uniqueness(closed, [(-5.0, 5.0)] * 2, n_samples=256, seed=0)
    assert report.verdict == "pass"


# ---------------------------------------------------------------------------
# Storage decay identity


def _closed_rotation(omega=1.0, r=1.0, gain=-0.5):
    hs = make_rotation_hamiltonian(omega=omega, r=r)
    nl = make_linear_gain_feedback(gain)
    closed = make_closed_loop(hamiltonian_to_nonlinear(hs), nl)
    return hs, nl, closed


def test_decay_identity_small_discrepancy():
    hs, nl, closed = _closed_rotation()
    traj = simulate(closed, [1.0, 0.0], InputSignal.zero(1),
                    IntegratorConfig(step=1e-3, t_end=5.0))
    report = hamiltonian_decay_identity(hs, nl, traj)
    assert report.max_discrepancy <= 1e-7


def test_decay_identity_fourth_order_refinement():
    hs, nl, closed = _closed_rotation(omega=3.0, r=3.0)
    discrepancies = []
    for step in (1e-3, 5e-4):
        traj = simulate(closed, [1.0, 0.0], InputSignal.zero(1),
                        IntegratorConfig(step=step, t_end=3.0))
        discrepancies.append(hamiltonian_decay_identity(hs, nl, traj).max_discrepancy)
    assert discrepancies[0] / discrepancies[1] >= 8.0


def test_decay_identity_zero_feedback_reduces_to_plant_rate():
    hs = make_rotation_hamiltonian(omega=1.0, r=1.0)
    nl = StaticNonlinearity(1, lambda y: np.zeros(1), potential=zero_field(1))
    closed = make_closed_loop(hamiltonian_to_nonlinear(hs), nl)
    traj = simulate(closed, [1.0, 0.0], InputSignal.zero(1),
                    IntegratorConfig(step=1e-3, t_end=5.0))
    report = hamiltonian_decay_identity(hs, nl, traj)
    assert report.max_discrepancy <= 1e-7


def test_decay_identity_lossless_conserves_storage():
    hs, nl, closed = _closed_rotation(r=0.0)
    W = lambda x: hs.H.value(x) - nl.potential.value(np.array([x[0]]))
    traj = simulate(closed, [1.0, 0.0], InputSignal.zero(1),
                    IntegratorConfig(step=1e-3, t_end=5.0))
    report = hamiltonian_decay_identity(hs, nl, traj)
    assert report.max_discrepancy <= 1e-7
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


def test_decay_identity_matches_the_hand_derived_loop():
    # oracle: the per-knot w = H(x) - F(C(x)) and rhs = -g^T R g with
    # g = grad H - grad C^T grad F(C(x)), written out by hand; the identity
    # reads w and grad W from make_shaped_storage with the same float operations
    hs, nl = _nonlinear_hamiltonian()
    H, F = hs.H, nl.potential
    W = make_shaped_storage(H, F, hs.C, hs.n, h_jacobian=hs.grad_C)
    closed = make_closed_loop(hamiltonian_to_nonlinear(hs), nl)
    rng = np.random.default_rng(37)
    for x0 in rng.uniform(-1.5, 1.5, size=(2, 2)):
        traj = simulate(closed, x0, InputSignal.zero(1), IntegratorConfig(step=1e-3, t_end=1.0))
        states = np.vstack([traj.states, rng.uniform(-3.0, 3.0, size=(20, 2))])
        w = np.empty(len(states))
        rhs = np.empty(len(states))
        for k, x in enumerate(states):
            y = np.asarray(hs.C(x), dtype=float)
            w[k] = H.value(x) - F.value(y)
            g = H.gradient(x) - hs.grad_C(x).T @ F.gradient(y)
            rhs[k] = -float(g @ (np.asarray(hs.R(x), dtype=float) @ g))
        assert np.array_equal([W.value(x) for x in states], w)
        assert np.array_equal([-float(W.gradient(x) @ hs.R(x) @ W.gradient(x))
                               for x in states], rhs)
        n = traj.n_samples
        lhs = (-w[4:n] + 8.0 * w[3:n - 1] - 8.0 * w[1:n - 3] + w[:n - 4]) / (12.0 * traj.step)
        discrepancy = np.abs(lhs - rhs[2:n - 2])
        report = hamiltonian_decay_identity(hs, nl, traj)
        assert report.max_discrepancy == float(np.max(discrepancy)) > 0.0
        assert report.time_of_max == float(traj.times[int(np.argmax(discrepancy)) + 2])


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
        report = ni_residuals(closed, W, traj)
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
    report = flag_hidden_motion(sys, traj)
    assert report.verdict == "flagged"
    assert report.n_flagged == traj.n_samples


def test_hidden_motion_clean_on_observed_decay():
    sys = NonlinearSystem(1, 1, lambda x, u: -x, lambda x: x.copy(),
                          h_jacobian=lambda x: np.eye(1))
    traj = simulate(sys, [1.0], InputSignal.zero(1),
                    IntegratorConfig(step=1e-2, t_end=1.0))
    assert flag_hidden_motion(sys, traj).verdict == "pass"


# ---------------------------------------------------------------------------
# Report serialization


def _report_of_each_kind():
    """(name, report, report_line text, checks.csv row), one per report class
    plus the witness special cases."""
    v = np.array
    return [
        ("grad", nishape.GradientCheckReport(2.5e-9, v([0.5, -1.25]), 10, "pass"),
         "pass  worst=2.5000000000000001e-09  witness=(0.5, -1.25)",
         "pass,2.5000000000000001e-09,0.5 -1.25"),
        ("grad-none", nishape.GradientCheckReport(0.0, None, 0, "nothing to check"),
         "nothing to check  worst=0  witness=-", "nothing to check,0,"),
        ("dissipation", nishape.DissipationReport(1e-3, 0.25, v([1.0, -2.0]), 5, 1, 0.1,
                                                  1e-6, "fail", v([0.0, 1e-3])),
         "fail  worst=0.001  witness=(0.25, 1, -2)", "fail,0.001,0.25 1 -2"),
        ("definiteness", nishape.DefinitenessReport(0.125, 0.8, v([0.1, 0.2]), 7, "pass", ""),
         "pass  worst=0.125  witness=(0.10000000000000001, 0.20000000000000001)",
         "pass,0.125,0.10000000000000001 0.20000000000000001"),
        ("nonvanishing", nishape.NonvanishingReport(0.3, v([0.5, 0.5]), 1e-9, None, 9, "pass"),
         "pass  worst=0.29999999999999999  witness=(0.5, 0.5)",
         "pass,0.29999999999999999,0.5 0.5"),
        ("critical", nishape.NonvanishingReport(0.3, v([0.5, 0.5]), 1e-9, v([1.0, 0.0]), 9,
                                                "fail"),
         "fail  worst=0.29999999999999999  witness=(1, 0)", "fail,0.29999999999999999,1 0"),
        ("uniqueness", nishape.UniquenessReport(0.7, v([3.0, -1.0]), None, 11, 1e-3, "pass"),
         "pass  worst=0.69999999999999996  witness=(3, -1)", "pass,0.69999999999999996,3 -1"),
        ("root", nishape.UniquenessReport(0.7, v([3.0, -1.0]), v([2.0, 2.0]), 11, 1e-3, "fail"),
         "fail  worst=0.69999999999999996  witness=(2, 2)", "fail,0.69999999999999996,2 2"),
        ("decay", nishape.DecayIdentityReport(1e-7, 1.5, 100, 1e-3),
         "info  worst=9.9999999999999995e-08  witness=(1.5)", "info,9.9999999999999995e-08,1.5"),
        ("hidden", nishape.HiddenMotionReport(((0.0, 0.5), (2.0, 3.0)), 3, "flagged"),
         "flagged  worst=3  witness=(0, 0.5)", "flagged,3,0 0.5"),
        ("hidden-none", nishape.HiddenMotionReport((), 0, "pass"),
         "pass  worst=0  witness=-", "pass,0,"),
        ("ssni", nishape.SsniReport(-2.0, 1e-12, "pass"),
         "pass  worst=-2  witness=(9.9999999999999998e-13)", "pass,-2,9.9999999999999998e-13"),
        ("dey", nishape.DeyReport(0.25, 0.0, "pass"), "pass  worst=0.25  witness=-", "pass,0.25,"),
        ("schur", nishape.SchurReport(0.5, -0.125, True, False, "fail"),
         "fail  worst=-0.125  witness=(0.5, -0.125)", "fail,-0.125,0.5 -0.125"),
        ("hurwitz", nishape.HurwitzReport(math.nan, 1.0, "indeterminate", "note"),
         "indeterminate  worst=nan  witness=-", "indeterminate,nan,"),
        ("minimality", nishape.MinimalityReport(2, 1, 2, "fail"),
         "fail  worst=1  witness=(2, 1)", "fail,1,2 1"),
        ("monitor", nishape.MonitorDecayReport(-1e-11, 1e-8, "pass"),
         "pass  worst=-9.9999999999999994e-12  witness=-", "pass,-9.9999999999999994e-12,"),
        ("refine", nishape.RefineReport(1e-5, 6.25e-7, 4.0, ()),
         "info  worst=4  witness=(1.0000000000000001e-05, 6.2500000000000005e-07)",
         "info,4,1.0000000000000001e-05 6.2500000000000005e-07"),
        ("refine-none", nishape.RefineReport(0.0, 0.0, None, ()),
         "info  worst=nan  witness=(0, 0)", "info,nan,0 0"),
        ("surface", nishape.SurfaceReport(v([0.0]), v([[0.0]]), ((0.0, 0.1), (1.0, 1.0)), 0,
                                          False, None),
         "ok  worst=2  witness=(0, 0.10000000000000001)", "ok,2,0 0.10000000000000001"),
        ("surface-flat", nishape.SurfaceReport(v([0.0]), v([[0.0]]), (), 4, True, None),
         "degenerate  worst=0  witness=-", "degenerate,0,"),
        ("sync", SyncReport(0.2, 0.03, 0.15, (20.0, 30.0), "pass"),
         "pass  worst=0.14999999999999999  witness=(0.20000000000000001, 0.029999999999999999)",
         "pass,0.14999999999999999,0.20000000000000001 0.029999999999999999"),
        ("convergence", ConvergenceReport(1e-3, v([1e-3, 0.0]), 1e-2, "pass"),
         "pass  worst=0.001  witness=(0.001, 0)", "pass,0.001,0.001 0"),
    ]


def test_every_report_class_shares_the_report_base():
    classes = {obj for module in (nishape, nishape.scenarios) for name, obj in vars(module).items()
               if isinstance(obj, type) and name.endswith("Report") and obj is not Report}
    assert len(classes) == 17
    assert all(issubclass(cls, Report) for cls in classes)
    assert classes == {type(report) for _, report, _, _ in _report_of_each_kind()}


def test_report_line_and_csv_golden_text(tmp_path):
    cases = _report_of_each_kind()
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
