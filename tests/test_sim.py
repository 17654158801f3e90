import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from nishape import (InputSignal, IntegratorConfig, NonlinearSystem, Trajectory,
                     closed_loop_matrix, make_closed_loop,
                     make_shaped_storage, monitor_decay, refine_check, simulate,
                     square_wave_value, write_trajectory_csv)


def _scalar_decay():
    return NonlinearSystem(1, 1, lambda x, u: -x, lambda x: x.copy(),
                           h_jacobian=lambda x: np.eye(1))


# ---------------------------------------------------------------------------
# Integrator accuracy and determinism


def test_exponential_decay_endpoint():
    traj = simulate(_scalar_decay(), [1.0], InputSignal.zero(1),
                    IntegratorConfig(step=1e-3, t_end=1.0))
    assert abs(traj.states[-1, 0] - math.exp(-1.0)) <= 1e-9


def test_equilibrium_start_stays_at_zero_for_all_scenarios():
    from nishape import get_scenario, scenario_names
    for name in scenario_names():
        sc = get_scenario(name)
        closed = make_closed_loop(sc.build_plant(), sc.build_nonlinearity())
        traj = simulate(closed, np.zeros(closed.n_states), InputSignal.zero(closed.n_io),
                        IntegratorConfig(step=1e-2, t_end=1.0))
        assert np.all(traj.states == 0.0), name


def test_parallel_simulations_match_serial(pendulum):
    plant, V = pendulum
    cfg = IntegratorConfig(step=1e-3, t_end=1.0)
    starts = [np.array([0.5 * k, -0.2 * k, 0.0, 0.1 * k]) for k in range(4)]

    def run(x0):
        return simulate(plant, x0, InputSignal.zero(2), cfg, monitor=V)

    serial = [run(x0) for x0 in starts]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(run, starts))
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.storage, b.storage)


def test_linear_consistency_against_diagonal_exponential(linear_cases):
    sc = linear_cases["a"]
    closed = make_closed_loop(sc.build_plant(), sc.build_nonlinearity())
    A_cl = closed_loop_matrix(sc.certificate.sys, np.diag([0.2, -0.5]))
    x0 = np.array([1.0, -2.0])
    traj = simulate(closed, x0, InputSignal.zero(2), IntegratorConfig(step=1e-3, t_end=3.0))
    exact = np.exp(np.diag(A_cl) * 3.0) * x0
    assert np.max(np.abs(traj.states[-1] - exact)) <= 1e-8


def test_simulate_is_bitwise_deterministic(pendulum):
    plant, V = pendulum
    sig = InputSignal.square_wave(2, 0, 2.0, 3.0)
    cfg = IntegratorConfig(step=1e-3, t_end=2.0)
    a = simulate(plant, (1.0, 0.5, 0.0, 0.0), sig, cfg, monitor=V)
    b = simulate(plant, (1.0, 0.5, 0.0, 0.0), sig, cfg, monitor=V)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.outputs, b.outputs)
    assert np.array_equal(a.storage, b.storage)


def test_uniform_grid_invariant(pendulum):
    plant, _ = pendulum
    traj = simulate(plant, (1.0, 0.0, 0.0, 0.0), InputSignal.zero(2),
                    IntegratorConfig(step=1e-3, t_end=0.5))
    dt = np.diff(traj.times)
    assert np.max(np.abs(dt - traj.step)) <= 1e-9 * traj.step
    assert traj.n_samples == 501


def test_trajectory_rejects_nonuniform_grid():
    with pytest.raises(ValueError, match="uniform"):
        Trajectory(times=[0.0, 0.1, 0.3], states=np.zeros((3, 1)),
                   inputs=np.zeros((3, 1)), outputs=np.zeros((3, 1)))


def test_nonfinite_guard_truncates_with_diagnostic():
    blowup = NonlinearSystem(1, 1, lambda x, u: x * x, lambda x: x.copy())
    with np.errstate(over="ignore", invalid="ignore"):
        traj = simulate(blowup, [1.0], InputSignal.zero(1),
                        IntegratorConfig(step=1e-3, t_end=2.0))
    assert traj.diagnostic is not None
    assert traj.n_samples < 2001
    assert np.isfinite(traj.states).all()


def test_euler_method_supported():
    traj = simulate(_scalar_decay(), [1.0], InputSignal.zero(1),
                    IntegratorConfig(step=1e-4, t_end=1.0, method="Euler"))
    # first-order accuracy only
    assert abs(traj.states[-1, 0] - math.exp(-1.0)) <= 1e-4


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(step=-1.0, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(step=2.0, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.1, t_end=1.0, method="RK45")
    for step, t_end in ((0.0, 1.0), (math.nan, 1.0), (math.inf, math.inf),
                        (1e-3, math.inf), (1e-3, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(step=step, t_end=t_end)
    for x0 in ([math.nan], [math.inf], [1.0, 2.0]):
        with pytest.raises(ValueError, match="x0 must be a finite vector of length 1"):
            simulate(_scalar_decay(), x0, InputSignal.zero(1),
                     IntegratorConfig(step=0.1, t_end=1.0))


# ---------------------------------------------------------------------------
# Signals


def test_square_wave_values():
    assert square_wave_value(1.0, 2.0, 3.0) == 2.0    # sin(2 pi / 3) > 0
    assert square_wave_value(2.0, 2.0, 3.0) == -2.0   # sin(4 pi / 3) < 0
    assert square_wave_value(0.0, 2.0, 3.0) == 2.0    # sgn(0) convention
    with pytest.raises(ValueError):
        square_wave_value(1.0, 2.0, 0.0)


def test_square_wave_signal_single_channel():
    sig = InputSignal.square_wave(2, channel=0, amplitude=2.0, period=3.0)
    v = sig.value(1.0)
    assert v[0] == 2.0 and v[1] == 0.0
    with pytest.raises(ValueError):
        InputSignal.square_wave(2, channel=5, amplitude=1.0, period=3.0)


def test_constant_signal():
    sig = InputSignal.constant([1.0, -2.0])
    assert np.array_equal(sig.value(17.3), np.array([1.0, -2.0]))


# ---------------------------------------------------------------------------
# Storage monitoring


def test_monitor_decay_constant_trajectory_passes():
    traj = Trajectory(times=[0.0, 0.1, 0.2], states=np.zeros((3, 1)),
                      inputs=np.zeros((3, 1)), outputs=np.zeros((3, 1)),
                      storage=np.array([1.0, 1.0, 1.0]))
    report = monitor_decay(traj)
    assert report.verdict == "pass"
    assert report.max_increase == 0.0


def test_monitor_decay_skips_forced_segment(pendulum):
    plant, V = pendulum
    sig = InputSignal.square_wave(2, 0, 2.0, 3.0)
    traj = simulate(plant, (1.0, 0.0, 0.0, 0.0), sig,
                    IntegratorConfig(step=1e-3, t_end=1.0), monitor=V)
    assert monitor_decay(traj).verdict == "skipped"


def test_monitor_decay_requires_storage(pendulum):
    plant, _ = pendulum
    traj = simulate(plant, (1.0, 0.0, 0.0, 0.0), InputSignal.zero(2),
                    IntegratorConfig(step=1e-3, t_end=0.1))
    with pytest.raises(ValueError, match="storage"):
        monitor_decay(traj)


def test_monitor_decay_detects_increase():
    traj = Trajectory(times=[0.0, 0.1, 0.2], states=np.zeros((3, 1)),
                      inputs=np.zeros((3, 1)), outputs=np.zeros((3, 1)),
                      storage=np.array([0.0, 0.5, 1.0]))
    assert monitor_decay(traj).verdict == "fail"


def test_linear_coupled_case_converges_and_decays(linear_cases):
    # the coarse run must agree with a 10x finer reference on the endpoint norm
    sc = linear_cases["b"]
    plant = sc.build_plant()
    nl = sc.build_nonlinearity()
    V = sc.build_storage()
    W = make_shaped_storage(V, nl.potential, plant.h, 2, h_jacobian=plant.h_jacobian)
    closed = make_closed_loop(plant, nl)
    traj = simulate(closed, (1.0, -2.0), InputSignal.zero(2),
                    IntegratorConfig(step=1e-3, t_end=10.0), monitor=W)
    assert monitor_decay(traj).verdict == "pass"
    assert np.linalg.norm(traj.states[-1]) < 1e-3
    fine = simulate(closed, (1.0, -2.0), InputSignal.zero(2),
                    IntegratorConfig(step=1e-4, t_end=10.0))
    assert np.linalg.norm(fine.states[-1]) < 1e-3
    assert np.linalg.norm(traj.states[-1] - fine.states[-1]) < 1e-9


# ---------------------------------------------------------------------------
# Step-refinement order checks


def test_refine_check_smooth_rk4_order():
    report = refine_check(_scalar_decay(), [1.0], InputSignal.zero(1),
                          IntegratorConfig(step=0.05, t_end=1.0))
    assert report.order is not None
    assert report.order >= 3.5


def test_refine_check_square_wave_degrades_order(pendulum):
    plant, _ = pendulum
    report = refine_check(plant, (1.0, 0.5, 0.0, 0.0),
                          InputSignal.square_wave(2, 0, 2.0, 3.0),
                          IntegratorConfig(step=0.01, t_end=6.0))
    assert "discontinuous input" in report.flags
    assert report.order is not None
    assert 0.3 < report.order < 2.0


def test_refine_check_zero_dynamics():
    frozen = NonlinearSystem(1, 1, lambda x, u: np.zeros(1), lambda x: x.copy())
    report = refine_check(frozen, [0.0], InputSignal.zero(1),
                          IntegratorConfig(step=0.1, t_end=1.0))
    assert report.order is None
    assert report.err_coarse == 0.0 and report.err_fine == 0.0


# ---------------------------------------------------------------------------
# CSV export


def test_trajectory_csv_header_and_digits(tmp_path, pendulum):
    plant, V = pendulum
    traj = simulate(plant, (1.0, 0.5, 0.0, 0.0), InputSignal.zero(2),
                    IntegratorConfig(step=0.25, t_end=1.0), monitor=V)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,x4,v1,v2,y1,y2,W"
    assert len(lines) == 1 + traj.n_samples
    first = lines[1].split(",")
    # 17 significant digits round-trip exactly
    assert float(first[1]) == traj.states[0, 0]
    assert float(first[-1]) == traj.storage[0]
