import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from nishape import (InputSignal, IntegratorConfig, NonlinearSystem, ScalarField,
                     Trajectory, closed_loop_matrix, get_scenario,
                     hamiltonian_to_nonlinear, make_closed_loop, make_shaped_storage,
                     monitor_decay, refine_check, scenarios, simulate,
                     square_wave_value, write_trajectory_csv)
from nishape.sim import _CHUNK

from conftest import make_rotation_hamiltonian


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


def test_trajectory_copies_writeable_input_and_keeps_read_only_input():
    times = np.arange(3) * 0.5
    states = np.zeros((3, 1))
    traj = Trajectory(times=times, states=states, inputs=np.zeros((3, 1)),
                      outputs=np.zeros((3, 1)))
    times[2] = 9.0
    states[0, 0] = 7.0
    assert traj.times.tolist() == [0.0, 0.5, 1.0]
    assert traj.states[0, 0] == 0.0
    assert not traj.states.flags.writeable
    frozen = np.zeros((3, 1))
    frozen.setflags(write=False)
    base = np.zeros((3, 1))
    view = base[:]
    view.setflags(write=False)  # read-only, but writable through its base
    traj = Trajectory(times=traj.times, states=frozen, inputs=view, outputs=frozen)
    assert traj.times is not times and traj.states is frozen and traj.outputs is frozen
    base[0, 0] = 7.0
    assert traj.inputs[0, 0] == 0.0


def test_simulate_peak_memory_stays_close_to_the_record(linear_cases):
    sc = linear_cases["a"]
    plant, V = sc.build_plant(), sc.build_storage()
    # Euler: a record of 25k steps, at a quarter of the f calls (tracemalloc is slow)
    cfg = IntegratorConfig(step=1e-4, t_end=2.5, method="Euler")
    tracemalloc.start()
    try:
        traj = simulate(plant, sc.x0, sc.signal, cfg, monitor=V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (traj.times, traj.states, traj.inputs, traj.outputs,
                                  traj.storage))
    assert traj.n_samples == 25_001
    # the record, the grid check's np.diff temporary (8 B per knot) and one chunk
    # of knots buffered as Python floats (well under 512 B per knot); a copy of
    # the record (64 B per knot here) would not fit
    assert peak <= held + 8 * traj.n_samples + 512 * _CHUNK, (peak, held)


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
                        (1e-3, math.inf), (1e-3, math.nan), (5e-324, 1.0), (1e-10, 1e300)):
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(step=step, t_end=t_end)
    assert IntegratorConfig(step=1.0, t_end=1e7).n_steps == IntegratorConfig.MAX_STEPS
    for t_end in (1e7 + 1.0, 1e14):
        with pytest.raises(ValueError, match="at most 10000000"):
            IntegratorConfig(step=1.0, t_end=t_end)
    assert IntegratorConfig(step=0.1, t_end=0.3).n_steps == 3  # rounded: 0.3 / 0.1 < 3
    assert IntegratorConfig(step=0.6, t_end=1.0).n_steps == 1   # floored: 2 steps overshoot
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


# ---------------------------------------------------------------------------
# Bitwise oracles: the step loop and the CSV writer as first written, one
# finiteness check per stage and one format() call per value.


def _simulate_oracle(sys, x0, signal, cfg, monitor=None):
    step = cfg.step
    n_steps = int(round(cfg.t_end / step))
    if abs(n_steps * step - cfg.t_end) > 1e-9 * max(1.0, cfg.t_end):
        n_steps = int(math.floor(cfg.t_end / step))
    times = np.arange(n_steps + 1) * step
    states = np.empty((n_steps + 1, sys.n_states))
    inputs = np.empty((n_steps + 1, sys.n_io))
    outputs = np.empty((n_steps + 1, sys.n_io))
    storage = np.empty(n_steps + 1) if monitor is not None else None
    f, h = sys.f, sys.h
    x = np.array(x0, dtype=float)
    diagnostic = None
    last = n_steps
    for k in range(n_steps + 1):
        t = times[k]
        v = signal.value(t)
        states[k] = x
        inputs[k] = v
        outputs[k] = h(x)
        if storage is not None:
            storage[k] = monitor.value(x)
        if k == n_steps:
            break
        if cfg.method == "RK4":
            v_half = signal.value(t + 0.5 * step)
            v_full = signal.value(t + step)
            k1 = np.asarray(f(x, v), dtype=float)
            k2 = np.asarray(f(x + (0.5 * step) * k1, v_half), dtype=float)
            k3 = np.asarray(f(x + (0.5 * step) * k2, v_half), dtype=float)
            k4 = np.asarray(f(x + step * k3, v_full), dtype=float)
            if not (np.isfinite(k1).all() and np.isfinite(k2).all()
                    and np.isfinite(k3).all() and np.isfinite(k4).all()):
                diagnostic = f"non-finite stage derivative at t = {t:.6g}"
                last = k
                break
            x = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            k1 = np.asarray(f(x, v), dtype=float)
            if not np.isfinite(k1).all():
                diagnostic = f"non-finite derivative at t = {t:.6g}"
                last = k
                break
            x = x + step * k1
        if not np.isfinite(x).all():
            diagnostic = f"non-finite state after the step from t = {t:.6g}"
            last = k
            break
    keep = slice(0, last + 1)
    return Trajectory(times=times[keep], states=states[keep], inputs=inputs[keep],
                      outputs=outputs[keep],
                      storage=None if storage is None else storage[keep],
                      diagnostic=diagnostic)


def _write_csv_oracle(traj, path):
    n = traj.states.shape[1]
    p = traj.inputs.shape[1]
    columns = (["t"] + [f"x{i + 1}" for i in range(n)] + [f"v{i + 1}" for i in range(p)]
               + [f"y{i + 1}" for i in range(p)])
    if traj.storage is not None:
        columns.append("W")
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for k in range(traj.n_samples):
            row = [traj.times[k], *traj.states[k], *traj.inputs[k], *traj.outputs[k]]
            if traj.storage is not None:
                row.append(traj.storage[k])
            fh.write(",".join(format(val, ".17g") for val in row) + "\n")


def _inf_past_half():
    """dx/dt = x + u until x passes 0.5, then an infinite derivative."""
    return NonlinearSystem(1, 1, lambda x, u: x + u if x[0] < 0.5 else np.array([math.inf]),
                           lambda x: x.copy())


def _huge_rate():
    """Finite derivatives up to 1e308, so a step can overflow the state."""
    return NonlinearSystem(1, 1, lambda x, u: np.minimum(1e308 * x, 1e308) + u,
                           lambda x: x.copy())


def _numpy_closed_loop(plant, nl):
    """``f(x, phi(h(x)) + v)`` from the numpy callables alone."""
    f, h, phi = plant.f, plant.h, nl.phi
    return NonlinearSystem(plant.n_states, plant.n_io, lambda x, v: f(x, phi(h(x)) + v), h)


def _closed_loop_cases(name, signal, t_end):
    """A scenario's closed loop and W as the pipeline builds them, and their
    numpy-callable twins for the oracle."""
    sc = get_scenario(name)
    plant, V, nl, W = scenarios._build_parts(sc)
    W_numpy = ScalarField(plant.n_states, lambda x: V.value(x) - nl.potential.value(plant.h(x)))
    return (f"{name} closed loop", make_closed_loop(plant, nl), sc.x0, signal,
            IntegratorConfig(step=1e-3, t_end=t_end), W, (_numpy_closed_loop(plant, nl), W_numpy))


def test_simulate_matches_the_per_stage_check_loop_bitwise(pendulum):
    plant, V = pendulum
    x0 = (1.0, 0.5, 0.0, 0.0)
    square = InputSignal.square_wave(2, 0, 2.0, 3.0)   # switches at 1.5 s and 3 s, on the grid
    constant = InputSignal.constant([0.3, -0.2])
    hamiltonian = hamiltonian_to_nonlinear(make_rotation_hamiltonian(omega=2.0, r=0.5))
    listed = NonlinearSystem(2, 1, lambda x, u: [x[1], -x[0] - 0.5 * x[1] + u[0]],
                             lambda x: x[:1].copy())
    cases = [  # (label, system, x0, signal, config, monitor[, oracle system and monitor])
        ("square", plant, x0, square, IntegratorConfig(step=1e-3, t_end=4.0), V),
        ("square, no monitor", plant, x0, square, IntegratorConfig(step=1e-3, t_end=4.0), None),
        # switches inside a step, where the stage inputs at t + step/2 and t + step differ
        ("square, off grid", plant, x0, square, IntegratorConfig(step=7e-4, t_end=4.0), V),
        ("zero", plant, x0, InputSignal.zero(2), IntegratorConfig(step=1e-3, t_end=0.5), V),
        ("constant", plant, x0, constant, IntegratorConfig(step=1e-3, t_end=0.5), None),
        ("euler", plant, x0, square, IntegratorConfig(1e-3, 4.0, method="Euler"), V),
        ("euler constant", plant, x0, constant, IntegratorConfig(1e-3, 0.5, method="Euler"), None),
        _closed_loop_cases("pendulum-stabilize", InputSignal.zero(2), 5.0),
        _closed_loop_cases("pendulum-sync", get_scenario("pendulum-sync").signal, 4.0),
        _closed_loop_cases("linear-b", InputSignal.zero(2), 2.0),
        ("hamiltonian", hamiltonian, (1.0, -0.5), InputSignal.constant([0.25]),
         IntegratorConfig(step=1e-3, t_end=2.0), make_rotation_hamiltonian().H),
        ("list-valued f", listed, (1.0, 0.0), InputSignal.square_wave(1, 0, 1.0, 1.0),
         IntegratorConfig(step=1e-3, t_end=2.0), None),
    ]
    for method in ("RK4", "Euler"):
        cfg = IntegratorConfig(step=1e-3, t_end=2.0, method=method)
        huge = IntegratorConfig(step=0.5, t_end=3.0, method=method)
        cases += [  # an inf stage, and finite stages whose step overflows the state
            (f"{method} inf stage", _inf_past_half(), [0.1], InputSignal.zero(1), cfg, None),
            (f"{method} overflow", _huge_rate(), [1.0], InputSignal.constant([1.0]), huge,
             ScalarField(1, lambda x: float(x[0]))),
        ]
    diagnostics = set()
    for label, sys, start, signal, cfg, monitor, *oracle in cases:
        oracle_sys, oracle_monitor = oracle[0] if oracle else (sys, monitor)
        with np.errstate(over="ignore", invalid="ignore"):
            got = simulate(sys, start, signal, cfg, monitor=monitor)
            want = _simulate_oracle(oracle_sys, start, signal, cfg, monitor=oracle_monitor)
        for field in ("times", "states", "inputs", "outputs"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), (label, field)
        assert (got.storage is None) == (want.storage is None), label
        if want.storage is not None:
            assert np.array_equal(got.storage, want.storage), label
        assert got.diagnostic == want.diagnostic, label
        diagnostics.add(want.diagnostic and want.diagnostic.split(" = ")[0])
    assert diagnostics == {None, "non-finite stage derivative at t", "non-finite derivative at t",
                           "non-finite state after the step from t"}


def _csv_block(rng, n_rows, width, specials):
    """Random float64 bit patterns of either sign, led by the special values."""
    block = rng.integers(0, 2 ** 64, size=(n_rows, width), dtype=np.uint64).view(np.float64)
    block.flat[:specials.size] = specials[:block.size]
    return block


def test_trajectory_csv_matches_the_per_value_writer_bytewise(tmp_path):
    rng = np.random.default_rng(7)
    specials = np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324,
                         1.7976931348623157e308, 0.1, -1e-300])
    for n_rows in (1, 128, 129, 300):   # one row, and either side of the 128-row chunk
        for with_storage in (False, True):
            storage = _csv_block(rng, n_rows, 1, specials)[:, 0] if with_storage else None
            traj = Trajectory(times=np.arange(n_rows) * 1e-3,
                              states=_csv_block(rng, n_rows, 3, specials),
                              inputs=_csv_block(rng, n_rows, 2, specials),
                              outputs=_csv_block(rng, n_rows, 2, specials), storage=storage)
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            write_trajectory_csv(traj, got)
            _write_csv_oracle(traj, want)
            assert got.read_bytes() == want.read_bytes(), (n_rows, with_storage)
