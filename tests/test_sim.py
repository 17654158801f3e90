import dataclasses
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from nishape import (InputSignal, IntegratorConfig, NonlinearSystem, ScalarField,
                     Trajectory, closed_loop_matrix, get_scenario,
                     make_closed_loop, make_shaped_storage,
                     monitor_decay, scenarios, simulate,
                     square_wave_value, write_trajectory_csv)
import nishape
from nishape import sim
from nishape.sysmodel import _CHUNK

from conftest import (fused_and_composed, g17_hard_values, make_rotation_hamiltonian, sourceless,
                      with_storage)


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
        return with_storage(simulate(plant, x0, InputSignal.zero(2), cfg), V)

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
    a, b = (with_storage(simulate(plant, (1.0, 0.5, 0.0, 0.0), sig, cfg), V) for _ in "ab")
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


def test_simulate_peak_memory_stays_close_to_the_record():
    # a float-form 2-state system: a record of 25k steps at little cost per f call
    # (tracemalloc is slow)
    plant = NonlinearSystem.from_floats(2, 2, lambda x, u: (u[0] - x[0], 2.0 * (u[1] - x[1])),
                                        lambda x: (x[0], x[1]))
    V = ScalarField.from_floats(2, lambda x: 0.5 * (x[0] * x[0] + x[1] * x[1]))
    cfg = IntegratorConfig(step=1e-4, t_end=2.5)
    tracemalloc.start()
    try:
        traj = with_storage(simulate(plant, (1.0, -2.0), InputSignal.zero(2), cfg), V)
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


@pytest.mark.parametrize("times", [[0.0, math.nan, 2.0], [math.nan, 1.0, 2.0],
                                   [0.0, 1.0, math.nan], [0.0, math.inf]])
def test_trajectory_rejects_a_time_that_is_not_finite(times):
    # a NaN passed the spacing check, and an inf warned in its subtraction
    n = len(times)
    with pytest.raises(ValueError, match="times must be finite"):
        Trajectory(times=times, states=np.zeros((n, 1)), inputs=np.zeros((n, 1)),
                   outputs=np.zeros((n, 1)))


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


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(step=-1.0, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(step=2.0, t_end=1.0)
    # RK4 is the one integrator: a class constant, not a field of the config
    assert [f.name for f in dataclasses.fields(IntegratorConfig)] == ["step", "t_end"]
    assert IntegratorConfig.method == IntegratorConfig(step=0.1, t_end=1.0).method == "RK4"
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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("label, build", [
    ("period", lambda bad: square_wave_value(1.0, 2.0, bad)),
    ("amplitude", lambda bad: square_wave_value(1.0, bad, 3.0)),
    ("period", lambda bad: InputSignal.square_wave(2, 0, 1.0, bad)),
    ("amplitude", lambda bad: InputSignal.square_wave(2, 0, bad, 3.0)),
    ("vector", lambda bad: InputSignal.constant([0.5, bad]))],
    ids=["square_wave_value-period", "square_wave_value-amplitude", "square_wave-period",
         "square_wave-amplitude", "constant-vector"])
def test_signals_reject_a_non_finite_parameter(label, build, bad):
    # a nan period used to give -amplitude at every t, a silently wrong input
    with pytest.raises(ValueError, match=label):
        build(bad)


def test_square_wave_signal_single_channel():
    sig = InputSignal.square_wave(2, channel=0, amplitude=2.0, period=3.0)
    v = sig.value(1.0)
    assert v[0] == 2.0 and v[1] == 0.0
    with pytest.raises(ValueError):
        InputSignal.square_wave(2, channel=5, amplitude=1.0, period=3.0)


def test_square_wave_closure_matches_square_wave_value_bitwise():
    signal = get_scenario("pendulum-sync").signal
    amplitude, period = signal.amplitude, signal.period
    for step in (1e-3, 7e-4):  # on the grid, switch times included, and off it
        knots = np.arange(int(round(8.0 / step)) + 1, dtype=float) * step
        for t in [t for k in knots.tolist() for t in (k, k + 0.5 * step, k + step)]:
            want = square_wave_value(t, amplitude, period)
            assert want == (amplitude if math.sin(2.0 * math.pi * t / period) >= 0.0
                            else -amplitude)
            expected = [0.0] * signal.p
            expected[signal.channel] = want  # nonzero, so == compares every bit
            assert list(signal._floats(t)) == expected, (step, t)
    switch = 0.5 * period  # a switch time on the 1e-3 grid
    assert signal._floats(switch) != signal._floats(switch + 1e-3)
    # value() returns a fresh array each call: writing to it leaves the shared tuples alone
    for t in (0.0, 0.75 * period):
        v = signal.value(t)
        v += 100.0
        assert np.array_equal(signal.value(t), np.array(signal._floats(t)))
        assert signal.value(t) is not signal.value(t)


def test_forced_run_reuses_each_step_end_value_where_the_grid_allows():
    # on a grid of 2**-10 every (k - 1) * step + step is k * step, so each step but the
    # first of a chunk takes its value at t from the step before: two closure calls per
    # step, one more per chunk, one at the final knot and one in simulate's set-up
    signal = InputSignal.square_wave(1, 0, 1.0, 0.25)
    times, wave = [], signal._floats
    object.__setattr__(signal, "_floats", lambda t: times.append(t) or wave(t))
    n_steps = 2 * _CHUNK + 5
    plant = NonlinearSystem.from_floats(1, 1, lambda x, u: (u[0] - x[0],), lambda x: (x[0],))
    traj = simulate(plant, (0.0,), signal, IntegratorConfig(step=2.0 ** -10,
                                                            t_end=n_steps * 2.0 ** -10))
    assert len(times) == 2 * n_steps + 3 + 1 + 1
    assert np.array_equal(traj.inputs[:, 0], [wave(t)[0] for t in traj.times.tolist()])


def test_signals_rebuild_through_pickle_and_copy():
    import copy
    import pickle
    for signal in (InputSignal.zero(2), InputSignal.constant([0.5, -1.0]),
                   InputSignal.square_wave(2, 1, 2.0, 3.0)):
        for twin in (pickle.loads(pickle.dumps(signal)), copy.deepcopy(signal)):
            assert twin == signal
            assert all(twin._floats(t) == signal._floats(t) for t in (0.0, 1.0, 2.0))


def test_constant_signal():
    sig = InputSignal.constant([1.0, -2.0])
    assert np.array_equal(sig.value(17.3), np.array([1.0, -2.0]))


# ---------------------------------------------------------------------------
# The storage channel and its decay check


def test_monitor_decay_constant_trajectory_passes():
    traj = Trajectory(times=[0.0, 0.1, 0.2], states=np.zeros((3, 1)),
                      inputs=np.zeros((3, 1)), outputs=np.zeros((3, 1)),
                      storage=np.array([1.0, 1.0, 1.0]))
    report = monitor_decay(traj)
    assert report.verdict == "pass"
    assert report.worst_value == 0.0


def test_monitor_decay_skips_forced_segment(pendulum):
    plant, V = pendulum
    sig = InputSignal.square_wave(2, 0, 2.0, 3.0)
    traj = with_storage(simulate(plant, (1.0, 0.0, 0.0, 0.0), sig,
                                 IntegratorConfig(step=1e-3, t_end=1.0)), V)
    report = monitor_decay(traj)
    assert report.verdict == "skipped" and math.isnan(report.worst_value)


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


def test_monitor_decay_fails_a_storage_that_rises_to_inf():
    # the tolerance scales with the finite values alone, so one inf leaves it finite
    t, z = np.arange(3) * 0.1, np.zeros((3, 1))
    report = monitor_decay(Trajectory(t, z, z, z, storage=[1.0, 2.0, math.inf]))
    assert report.verdict == "fail" and report.worst_value == math.inf
    assert monitor_decay(Trajectory(t, z, z, z, storage=[math.inf, 2.0, 1.0])).passed


def test_linear_coupled_case_converges_and_decays(linear_cases):
    # the coarse run must agree with a 10x finer reference on the endpoint norm
    sc = linear_cases["b"]
    plant = sc.build_plant()
    nl = sc.build_nonlinearity()
    V = sc.build_storage()
    W = make_shaped_storage(V, nl.potential, plant.h, 2, h_jacobian=plant.h_jacobian)
    closed = make_closed_loop(plant, nl)
    traj = with_storage(simulate(closed, (1.0, -2.0), InputSignal.zero(2),
                                 IntegratorConfig(step=1e-3, t_end=10.0)), W)
    assert monitor_decay(traj).verdict == "pass"
    assert np.linalg.norm(traj.states[-1]) < 1e-3
    fine = simulate(closed, (1.0, -2.0), InputSignal.zero(2),
                    IntegratorConfig(step=1e-4, t_end=10.0))
    assert np.linalg.norm(fine.states[-1]) < 1e-3
    assert np.linalg.norm(traj.states[-1] - fine.states[-1]) < 1e-9


# ---------------------------------------------------------------------------
# CSV export


def test_trajectory_csv_header_and_digits(tmp_path, pendulum):
    plant, V = pendulum
    traj = with_storage(simulate(plant, (1.0, 0.5, 0.0, 0.0), InputSignal.zero(2),
                                 IntegratorConfig(step=0.25, t_end=1.0)), V)
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


def _simulate_oracle(sys, x0, signal, cfg, field=None):
    step = cfg.step
    n_steps = int(round(cfg.t_end / step))
    if abs(n_steps * step - cfg.t_end) > 1e-9 * max(1.0, cfg.t_end):
        n_steps = int(math.floor(cfg.t_end / step))
    times = np.arange(n_steps + 1) * step
    states = np.empty((n_steps + 1, sys.n_states))
    inputs = np.empty((n_steps + 1, sys.n_io))
    outputs = np.empty((n_steps + 1, sys.n_io))
    storage = np.empty(n_steps + 1) if field is not None else None
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
            storage[k] = field.value(x)
        if k == n_steps:
            break
        k1 = np.asarray(f(x, v), dtype=float)
        v_half = signal.value(t + 0.5 * step)
        v_full = signal.value(t + step)
        k2 = np.asarray(f(x + (0.5 * step) * k1, v_half), dtype=float)
        k3 = np.asarray(f(x + (0.5 * step) * k2, v_half), dtype=float)
        k4 = np.asarray(f(x + step * k3, v_full), dtype=float)
        if not (np.isfinite(k1).all() and np.isfinite(k2).all()
                and np.isfinite(k3).all() and np.isfinite(k4).all()):
            diagnostic = f"non-finite stage derivative at t = {t:.6g}"
            last = k
            break
        x = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
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


def _float_ring(n, cap=math.inf):
    """n float-form states on a ring, ``x_i' = x_{i+1} - 0.3 x_i + sin(x_{i-1}) / 4``
    plus u on the first; it grows, and past ``|x_1| = cap`` every rate is infinite."""
    def f(x, u):
        if abs(x[0]) > cap:
            return [math.inf] * n
        return [x[(i + 1) % n] - 0.3 * x[i] + 0.25 * math.sin(x[i - 1]) + (u[0] if i == 0 else 0.0)
                for i in range(n)]

    return NonlinearSystem.from_floats(n, 1, f, lambda x: [x[0]])


def _clock_until(knot):
    """x1' = x2, x2' = 0 and x3' = u - x3: from x2 = 1 on a grid of step 2^-10,
    x1 is exactly t.  Every rate is infinite past x1 = (knot + 3/4) step: the
    last stage of the step from ``knot`` sees x1 = (knot + 1) step, so that step
    truncates the run."""
    cap = (knot + 0.75) * 2.0 ** -10
    return NonlinearSystem.from_floats(
        3, 1, lambda x, u: (x[1], 0.0, u[0] - x[2]) if x[0] < cap else (math.inf,) * 3,
        lambda x: (x[2],))


def _switch_between_step_ends(step, p):
    """A square wave on ``p`` channels and a knot k where ``(k - 1) * step + step``,
    the time the step before k ends at, is not ``k * step`` bitwise, and the wave
    takes different values at the two: a step must not reuse its end value there."""
    for k in range(1, 10 ** 5):
        t, t_end = k * step, (k - 1) * step + step
        if t == t_end:
            continue
        period = 2.0 * max(t, t_end)  # sin(2 pi t / period) is about sin(pi) here
        for _ in range(64):
            wave = InputSignal.square_wave(p, 0, 2.0, period)
            if wave._floats(t) != wave._floats(t_end):
                return wave, k
            period = math.nextafter(period, math.inf)
    raise AssertionError(f"no such wave for step {step}")


def test_simulate_matches_the_per_stage_check_loop_bitwise(pendulum):
    plant, V = pendulum
    x0 = (1.0, 0.5, 0.0, 0.0)
    square = InputSignal.square_wave(2, 0, 2.0, 3.0)   # switches at 1.5 s and 3 s, on the grid
    between, k_between = _switch_between_step_ends(7e-4, 2)
    constant = InputSignal.constant([0.3, -0.2])
    hamiltonian = make_rotation_hamiltonian(omega=2.0, r=0.5)
    listed = NonlinearSystem(2, 1, lambda x, u: [x[1], -x[0] - 0.5 * x[1] + u[0]],
                             lambda x: x[:1].copy())
    cases = [  # (label, system, x0, signal, config, storage[, oracle system and storage])
        ("square", plant, x0, square, IntegratorConfig(step=1e-3, t_end=4.0), V),
        ("square, no storage", plant, x0, square, IntegratorConfig(step=1e-3, t_end=4.0), None),
        # switches inside a step, where the stage inputs at t + step/2 and t + step differ
        ("square, off grid", plant, x0, square, IntegratorConfig(step=7e-4, t_end=4.0), V),
        # a knot whose time is not the last step's end bitwise, and the wave switches between
        ("square, switch between a step's end and the next knot", plant, x0, between,
         IntegratorConfig(step=7e-4, t_end=(k_between + 3) * 7e-4), V),
        ("zero", plant, x0, InputSignal.zero(2), IntegratorConfig(step=1e-3, t_end=0.5), V),
        ("constant", plant, x0, constant, IntegratorConfig(step=1e-3, t_end=0.5), None),
        _closed_loop_cases("pendulum-stabilize", InputSignal.zero(2), 5.0),
        _closed_loop_cases("pendulum-sync", get_scenario("pendulum-sync").signal, 4.0),
        _closed_loop_cases("linear-b", InputSignal.zero(2), 2.0),
        ("hamiltonian", hamiltonian, (1.0, -0.5), InputSignal.constant([0.25]),
         IntegratorConfig(step=1e-3, t_end=2.0), make_rotation_hamiltonian().H),
        ("list-valued f", listed, (1.0, 0.0), InputSignal.square_wave(1, 0, 1.0, 1.0),
         IntegratorConfig(step=1e-3, t_end=2.0), None),
    ]
    cases += [  # an inf stage, and finite stages whose step overflows the state
        ("inf stage", _inf_past_half(), [0.1], InputSignal.zero(1),
         IntegratorConfig(step=1e-3, t_end=2.0), None),
        ("overflow", _huge_rate(), [1.0], InputSignal.constant([1.0]),
         IntegratorConfig(step=0.5, t_end=3.0), ScalarField(1, lambda x: float(x[0]))),
        # finite states whose sum overflows: the finiteness test must not truncate here
        ("huge finite states", NonlinearSystem.from_floats(
            2, 1, lambda x, u: (-1e-3 * x[0], u[0] - 1e-3 * x[1]), lambda x: (x[0],)),
         (1.5e308, 1.5e308), InputSignal.zero(1), IntegratorConfig(step=1e-2, t_end=0.1), None),
    ]
    for n in (3, 16):  # kernels that no model above generates: odd, and wide
        ring, capped = _float_ring(n), _float_ring(n, cap=2.0)
        square_sum = ScalarField.from_floats(n, lambda x: sum(z * z for z in x))
        cases += [
            (f"ring {n}", ring, [0.1 * (-1) ** i for i in range(n)],
             InputSignal.square_wave(1, 0, 1.0, 1.0), IntegratorConfig(step=1e-3, t_end=2.0),
             square_sum),
            (f"ring {n} truncated", capped, [0.1] * n, InputSignal.zero(1),
             IntegratorConfig(step=1e-2, t_end=20.0), None),
        ]
    knots = {}  # label -> the number of knots the run records
    # runs either side of a chunk of _CHUNK steps, forced and unforced, with and without W
    for n_steps in (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK):
        chunk_cfg = IntegratorConfig(step=2.0 ** -10, t_end=n_steps * 2.0 ** -10)
        for signal in (square, InputSignal.zero(2)):
            for field in (V, None):
                label = f"{n_steps} steps, {signal.kind}, storage {field is not None}"
                knots[label] = n_steps + 1
                cases.append((label, plant, x0, signal, chunk_cfg, field))
    # truncations at the first and the last knot of the first, second and final chunk
    for knot in (0, _CHUNK - 1, _CHUNK, 2 * _CHUNK - 1):
        for signal, field in ((InputSignal.zero(1), None),
                                (InputSignal.square_wave(1, 0, 1.0, 0.5), ScalarField(
                                    3, lambda x: float(x[2] * x[2]), name="x3^2"))):
            label = f"truncated at knot {knot}, {signal.kind}"
            knots[label] = knot + 1
            cases.append((label, _clock_until(knot), (0.0, 1.0, 0.5), signal,
                          IntegratorConfig(step=2.0 ** -10, t_end=2 * _CHUNK * 2.0 ** -10),
                          field))
    diagnostics = set()
    for label, sys, start, signal, cfg, field, *oracle in cases:
        oracle_sys, oracle_field = oracle[0] if oracle else (sys, field)
        with np.errstate(over="ignore", invalid="ignore"):
            got = simulate(sys, start, signal, cfg)
            got = got if field is None else with_storage(got, field)
            want = _simulate_oracle(oracle_sys, start, signal, cfg, field=oracle_field)
        for field in ("times", "states", "inputs", "outputs"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (label, field)
        assert (got.storage is None) == (want.storage is None), label
        if want.storage is not None:
            assert np.array_equal(got.storage, want.storage), label
        assert got.diagnostic == want.diagnostic, label
        if label in knots:
            assert got.n_samples == knots[label], label
        if label == "huge finite states":
            assert want.diagnostic is None, label
        if "ring" in label:
            assert (want.diagnostic is not None) == label.endswith("truncated"), label
        diagnostics.add(want.diagnostic and want.diagnostic.split(" = ")[0])
    assert diagnostics == {None, "non-finite stage derivative at t",
                           "non-finite state after the step from t"}
    # at that knot the record holds the wave's value at k * step, not at the last step's end
    got = simulate(plant, x0, between, IntegratorConfig(step=7e-4, t_end=(k_between + 3) * 7e-4))
    assert got.inputs[k_between, 0] == between._floats(k_between * 7e-4)[0]
    assert got.inputs[k_between, 0] != between._floats((k_between - 1) * 7e-4 + 7e-4)[0]
    # the ring runs built one loop per shape and input kind; a second run reuses that object
    shape = (16, 1, False, None)  # no part of a ring has a source
    loop, built = sim._rk4_loop(*shape), sim._rk4_loop.cache_info().misses
    simulate(_float_ring(16), [0.1] * 16, InputSignal.zero(1), IntegratorConfig(1e-3, 0.01))
    assert sim._rk4_loop.cache_info().misses == built
    assert sim._rk4_loop(*shape) is loop


def _canonical_bits(values):
    """Float values as bit patterns, every NaN made one (see ``_bits`` in test_sysmodel.py)."""
    a = np.array(values, dtype=float)
    a[np.isnan(a)] = math.nan
    return a.view(np.uint64).tolist()


def _run_bits(traj):
    """Every array of a run as bit patterns (``_canonical_bits``), and its diagnostic."""
    return [_canonical_bits(getattr(traj, label)) for label in (
        "times", "states", "inputs", "outputs", "storage")], traj.diagnostic


@pytest.mark.parametrize("name", ["pendulum-sync", "pendulum-stabilize"])
def test_fused_runs_are_the_composed_runs_bitwise(name):
    (plant, V, closed, W), (plant_ref, V_ref, closed_ref, W_ref) = fused_and_composed(name)
    box = get_scenario(name).box
    starts = [*nishape.halton_box_samples(box, 3, 21).tolist(),
              (-0.0, 0.0, -0.0, -0.0),  # the equilibrium, signed zeros kept or not by each sum
              (0.0, 0.0, 8e307, 0.0),    # finite stages whose sum overflows the state
              (1e308, -1e308, 1e308, -1e308)]  # sin raises at the inf stage: the retry path
    cfg = IntegratorConfig(step=1e-3, t_end=1.5)  # more than one chunk of steps
    diagnostics = set()
    for signal in (InputSignal.zero(2), InputSignal.square_wave(2, 0, 2.0, 1.0)):
        for sys, field, sys_ref, field_ref in ((plant, V, plant_ref, V_ref),
                                               (closed, W, closed_ref, W_ref),
                                               (closed, None, closed_ref, None)):
            for x0 in starts:
                with np.errstate(all="ignore"):
                    got, want = simulate(sys, x0, signal, cfg), simulate(sys_ref, x0, signal, cfg)
                    if field is not None:
                        got, want = with_storage(got, field), with_storage(want, field_ref)
                assert _run_bits(got) == _run_bits(want), (sys.name, signal.kind, x0)
                diagnostics.add(got.diagnostic and got.diagnostic.split(" = ")[0])
    assert diagnostics == {None, "non-finite stage derivative at t",
                           "non-finite state after the step from t"}


@pytest.mark.parametrize("name", ["linear-a", "linear-b", "pendulum-stabilize", "pendulum-sync"])
def test_values_on_a_record_are_the_field_at_each_knot_bitwise(name):
    sc = get_scenario(name)
    plant, V, nl, W = scenarios._build_parts(sc)
    closed = make_closed_loop(plant, nl)
    cfg = IntegratorConfig(step=sc.config.step, t_end=2 * _CHUNK * sc.config.step)
    starts = [sc.x0] + ([(1e308, -1e308, 1e308, -1e308)] if plant.n_states == 4 else [])
    for x0 in starts:
        for sys, signal, field in ((plant, sc.signal, V), (closed, sc.signal, W),
                                   (closed, InputSignal.zero(plant.n_io), W)):
            with np.errstate(all="ignore"):
                traj = simulate(sys, x0, signal, cfg)
                stored = with_storage(traj, field)
                want = _canonical_bits([field.value_floats(x) for x in traj.states.tolist()])
                # records of one chunk and of one knot past it (the run: two chunks and a knot)
                heads = [field.values(traj.states[:n]) for n in (_CHUNK, _CHUNK + 1)]
                last = field.values(traj.states[-1])  # a lone point is one row
            assert _canonical_bits(stored.storage) == want, sys.name
            assert _canonical_bits(last) == want[-1:], sys.name
            assert [_canonical_bits(head) for head in heads] == [want[:_CHUNK], want[:_CHUNK + 1]]
            if x0 == sc.x0:
                assert traj.n_samples == 2 * _CHUNK + 1, sys.name
            else:  # one knot, whose W reads inf through sq's retry at an overflow
                assert traj.n_samples == 1 and traj.diagnostic is not None
                if field is W:
                    assert stored.storage.tolist() == [math.inf]


def test_values_call_a_sourceless_field_once_per_row():
    plant, _ = scenarios.build_pendulum()
    cfg = IntegratorConfig(step=1e-3, t_end=1.5)
    traj = simulate(plant, (0.5, -0.5, 0.0, 0.0), InputSignal.zero(2), cfg)
    assert traj.n_samples == cfg.n_steps + 1 > _CHUNK  # rows of more than one chunk
    calls = []
    counted = ScalarField.from_floats(4, lambda x: calls.append(list(x)) or 0.0)
    calls.clear()  # the field's check at the origin
    storage = with_storage(traj, counted).storage
    assert len(calls) == traj.n_samples and storage.tolist() == [0.0] * traj.n_samples
    assert calls == traj.states.tolist()


def _spliced_and_sourceless(f_source):
    """A one-state system whose ``f`` and ``h`` are sources, and its twin that calls them."""
    f = nishape.float_form(f_source)
    h = nishape.float_form("def h(x):\n    a, = x\n    return (a,)")
    return [NonlinearSystem.from_floats(1, 1, f, h),
            NonlinearSystem.from_floats(1, 1, sourceless(f), sourceless(h))]


def test_a_retry_resumes_at_its_knot_in_the_middle_of_a_chunk():
    # x' = x^2 from 0.5 blows up at t = 2: a * a overflows, and sin first meets the
    # infinity at stage b of knot 2002, in the middle of the second chunk. The retry
    # goes on from that knot; one that restarts the chunk or the run records more knots
    spliced, twin = _spliced_and_sourceless(
        "def f(x, u):\n    a, = x\n    b, = u\n    return (a * a + 0.0 * sin(a) + b,)")
    cfg = IntegratorConfig(step=1e-3, t_end=3.0)
    with np.errstate(all="ignore"):
        got, want = (simulate(sys, (0.5,), InputSignal.zero(1), cfg) for sys in (spliced, twin))
    assert _CHUNK < 2002 < 2 * _CHUNK
    assert got.n_samples == 2003
    assert got.diagnostic == "non-finite stage derivative at t = 2.002"
    assert _run_bits(got) == _run_bits(want)


def test_h_runs_once_per_knot_after_the_integration():
    # the step loop integrates f alone; the outputs are one pass of h over the record
    calls = []
    plant = NonlinearSystem.from_floats(
        1, 1, lambda x, u: calls.append("f") or (x[0] * x[0] + u[0],),
        lambda x: calls.append(tuple(x)) or (x[0],))
    # x' = x^2: from 0.1 a whole run, from 0.5 a blow-up at t = 2; both past one chunk
    for x0, t_end, n_knots in ((0.1, 1.5, 1501), (0.5, 3.0, 2003)):
        calls.clear()  # the constructor's probes at the origin
        with np.errstate(all="ignore"):
            traj = simulate(plant, (x0,), InputSignal.zero(1), IntegratorConfig(1e-3, t_end))
        assert traj.n_samples == n_knots > _CHUNK
        assert (traj.diagnostic is None) == (n_knots == 1501)
        f_calls = [i for i, call in enumerate(calls) if call == "f"]
        h_calls = calls[f_calls[-1] + 1:]
        assert len(f_calls) + len(h_calls) == len(calls)  # every h call after the last f call
        assert h_calls == [tuple(x) for x in traj.states.tolist()]
        assert traj.outputs.tolist() == traj.states.tolist()


def test_an_error_that_is_not_an_infinity_raises_through_the_retry():
    # sqrt(-1) raises ValueError in the loop and again in its at-infinity copy
    messages = []
    for sys in _spliced_and_sourceless(
            "def f(x, u):\n    a, = x\n    b, = u\n    return (sqrt(1.0 + a) - 1.0 + b,)"):
        with pytest.raises(ValueError) as raised:
            simulate(sys, (-2.0,), InputSignal.zero(1), IntegratorConfig(step=1e-3, t_end=1.0))
        messages.append(str(raised.value))
    assert messages[0] == messages[1]


def _csv_block(rng, n_rows, width, specials):
    """Random float64 bit patterns of either sign, led by the special values."""
    block = rng.integers(0, 2 ** 64, size=(n_rows, width), dtype=np.uint64).view(np.float64)
    block.flat[:specials.size] = specials[:block.size]
    return block


def test_trajectory_csv_matches_the_per_value_writer_bytewise(tmp_path):
    rng = np.random.default_rng(7)
    specials = np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324,
                         1.7976931348623157e308, 0.1, -1e-300])
    hard = g17_hard_values(rng)
    for with_storage in (False, True):
        width = 7 + with_storage  # the columns after t
        chunk = sim._CSV_VALUES // (width + 1)  # rows written per chunk
        # one row, either side of one and two chunks, and every hard value
        for n_rows in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1, -(-hard.size // width)):
            lead = np.concatenate([specials, np.roll(hard, rng.integers(hard.size))])
            table = _csv_block(rng, n_rows, width, lead)
            traj = Trajectory(times=np.arange(n_rows) * 1e-3, states=table[:, :3],
                              inputs=table[:, 3:5], outputs=table[:, 5:7],
                              storage=table[:, 7] if with_storage else None)
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            write_trajectory_csv(traj, got)
            _write_csv_oracle(traj, want)
            assert got.read_bytes() == want.read_bytes(), (n_rows, with_storage)


def test_csv_writer_peak_memory_stays_within_one_chunk(tmp_path):
    # the writer formats a fixed number of values at a time, so its peak does not
    # grow with the table: 30,001 rows of 10 columns peak as 3,001 rows do
    rng = np.random.default_rng(3)
    peaks = []
    for n_rows in (3_001, 30_001):
        table = rng.standard_normal((n_rows, 9)) * 10.0 ** rng.integers(-5, 5, 9)
        traj = Trajectory(times=np.arange(n_rows) * 1e-3, states=table[:, :4],
                          inputs=table[:, 4:6], outputs=table[:, 6:8], storage=table[:, 8])
        tracemalloc.start()
        try:
            write_trajectory_csv(traj, tmp_path / "traj.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 600_000, peaks  # about 120 B per value of one chunk
    assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0], peaks


def test_simulate_raises_on_an_output_or_rate_of_the_wrong_length():
    # each is right at the origin, where the constructor probes it, one entry
    # short for x1 in [0.8, 0.9) and one too long for x1 in (0.5, 0.8): a flat
    # buffer keeps its length over such a pair and would shift every row between
    def ragged(right, x):
        if 0.8 <= x[0] < 0.9:
            return right[:-1]
        return right + (0.0,) if 0.5 < x[0] < 0.8 else right

    decay = lambda x, u: (-x[0], u[0] - x[1])
    cases = {
        "h": NonlinearSystem.from_floats(2, 1, decay, lambda x: ragged((x[1],), x)),
        "f": NonlinearSystem.from_floats(2, 1, lambda x, u: ragged(decay(x, u), x),
                                         lambda x: (x[1],)),
    }
    cfg = IntegratorConfig(step=1e-2, t_end=1.0)  # x1 = exp(-t) passes 0.9 and 0.8
    for label, sys in cases.items():
        for signal in (InputSignal.zero(1), InputSignal.square_wave(1, 0, 1.0, 0.5)):
            # f's rates are unpacked in the step loop; h's rows are stacked by numpy after it
            with pytest.raises(ValueError, match="values to unpack" if label == "f" else None):
                simulate(sys, (1.0, 0.0), signal, cfg)
            simulate(sys, (1.0, 0.0), signal, IntegratorConfig(step=1e-2, t_end=0.1))
    # an h one entry too long at every point but the origin: its rows are all of one length
    long_h = NonlinearSystem.from_floats(2, 1, decay, lambda x: (x[1],) + (0.0,) * any(x))
    with pytest.raises(ValueError):
        simulate(long_h, (1.0, 0.0), InputSignal.zero(1), IntegratorConfig(step=1e-2, t_end=0.1))
    # the stacked gradients and the shaped storage's stacked outputs raise too
    field = ScalarField.from_floats(2, lambda x: 0.0, lambda x: ragged((0.0, 0.0), x))
    points = np.array([[1.0, 0.0], [0.85, 0.0], [0.6, 0.0]])
    with pytest.raises(ValueError):
        field.gradients(points)
    assert field.gradients(points[:1]).tolist() == [[0.0, 0.0]]
    quadratic = ScalarField.from_floats(1, lambda y: 0.5 * y[0] * y[0], lambda y: (y[0],))
    W = make_shaped_storage(ScalarField.from_floats(2, lambda x: 0.0, lambda x: (0.0, 0.0)),
                            quadratic, cases["h"].h, 2, h_jacobian=[[0.0, 1.0]])
    with pytest.raises(ValueError):
        W.gradients(points)
    assert W.gradients(points[:1]).tolist() == [[0.0, 0.0]]
