"""Deterministic fixed-step ODE simulation with signal generators,
trajectory recording, and storage monitoring.

The integrator is classical RK4 at a fixed step (Euler exists only for
convergence cross-checks).  No adaptivity and no event location: trajectories
are bitwise reproducible for identical arguments, and the square-wave
scenarios are run with steps that put the switch times exactly on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .sysmodel import NonlinearSystem, Report, ScalarField


@dataclass(frozen=True)
class IntegratorConfig:
    step: float
    t_end: float
    method: str = "RK4"
    MAX_STEPS: ClassVar[int] = 10 ** 7  # a pendulum run: 0.8 GB, held by its Trajectory

    def __post_init__(self):
        if not (0.0 < self.step < math.inf):
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if not (self.step <= self.t_end < math.inf):
            raise ValueError(f"t_end must be finite and at least the step, got {self.t_end}")
        if not self.t_end / self.step < math.inf or self.n_steps > self.MAX_STEPS:
            raise ValueError(f"t_end / step must be finite and at most {self.MAX_STEPS}, "
                             f"got {self.t_end} / {self.step}")
        if self.method not in ("RK4", "Euler"):
            raise ValueError(f"unknown integration method {self.method!r}")

    @property
    def n_steps(self) -> int:
        """``t_end / step`` rounded, or floored where rounding overshoots ``t_end``."""
        n_steps = int(round(self.t_end / self.step))
        if abs(n_steps * self.step - self.t_end) > 1e-9 * max(1.0, self.t_end):
            n_steps = int(math.floor(self.t_end / self.step))
        return n_steps


_CHUNK = 1024  # knots buffered as Python floats between writes into the record


def square_wave_value(t: float, amplitude: float, period: float) -> float:
    """``amplitude * sgn(sin(2 pi t / period))`` with ``sgn(0) := +1``."""
    if period <= 0.0:
        raise ValueError(f"period must be positive, got {period}")
    return amplitude if math.sin(2.0 * math.pi * t / period) >= 0.0 else -amplitude


@dataclass(frozen=True)
class InputSignal:
    """Exogenous input: zero, a constant vector, or a square wave on exactly
    one channel (all other channels held at zero)."""

    kind: str
    p: int
    vector: tuple = ()
    channel: int = 0
    amplitude: float = 0.0
    period: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "square_wave"):
            raise ValueError(f"unknown signal kind {self.kind!r}")
        if self.p < 1:
            raise ValueError(f"signal dimension must be positive, got {self.p}")
        if self.kind == "constant" and len(self.vector) != self.p:
            raise ValueError("constant signal needs a vector of matching dimension")
        if self.kind == "square_wave":
            if not (0 <= self.channel < self.p):
                raise ValueError(f"channel {self.channel} out of range for p = {self.p}")
            if self.period <= 0.0:
                raise ValueError(f"period must be positive, got {self.period}")

    @staticmethod
    def zero(p: int) -> "InputSignal":
        return InputSignal("zero", int(p))

    @staticmethod
    def constant(vector) -> "InputSignal":
        vec = tuple(float(s) for s in vector)
        return InputSignal("constant", len(vec), vector=vec)

    @staticmethod
    def square_wave(p: int, channel: int, amplitude: float, period: float) -> "InputSignal":
        return InputSignal("square_wave", int(p), channel=int(channel),
                           amplitude=float(amplitude), period=float(period))

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    def value(self, t: float) -> np.ndarray:
        return np.array(self._floats(t))

    def _floats(self, t: float) -> list:
        if self.kind == "constant":
            return list(self.vector)
        v = [0.0] * self.p
        if self.kind == "square_wave":
            v[self.channel] = square_wave_value(t, self.amplitude, self.period)
        return v


def _read_only(a) -> np.ndarray:
    """``a`` as a read-only float64 array: taken as it is when nothing can
    write to it, copied otherwise (so a caller's array can change afterwards)."""
    if (isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable
            and (a.base is None or (isinstance(a.base, np.ndarray)
                                    and not a.base.flags.writeable))):
        return a
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled simulation record; arrays are read-only.

    ``inputs`` holds the exogenous signal v at each knot.  ``storage`` is the
    optional monitored field, ``diagnostic`` is set when the integration was
    truncated by a non-finite value.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray
    storage: Optional[np.ndarray] = None
    diagnostic: Optional[str] = None

    def __post_init__(self):
        times, states, inputs, outputs = (_read_only(a) for a in (
            self.times, self.states, self.inputs, self.outputs))
        storage = None if self.storage is None else _read_only(self.storage)
        n_knots = times.size
        if n_knots < 1:
            raise ValueError("trajectory needs at least one sample")
        for label, arr in (("states", states), ("inputs", inputs), ("outputs", outputs)):
            if arr.ndim != 2 or arr.shape[0] != n_knots:
                raise ValueError(f"{label} must have one row per knot")
        if storage is not None and storage.shape != (n_knots,):
            raise ValueError("storage must have one value per knot")
        if n_knots >= 2:
            dt = times[1] - times[0]
            if dt <= 0.0:
                raise ValueError("times must be strictly increasing")
            spacing = np.diff(times)  # the one temporary of the check, worked in place
            spacing -= dt
            if np.max(np.abs(spacing, out=spacing)) > 1e-9 * dt:
                raise ValueError("time grid must be uniform")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "storage", storage)

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0]) if self.times.size > 1 else 0.0


def simulate(sys: NonlinearSystem, x0, signal: InputSignal, cfg: IntegratorConfig,
             monitor: Optional[ScalarField] = None) -> Trajectory:
    """Integrate ``sys`` from ``x0`` under ``signal``.

    The step loop runs on the float forms of the system and the monitor
    (lists of Python floats), in numpy's operation order, so a run is bitwise
    the run of the same loop on numpy vectors.  RK4 holds the input at its
    stage-time values (a square wave is evaluated at t, t + step/2 and
    t + step; a zero or constant input is evaluated once).  ``monitor`` is
    sampled at the knots into the storage channel.  A non-finite stage
    derivative or state truncates the trajectory and attaches a diagnostic
    instead of propagating NaNs; one finiteness check on the new state per
    step detects both.  Knots are written into the record in chunks of
    ``_CHUNK``, so no whole-run list of Python floats is built.
    """
    x0 = np.array(x0, dtype=float)
    if x0.shape != (sys.n_states,) or not np.isfinite(x0).all():
        raise ValueError(f"x0 must be a finite vector of length {sys.n_states}, got {x0}")
    if signal.p != sys.n_io:
        raise ValueError(f"signal dimension {signal.p} != system input dimension {sys.n_io}")
    if monitor is not None and monitor.dim != sys.n_states:
        raise ValueError(f"monitor dimension {monitor.dim} != state dimension {sys.n_states}")

    step, n_steps = cfg.step, cfg.n_steps
    times = np.arange(n_steps + 1, dtype=float)
    times *= step  # bitwise k * step
    states = np.empty((n_steps + 1, sys.n_states))
    inputs = np.empty((n_steps + 1, sys.n_io))
    outputs = np.empty((n_steps + 1, sys.n_io))
    storage = np.empty(n_steps + 1) if monitor is not None else None
    xs, vs, ys, ws = rows = ([], [], [], [])  # states, inputs, outputs, storage not yet written

    def flush(end):
        start = end - len(xs)
        for arr, buffered in zip((states, inputs, outputs, storage), rows):
            if buffered:
                arr[start:end] = buffered
                buffered.clear()

    f, h = sys.f_floats, sys.h_floats
    w = None if monitor is None else monitor.value_floats
    rk4 = cfg.method == "RK4"
    forced = signal.kind == "square_wave"
    value = signal._floats
    half, sixth = 0.5 * step, step / 6.0
    x = x0.tolist()
    v = v_half = v_full = value(0.0)  # held for a zero or constant input
    diagnostic = None
    for k in range(n_steps + 1):
        t = k * step  # bitwise times[k], as a Python float
        if forced:
            v = value(t)
        xs.append(x)
        vs.append(v)
        ys.append(h(x))
        if w is not None:
            ws.append(w(x))
        if k == n_steps:
            break
        if len(xs) == _CHUNK:
            flush(k + 1)
        if rk4:
            if forced:
                v_half = value(t + 0.5 * step)
                v_full = value(t + step)
            k1 = f(x, v)
            k2 = f([a + half * b for a, b in zip(x, k1)], v_half)
            k3 = f([a + half * b for a, b in zip(x, k2)], v_half)
            k4 = f([a + step * b for a, b in zip(x, k3)], v_full)
            stages = (k1, k2, k3, k4)
            # numpy's x + (step / 6) * (k1 + 2 k2 + 2 k3 + k4), summed left to right
            x_new = [a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                     for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
        else:
            stages = (f(x, v),)
            x_new = [a + step * b for a, b in zip(x, stages[0])]
        # One check per step is exact: a NaN or inf in any stage reaches x_new,
        # since its weight (step or step / 6) is positive and 0 * inf is NaN
        # should the weight underflow.  All stages are evaluated before the
        # check, so no f call moves; they are re-checked only to word the
        # diagnostic, and the truncation point stays the same.
        if not all(map(math.isfinite, x_new)):
            if not all(math.isfinite(s) for stage in stages for s in stage):
                what = "stage derivative" if rk4 else "derivative"
                diagnostic = f"non-finite {what} at t = {t:.6g}"
            else:
                diagnostic = f"non-finite state after the step from t = {t:.6g}"
            break
        x = x_new

    n = k + 1  # the loop always breaks, at the last knot recorded
    flush(n)
    if n == n_steps + 1:  # the Trajectory takes a whole run's arrays without a copy
        for arr in (times, states, inputs, outputs, storage):
            if arr is not None:
                arr.setflags(write=False)
    return Trajectory(times=times[:n], states=states[:n], inputs=inputs[:n], outputs=outputs[:n],
                      storage=None if storage is None else storage[:n], diagnostic=diagnostic)


@dataclass(frozen=True, eq=False)
class MonitorDecayReport(Report):
    max_increase: float
    tolerance: float
    verdict: str  # "pass" | "fail" | "skipped"
    note: str = ""

    worst_fields = ("max_increase",)


def monitor_decay(traj: Trajectory) -> MonitorDecayReport:
    """Largest forward difference of the storage channel.

    Only meaningful on unforced segments, so a trajectory with any nonzero
    input is reported as skipped rather than judged.
    """
    if traj.storage is None:
        raise ValueError("trajectory has no storage channel to monitor")
    if np.any(traj.inputs != 0.0):
        return MonitorDecayReport(math.nan, math.nan, "skipped",
                                  note="forced segment: input is not identically zero")
    w = traj.storage
    tolerance = 1e-8 * (1.0 + float(np.max(np.abs(w))))
    if w.size < 2:
        return MonitorDecayReport(0.0, tolerance, "pass")
    max_increase = float(np.max(np.diff(w)))
    return MonitorDecayReport(max_increase, tolerance,
                              "pass" if max_increase <= tolerance else "fail")


@dataclass(frozen=True, eq=False)
class RefineReport(Report):
    err_coarse: float          # |x_h(T) - x_{h/2}(T)|
    err_fine: float            # |x_{h/2}(T) - x_{h/4}(T)|
    order: Optional[float]     # log2(err_coarse / err_fine)
    flags: tuple

    verdict: ClassVar[str] = "info"
    witness_fields = ("err_coarse", "err_fine")

    @property
    def worst_value(self):
        return math.nan if self.order is None else self.order


def refine_check(sys: NonlinearSystem, x0, signal: InputSignal,
                 cfg: IntegratorConfig) -> RefineReport:
    """Empirical integrator order from runs at step, step/2 and step/4.

    Reports the end-state Richardson differences and
    ``log2(e_h / e_{h/2})``; square-wave inputs are flagged since the
    discontinuity degrades the observed order.
    """
    flags = []
    if signal.kind == "square_wave":
        flags.append("discontinuous input")
    trajectories = []
    for divisor in (1, 2, 4):
        sub_cfg = IntegratorConfig(step=cfg.step / divisor, t_end=cfg.t_end, method=cfg.method)
        trajectories.append(simulate(sys, x0, signal, sub_cfg))
    if any(t.diagnostic is not None for t in trajectories):
        flags.append("truncated")
        return RefineReport(math.nan, math.nan, None, tuple(flags))
    end_h, end_h2, end_h4 = (t.states[-1] for t in trajectories)
    err_coarse = float(np.linalg.norm(end_h - end_h2))
    err_fine = float(np.linalg.norm(end_h2 - end_h4))
    order = None
    if err_coarse > 0.0 and err_fine > 0.0:
        order = math.log2(err_coarse / err_fine)
    return RefineReport(err_coarse, err_fine, order, tuple(flags))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with header ``t,x1..xn,v1..vp,y1..yp[,W]``, 17 significant digits."""
    n = traj.states.shape[1]
    p = traj.inputs.shape[1]
    columns = (["t"]
               + [f"x{i + 1}" for i in range(n)]
               + [f"v{i + 1}" for i in range(p)]
               + [f"y{i + 1}" for i in range(p)])
    if traj.storage is not None:
        columns.append("W")
    blocks = [traj.times[:, None], traj.states, traj.inputs, traj.outputs]
    if traj.storage is not None:
        blocks.append(traj.storage[:, None])
    # "%.17g" % v gives the bytes of format(v, ".17g"); rows are formatted in
    # chunks so that no whole-trajectory table of Python floats is built.
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, traj.n_samples, 128):
            chunk = np.hstack([b[start:start + 128] for b in blocks]).tolist()
            fh.write("".join(row % tuple(values) for values in chunk))
