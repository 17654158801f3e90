"""Built-in scenarios: the two-pendulum plant with its shaping feedbacks and
the diagonal/coupled linear examples, plus the pipeline that certifies and
simulates a scenario end to end and exports its artifacts.

State ordering for the pendulum is fixed globally as
``(theta1, theta2, omega1, omega2)`` so the output map is the projection onto
the first two coordinates.

The models are float forms written as source (:func:`nishape.sysmodel.float_form`),
their parameters bound as float literals: they unpack a sequence of Python
floats and compute the same IEEE operations as numpy scalars would, at a
fraction of the cost, and the compositions and the step loop splice them.
Where Python raises and numpy returns inf or nan, a square goes through
``sq``, and a form whose ``sin`` or ``cos`` raised on an infinity runs again
with numpy's nan there: results stay bitwise numpy's.  No division can meet
a zero divisor: ``delta * delta > 0`` keeps ``sqrt(e * e + delta * delta)`` positive.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .certify import (check_equilibrium_uniqueness, check_positive_definite,
                      dissipation_from_rates, epsilon_from_rates,
                      fmt_g17, halton_box_samples, hidden_motion_from_rates, rate_table,
                      report_line, write_reports_csv)
from .linear import SsniCertificate, check_minimal, check_ssni, dc_gain, to_nonlinear
from .sim import (_CSV_VALUES, InputSignal, IntegratorConfig, Trajectory, _write_g17_csv,
                  _g17_slots, monitor_decay, simulate, write_trajectory_csv)
from .sysmodel import (Check, LinearSystem, NonlinearSystem, ScalarField,
                       StaticNonlinearity, float_form, gradient_check, make_closed_loop,
                       make_shaped_storage, on_columns)


# ---------------------------------------------------------------------------
# Parameter sets


def _check_params(params, positive, nonnegative) -> None:
    """Reject a NaN, infinite or negative parameter, and a zero one in
    ``positive``: a NaN fails every comparison."""
    for label in positive + nonnegative:
        value = getattr(params, label)
        if not (0.0 < value < math.inf if label in positive else 0.0 <= value < math.inf):
            kind = "strictly positive" if label in positive else "nonnegative"
            raise ValueError(f"{label} must be {kind} and finite, got {value}")


@dataclass(frozen=True)
class PendulumParams:
    """Two pendulums on a common pivot: masses, rod lengths, hinge springs and
    dampers, a coupling spring/damper pair, and gravity (SI units)."""

    m1: float = 2.0
    m2: float = 1.5
    l1: float = 1.0
    l2: float = 1.0
    k1: float = 2.0
    k2: float = 1.0
    kc: float = 0.2
    d1: float = 0.5
    d2: float = 0.8
    dc: float = 1.5
    g: float = 9.81

    def __post_init__(self):
        _check_params(self, ("m1", "m2", "l1", "l2"), ("k1", "k2", "kc", "d1", "d2", "dc", "g"))


@dataclass(frozen=True)
class ShapingParams:
    """Coupling terms (beta quadratic, kappa/delta smoothed-absolute) and the
    log-cosh well-flattening terms (a, b)."""

    beta: float = 1.5
    kappa: float = 5.0
    delta: float = 0.1
    a: float = 5.0
    b: float = 3.0

    def __post_init__(self):
        _check_params(self, ("delta",), ("beta", "kappa", "a", "b"))
        if self.delta * self.delta == 0.0:
            raise ValueError("delta * delta underflows to zero")


# ---------------------------------------------------------------------------
# Pendulum plant and shaping feedbacks


def build_pendulum(params: PendulumParams = PendulumParams()):
    """The two-pendulum plant and its energy storage.

    Returns ``(system, V)`` with state (theta1, theta2, omega1, omega2),
    torque inputs (u1, u2), and outputs (theta1, theta2).  V is the coupling
    spring energy plus each pendulum's spring, kinetic and gravity terms,
    with an analytic gradient.
    """
    constants = dict(vars(params), m1l1=params.m1 * params.l1 ** 2,
                     m2l2=params.m2 * params.l2 ** 2, m1gl1=params.m1 * params.g * params.l1,
                     m2gl2=params.m2 * params.g * params.l2)
    if constants["m1l1"] == 0.0 or constants["m2l2"] == 0.0:
        raise ValueError("m * l**2 underflows to zero")
    f = float_form("""
        def f(x, u):
            th1, th2, w1, w2 = x
            u1, u2 = u
            e = th1 - th2
            de = w1 - w2
            return (w1, w2,
                    (-m1gl1 * sin(th1) - k1 * th1 - d1 * w1 - kc * e - dc * de + u1) / m1l1,
                    (-m2gl2 * sin(th2) - k2 * th2 - d2 * w2 + kc * e + dc * de + u2) / m2l2)
        """, **constants)
    h = float_form("""
        def h(x):
            th1, th2, w1, w2 = x
            return (th1, th2)
        """)
    v_value = float_form("""
        def v_value(x):
            th1, th2, w1, w2 = x
            return (0.5 * kc * sq(th1 - th2)
                    + 0.5 * k1 * sq(th1) + 0.5 * m1l1 * sq(w1) + m1gl1 * (1.0 - cos(th1))
                    + 0.5 * k2 * sq(th2) + 0.5 * m2l2 * sq(w2) + m2gl2 * (1.0 - cos(th2)))
        """, **constants)
    v_gradient = float_form("""
        def v_gradient(x):
            th1, th2, w1, w2 = x
            e = th1 - th2
            return (kc * e + k1 * th1 + m1gl1 * sin(th1), -kc * e + k2 * th2 + m2gl2 * sin(th2),
                    m1l1 * w1, m2l2 * w2)
        """, **constants)

    system = NonlinearSystem.from_floats(4, 2, f, h, h_jacobian=np.eye(2, 4),
                                         name="two-pendulum plant")
    V = ScalarField.from_floats(4, v_value, v_gradient, name="pendulum storage")
    return system, V


def _gradient_feedback(value: str, gradient: str, potential: str, name: str, channels=None,
                       **constants) -> StaticNonlinearity:
    """The feedback ``phi = grad F`` on two outputs, F the potential whose value and gradient
    are the float-form sources ``value`` and ``gradient``: phi is F's gradient form itself."""
    F = ScalarField.from_floats(2, float_form(value, **constants),
                                float_form(gradient, **constants), name=potential)
    return StaticNonlinearity.from_floats(2, F.gradient_floats, potential=F, channels=channels,
                                          name=name)


def build_sync_shaping(params: ShapingParams = ShapingParams()) -> StaticNonlinearity:
    """Synchronizing feedback: gradient of a coupling potential in the
    relative displacement ``e = y1 - y2`` (quadratic plus a smoothed
    absolute-value term that stays steep near e = 0)."""
    return _gradient_feedback("""
        def potential_value(y):
            y1, y2 = y
            e = y1 - y2
            return -beta * e * e - kappa * (sqrt(e * e + delta * delta) - delta)
        """, """
        def potential_gradient(y):
            y1, y2 = y
            e = y1 - y2
            g = -2.0 * beta * e - kappa * e / sqrt(e * e + delta * delta)
            return (g, -g)
        """, "coupling potential", "sync coupling", **vars(params))


def build_full_shaping(params: ShapingParams = ShapingParams()) -> StaticNonlinearity:
    """Synchronizing feedback plus per-output log-cosh terms that flatten the
    distant gravity wells, leaving a single minimum at the origin."""
    return _gradient_feedback("""
        def potential_value(y):
            y1, y2 = y
            e = y1 - y2
            return (-beta * e * e - kappa * (sqrt(e * e + delta * delta) - delta)
                    - a * log_cosh(b * y1) - a * log_cosh(b * y2))
        """, """
        def potential_gradient(y):
            y1, y2 = y
            e = y1 - y2
            g = -2.0 * beta * e - kappa * e / sqrt(e * e + delta * delta)
            return (g - a * b * tanh(b * y1), -g - a * b * tanh(b * y2))
        """, "well-flattening potential", "sync + well flattening", **vars(params))


# ---------------------------------------------------------------------------
# Scenario registry


@dataclass(frozen=True)
class Scenario:
    name: str
    build_plant: Callable[[], NonlinearSystem]
    build_storage: Callable[[], ScalarField]
    build_nonlinearity: Callable[[], StaticNonlinearity]
    x0: tuple
    signal: InputSignal
    config: IntegratorConfig
    box: tuple                      # per-axis (lo, hi) bounds for box checks
    assumes_output_observability: bool = False
    certificate: Optional[SsniCertificate] = None
    convergence_tol: Optional[float] = None  # claims global convergence to the origin
    pendulum: Optional[PendulumParams] = None
    shaping: Optional[ShapingParams] = None
    linear_case: Optional[str] = None
    description: str = ""


def _linear_example_system() -> LinearSystem:
    return LinearSystem(np.diag([-1.0, -2.0]), np.diag([1.0, 2.0]), np.eye(2))


def build_linear_example(case: str) -> Scenario:
    """The diagonal (case "a") and coupled (case "b") linear examples.

    Both share A = diag(-1, -2), B = diag(1, 2), C = I with storage
    ``V = |x|^2 / 2`` (Y = I) and start from (1, -2).
    """
    if case not in ("a", "b"):
        raise ValueError(f"unknown linear example case {case!r} (expected 'a' or 'b')")
    ls = _linear_example_system()
    cert = SsniCertificate(ls, np.eye(2))

    def storage():
        return ScalarField(2, lambda x: 0.5 * float(x @ x),
                           lambda x: np.array(x, dtype=float), name="V = |x|^2/2")

    if case == "a":
        def nonlinearity():
            return _gradient_feedback("""
                def potential_value(y):
                    y1, y2 = y
                    return 0.1 * sq(y1) - 0.25 * sq(y2)
                """, """
                def potential_gradient(y):
                    y1, y2 = y
                    return (0.2 * y1, -0.5 * y2)
                """, "sign-indefinite potential", "diagonal gains",
                channels=(lambda s: 0.2 * s, lambda s: -0.5 * s))

        t_end, description = 3.0, "diagonal feedback with sign-indefinite potential"
    else:
        def nonlinearity():
            return _gradient_feedback("""
                def potential_value(y):
                    y1, y2 = y
                    return cos(y1 - y2) - 1.0
                """, """
                def potential_gradient(y):
                    y1, y2 = y
                    return (sin(y2 - y1), sin(y1 - y2))
                """, "coupled potential", "coupled sine feedback")

        t_end, description = 10.0, "cross-coupled feedback"

    return Scenario(
        name=f"linear-{case}",
        build_plant=lambda: to_nonlinear(ls),
        build_storage=storage,
        build_nonlinearity=nonlinearity,
        x0=(1.0, -2.0),
        signal=InputSignal.zero(2),
        config=IntegratorConfig(step=1e-3, t_end=t_end),
        box=((-5.0, 5.0), (-5.0, 5.0)),
        certificate=cert,
        linear_case=case,
        description=description,
    )


def _pendulum_scenario(name: str, build_nl, signal: InputSignal, t_end: float,
                       convergence_tol, description: str) -> Scenario:
    pendulum = PendulumParams()
    shaping = ShapingParams()
    return Scenario(
        name=name,
        build_plant=lambda: build_pendulum(pendulum)[0],
        build_storage=lambda: build_pendulum(pendulum)[1],
        build_nonlinearity=lambda: build_nl(shaping),
        x0=(6.0, 4.5, 0.0, 0.0),
        signal=signal,
        config=IntegratorConfig(step=1e-3, t_end=t_end),
        box=((-8.0, 8.0),) * 4,
        assumes_output_observability=True,
        convergence_tol=convergence_tol,
        pendulum=pendulum,
        shaping=shaping,
        description=description,
    )


REGISTRY = {sc.name: sc for sc in (
    build_linear_example("a"),
    build_linear_example("b"),
    _pendulum_scenario("pendulum-sync", build_sync_shaping,
                       InputSignal.square_wave(2, channel=0, amplitude=2.0, period=3.0),
                       t_end=30.0, convergence_tol=None,
                       description="enhanced coupling under a square-wave torque"),
    _pendulum_scenario("pendulum-stabilize", build_full_shaping, InputSignal.zero(2),
                       t_end=50.0, convergence_tol=1e-2,
                       description="well flattening for global convergence to the origin"),
)}


def scenario_names():
    return sorted(REGISTRY)


def get_scenario(name: str) -> Scenario:
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; available: {', '.join(scenario_names())}")


def scenario_config(name: str) -> dict:
    """JSON-ready dump of a scenario's parameters and defaults."""
    sc = get_scenario(name)
    payload = {
        "name": sc.name,
        "description": sc.description,
        "x0": list(sc.x0),
        "signal": dataclasses.asdict(sc.signal) | {"vector": list(sc.signal.vector)},
        "integrator": dataclasses.asdict(sc.config) | {"method": sc.config.method},
        "box": [list(b) for b in sc.box],
        "assumes_output_observability": sc.assumes_output_observability,
    }
    if sc.pendulum is not None:
        payload["pendulum"] = dataclasses.asdict(sc.pendulum)
    if sc.shaping is not None:
        payload["shaping"] = dataclasses.asdict(sc.shaping)
    if sc.linear_case is not None:
        ls = sc.certificate.sys
        payload.update(linear_case=sc.linear_case, A=ls.A.tolist(), B=ls.B.tolist(),
                       C=ls.C.tolist(), Y=sc.certificate.Y.tolist())
    return payload


# ---------------------------------------------------------------------------
# Potential-surface export and grid minima scan

MAX_SURFACE_POINTS = 2001  # the grid and its 8 stacked neighbour grids take about 290 MB


@dataclass(frozen=True, eq=False)
class SurfaceGrid:
    """A field's values on a square grid, ``values[i, j]`` at
    ``(axis[i], axis[j])``, and the grid's strict local minima."""

    field: ScalarField
    axis: np.ndarray
    values: np.ndarray
    minima: tuple          # (theta1, theta2) grid locations of strict minima
    n_plateau: int
    degenerate: bool       # every interior cell ties with its neighborhood minimum
    path: Optional[str]    # the CSV written, if any


def export_potential_surface(field: ScalarField, path=None, half_range: float = 8.0,
                             points: int = 161, base: Optional[SurfaceGrid] = None) -> SurfaceGrid:
    """Evaluate the field's displacement restriction on a square grid and
    scan for strict local minima.

    A 4-dimensional field is restricted to ``(theta1, theta2, 0, 0)``; a
    2-dimensional field is evaluated directly.  The scan uses a strict
    8-neighbor comparison on interior cells; plateau cells (tied with their
    neighborhood minimum) are flagged but never counted, and an all-plateau
    interior marks the grid as degenerate.  When ``path`` is given the grid
    is written as a (theta1, theta2, value) CSV.  A shaped ``field`` (``W = V - S``
    of :func:`make_shaped_storage`) given ``base``, the grid of its V on the same
    axis, takes ``base.values`` minus S's grid: W's own subtraction at every cell.
    """
    if not 3 <= points <= MAX_SURFACE_POINTS:
        raise ValueError(f"grid needs 3 to {MAX_SURFACE_POINTS} points per axis, got {points}")
    if not (0.0 < half_range and 2.0 * half_range < math.inf):
        raise ValueError(f"half_range must be positive with a finite double, got {half_range}")
    if field.dim not in (2, 4):
        raise ValueError(f"field dimension {field.dim} is not supported (need 2 or 4)")
    pad = (0.0,) * (field.dim - 2)

    axis = np.linspace(-half_range, half_range, points)
    if base is not None and not (base.field is getattr(field, "storage", None)
                                 and np.array_equal(base.axis, axis)):
        raise ValueError("base must be the grid of the shaped field's storage on the same axis")
    value = field.value_floats if base is None else field.shaping.value_floats
    values = np.empty((points, points))
    rows = max(1, _CSV_VALUES // points)  # a block of rows at a time, on columns
    for i in range(0, points, rows):
        values[i:i + rows] = on_columns(value, (axis[i:i + rows, None], axis[None, :]) + pad)
    if base is not None:
        np.subtract(base.values, values, out=values)

    center = values[1:-1, 1:-1]
    neighborhood_min = np.stack([  # a temporary: the CSV below reuses its memory
        values[1 + di:points - 1 + di, 1 + dj:points - 1 + dj]
        for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)
    ]).min(axis=0)
    strict = center < neighborhood_min
    plateau = center == neighborhood_min
    minima = tuple((float(axis[i + 1]), float(axis[j + 1]))
                   for i, j in zip(*np.nonzero(strict)))
    n_plateau = int(plateau.sum())
    degenerate = n_plateau == (points - 2) ** 2

    if path is not None:
        axis_slots = _g17_slots(axis[:, None])  # each axis value once, its '\n' made a ','
        axis_slots[axis_slots == ord("\n")] = ord(",")

        def cells(start, stop):  # grid cell r is (axis[r // points], axis[r % points])
            r = np.arange(start, stop)
            return np.stack((axis_slots[r // points], axis_slots[r % points],
                             _g17_slots(values.ravel()[start:stop, None])), axis=1)
        _write_g17_csv(path, "theta1,theta2,value", points * points, cells)
    return SurfaceGrid(field, axis, values, minima, n_plateau, degenerate,
                       None if path is None else str(path))


def synchronization_statistic(traj: Trajectory, t_start: float, t_end: float) -> float:
    """Mean ``|y1 - y2|`` over the window [t_start, t_end]."""
    mask = (traj.times >= t_start - 1e-12) & (traj.times <= t_end + 1e-12)
    if not np.any(mask):
        raise ValueError("window does not intersect the trajectory")
    return float(np.mean(np.abs(traj.outputs[mask, 0] - traj.outputs[mask, 1])))


SYNC_WINDOW = (20.0, 30.0)
SYNC_RATIO_LIMIT = 0.25


# ---------------------------------------------------------------------------
# End-to-end pipeline


@dataclass(eq=False)
class ScenarioResult:
    name: str
    checks: list            # (name, Check) pairs
    artifacts: dict          # label -> path
    extras: dict             # free-form numeric results (epsilon estimate, ...)

    @property
    def passed(self) -> bool:
        return all(rep.passed for _, rep in self.checks)

    def lines(self):
        out = [report_line(name, rep) for name, rep in self.checks]
        for key, value in self.extras.items():
            out.append(f"{key} = {fmt_g17(value)}")
        return out


def _build_parts(sc: Scenario):
    """The scenario's plant, storage V, nonlinearity and shaped storage W."""
    plant, V, nl = sc.build_plant(), sc.build_storage(), sc.build_nonlinearity()
    W = make_shaped_storage(V, nl.potential, plant.h, plant.n_states,
                            h_jacobian=plant.h_jacobian, name="W")
    return plant, V, nl, W


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a blow-up fails its checks
def run_scenario(name: str, step: Optional[float] = None, t_end: Optional[float] = None,
                 x0=None, seed: int = 0, out_dir=None) -> ScenarioResult:
    """Build, certify, simulate and export a named scenario.

    The pipeline runs gradient-consistency probes, the shaped-storage
    positive-definiteness check, plant NI/OSNI residuals along the forced
    run, an unforced closed-loop run with storage-decay monitoring, plus the
    scenario's own comparisons (synchronization statistic, convergence
    endpoint, equilibrium uniqueness).  The synchronization check's worst
    value is the ratio of the shaped to the original mean ``|y1 - y2|``,
    witnessed by the two means; the convergence check's is ``max |x(T)|``,
    witnessed by ``x(T)``.  Artifacts (trajectory CSVs, check reports, the
    scenario configuration) land in ``out_dir`` when given.
    """
    sc = get_scenario(name)
    cfg = IntegratorConfig(step=step if step is not None else sc.config.step,
                           t_end=t_end if t_end is not None else sc.config.t_end)
    start = np.array(sc.x0 if x0 is None else x0, dtype=float)

    plant, V, nl, W = _build_parts(sc)
    box = np.asarray(sc.box, dtype=float)
    out_box = box[:plant.n_io]
    checks = []
    extras = {}

    probes_y = halton_box_samples(out_box, 100, seed)
    phi_as_grad_F = ScalarField.from_floats(nl.p, nl.potential.value_floats, nl.phi_floats)
    checks.append(("gradient-consistency F", gradient_check(phi_as_grad_F, probes_y)))
    probes_x = halton_box_samples(box, 100, seed + 1)
    checks.append(("gradient-consistency V", gradient_check(V, probes_x)))

    checks.append(("shaped-storage positive-definite",
                   check_positive_definite(W, box, n_samples=256, seed=seed)))

    if sc.certificate is not None:
        checks.append(("ssni-certificate", check_ssni(sc.certificate)))
        checks.append(("minimal-realization", check_minimal(sc.certificate.sys)))
        gain = dc_gain(sc.certificate.sys, sc.certificate)  # raises on mismatch
        extras["dc_gain_max_abs"] = float(np.max(np.abs(gain)))

    # one rate table per (system, storage, trajectory), dropped once its checks exist; the
    # plant's run goes with its table, and a storage channel goes only on a run that is read
    stored = lambda traj, field: dataclasses.replace(traj, storage=field.values(traj.states))
    traj_plant = simulate(plant, start, sc.signal, cfg)
    rates = rate_table(plant, V, traj_plant)
    checks.append(("plant NI residuals", dissipation_from_rates(rates, 0.0)))
    eps_hat = epsilon_from_rates([rates])
    extras["epsilon_estimate"] = eps_hat
    if eps_hat > 0.0:
        checks.append(("plant OSNI residuals", dissipation_from_rates(rates, 0.5 * eps_hat)))
    del rates, traj_plant

    closed = make_closed_loop(plant, nl)
    traj_free = stored(simulate(closed, start, InputSignal.zero(plant.n_io), cfg), W)
    checks.append(("closed-loop storage decay", monitor_decay(traj_free)))
    rates = rate_table(closed, W, traj_free)
    checks.append(("closed-loop NI residuals (shaped storage)",
                   dissipation_from_rates(rates, 0.0)))
    if sc.assumes_output_observability:
        checks.append(("hidden-motion heuristic", hidden_motion_from_rates(rates)))
    del rates

    trajs = {"trajectory": traj_free}
    if not sc.signal.is_zero:  # a forced scenario: compare against the unshaped plant
        traj_forced = stored(simulate(closed, start, sc.signal, cfg), W)
        traj_original = stored(simulate(plant, start, sc.signal, cfg), V)
        trajs = {"trajectory": traj_forced, "trajectory_unforced": traj_free,
                 "trajectory_original": traj_original}
        window = (min(SYNC_WINDOW[0], 2.0 * cfg.t_end / 3.0), cfg.t_end)
        try:
            mean_orig = synchronization_statistic(traj_original, *window)
            mean_shaped = synchronization_statistic(traj_forced, *window)
        except ValueError:  # a truncated run ends before the window
            mean_orig = mean_shaped = math.nan
        ratio = mean_shaped / mean_orig if mean_orig != 0.0 else math.inf
        checks.append(("synchronization statistic",
                       Check("pass" if ratio < SYNC_RATIO_LIMIT else "fail", ratio,
                             (mean_orig, mean_shaped))))

    if sc.convergence_tol is not None:  # global convergence needs a unique equilibrium
        final = traj_free.states[-1]
        final_norm = float(np.max(np.abs(final)))
        checks.append(("convergence endpoint",
                       Check("pass" if final_norm < sc.convergence_tol else "fail", final_norm,
                             final)))
        checks.append(("equilibrium uniqueness",
                       check_equilibrium_uniqueness(closed, box, n_samples=512, seed=seed)))

    result = ScenarioResult(sc.name, checks, {}, extras)
    if out_dir is not None:
        run_dir = os.path.join(str(out_dir), sc.name)
        os.makedirs(run_dir, exist_ok=True)
        for label, traj in trajs.items():
            path = result.artifacts[label] = os.path.join(run_dir, f"{label}.csv")
            write_trajectory_csv(traj, path)
        path = result.artifacts["checks_csv"] = os.path.join(run_dir, "checks.csv")
        write_reports_csv(path, checks)
        path = result.artifacts["checks_txt"] = os.path.join(run_dir, "checks.txt")
        with open(path, "w") as fh:
            fh.write("\n".join(result.lines()) + "\n")
        path = result.artifacts["scenario_json"] = os.path.join(run_dir, "scenario.json")
        with open(path, "w") as fh:
            json.dump(scenario_config(sc.name), fh, indent=2)
    return result
