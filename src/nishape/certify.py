"""Numerical certification of dissipation inequalities, definiteness, and
equilibrium structure.

These checks are sampling- and trajectory-based.  Positive definiteness and
gradient nonvanishing are certified on the given box only (the reports say
so); dissipation residuals are evaluated along supplied trajectories with
rates computed analytically through the vector field, never by differencing
the stored samples, so modeling error is not confused with integrator error.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np

from .linear import sym_eigenvalues
from .sim import _CHUNK, Trajectory
from .sysmodel import (NonlinearSystem, Report, ScalarField, StaticNonlinearity,
                       HamiltonianSystem, TAU_PD, TAU_ZERO, central_jacobian,
                       make_shaped_storage)

R_EXCL_SCALE = 1e-3   # exclusion-ball radius as a fraction of the box radius
N_POLISH = 10         # worst samples polished by damped Newton
POLISH_ITERS = 50


# ---------------------------------------------------------------------------
# Low-discrepancy sampling

_HALTON_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _radical_inverse(index: int, base: int) -> float:
    inv = 0.0
    scale = 1.0 / base
    while index > 0:
        inv += scale * (index % base)
        index //= base
        scale /= base
    return inv


def _as_box(box, dim: Optional[int] = None) -> np.ndarray:
    box = np.asarray(box, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2:
        raise ValueError(f"box must be a (dim, 2) array of bounds, got shape {box.shape}")
    if np.any(box[:, 0] >= box[:, 1]):
        raise ValueError("degenerate box: every lower bound must be below its upper bound")
    if dim is not None and box.shape[0] != dim:
        raise ValueError(f"box has {box.shape[0]} axes, expected {dim}")
    return box


def halton_box_samples(box, n_samples: int, seed: int) -> np.ndarray:
    """Halton points in ``box`` with a seed-derived rotation.

    Sample i is a pure function of (i, seed), so sampling is reproducible
    for a given (seed, n_samples) regardless of threading, and an n-point
    set is a prefix of any longer set with the same seed.
    """
    box = _as_box(box)
    dim = box.shape[0]
    if dim > len(_HALTON_PRIMES):
        raise ValueError(f"sampling supports at most {len(_HALTON_PRIMES)} dimensions")
    shift = np.random.default_rng(int(seed)).random(dim)
    width = box[:, 1] - box[:, 0]
    points = np.empty((int(n_samples), dim))
    for i in range(int(n_samples)):
        u = np.array([_radical_inverse(i + 1, b) for b in _HALTON_PRIMES[:dim]])
        points[i] = box[:, 0] + np.mod(u + shift, 1.0) * width
    return points


def _origin_shell(box: np.ndarray, radius_scale: float = 1e-3) -> np.ndarray:
    """Deterministic probe points on a small shell around the origin."""
    dim = box.shape[0]
    half = np.minimum(np.abs(box[:, 0]), np.abs(box[:, 1]))
    r = radius_scale * float(np.min(half))
    points = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = r
        points.append(e.copy())
        points.append(-e)
    for corner in range(2 ** dim):
        sign = np.array([1.0 if corner & (1 << i) else -1.0 for i in range(dim)])
        points.append(r / math.sqrt(dim) * sign)
    return np.array(points)


# ---------------------------------------------------------------------------
# Damped Newton polish shared by the root-hunting checks


def _newton_polish(func, jac, x0, tol, max_iter=POLISH_ITERS):
    """Damped Newton toward a root of ``func``; returns (point, converged)."""
    x = np.array(x0, dtype=float)
    fx = np.asarray(func(x), dtype=float)
    for _ in range(max_iter):
        if float(np.linalg.norm(fx)) <= tol:
            return x, True
        J = jac(x)
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
                x, fx = x_new, f_new
                break
            alpha *= 0.5
        else:
            break
    return x, float(np.linalg.norm(fx)) <= tol


def _polished_root(func, dim, points, norms, tol, accept):
    """Newton-polish the N_POLISH samples of smallest ``norms`` toward a root of
    ``func``; the first converged root that ``accept`` admits, or None."""
    for idx in np.argsort(norms)[:N_POLISH]:
        root, ok = _newton_polish(func, lambda x: central_jacobian(func, x, dim),
                                  points[idx], tol)
        if ok and accept(root):
            return root
    return None


def _root_or_argmin(root, argmin) -> tuple:
    """Witness of a root hunt: the polished root when one was found, else the
    sampled argmin."""
    return tuple(argmin if root is None else root)


# ---------------------------------------------------------------------------
# Per-knot rates and the dissipation checks derived from them


@dataclass(frozen=True, eq=False)
class RateTable:
    """Per-knot scalars along ``traj``, with ``fx = f(x, u)`` and
    ``ydot = Dh(x) fx``: ``vdot = grad V(x) . fx`` (None without a storage),
    ``supply = u . ydot``, ``ydot_sq = |ydot|^2`` and ``f_sq = |fx|^2``."""

    traj: Trajectory
    vdot: Optional[np.ndarray]
    supply: np.ndarray
    ydot_sq: np.ndarray
    f_sq: np.ndarray


def rate_table(sys: NonlinearSystem, V: Optional[ScalarField], traj: Trajectory) -> RateTable:
    """One sweep over the knots of ``traj``; every rate check derives from it.

    The sweep runs ``_CHUNK`` knots at a time: ``sys.f_floats`` and the output
    Jacobian per knot, one ``V.gradients`` call, then every product as one
    stacked ``np.matmul``, which runs numpy's kernel of a single ``@`` on each
    item, so every rate is bit for bit the per-knot ``@`` product.
    """
    if V is not None and V.dim != sys.n_states:
        raise ValueError(f"storage dimension {V.dim} != state dimension {sys.n_states}")
    if traj.states.shape[1] != sys.n_states or traj.inputs.shape[1] != sys.n_io:
        raise ValueError("trajectory dimensions do not match the system")
    n = traj.n_samples
    vdot = None if V is None else np.empty(n)
    supply, ydot_sq, f_sq = np.empty((3, n))
    for a in range(0, n, _CHUNK):
        xs, us = traj.states[a:a + _CHUNK], traj.inputs[a:a + _CHUNK]
        b = a + len(xs)
        fx = np.array([sys.f_floats(x, u) for x, u in zip(xs.tolist(), us.tolist())], float)
        ydot = np.matmul(np.array([sys.output_jacobian(x) for x in xs]), fx[:, :, None])[:, :, 0]
        if vdot is not None:
            vdot[a:b] = _row_dots(V.gradients(xs), fx)
        supply[a:b] = _row_dots(us, ydot)
        ydot_sq[a:b] = _row_dots(ydot, ydot)
        f_sq[a:b] = _row_dots(fx, fx)
    return RateTable(traj, vdot, supply, ydot_sq, f_sq)


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A[k] @ B[k]`` for every row k, by numpy's 1-D ``@`` kernel."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


@dataclass(frozen=True, eq=False)
class DissipationReport(Report):
    max_violation: float          # largest residual found (positive = violation)
    worst_time: float
    worst_state: np.ndarray
    n_samples: int
    n_violations: int
    epsilon_used: float
    tolerance: float
    verdict: str
    residuals: np.ndarray

    worst_fields = ("max_violation",)
    witness_fields = ("worst_time", "worst_state")


def dissipation_from_rates(rates: RateTable, epsilon: float) -> DissipationReport:
    """The residuals of :func:`osni_residuals` from a rate table."""
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    if rates.vdot is None:
        raise ValueError("no storage rate: the rate table was built with V=None")
    residuals = rates.vdot - rates.supply + epsilon * rates.ydot_sq
    tolerance = 1e-6 * (1.0 + float(np.fmax.reduce(np.abs(rates.supply), initial=0.0)))
    worst = int(np.argmax(residuals))
    n_violations = int(np.sum(residuals > tolerance))
    verdict = "pass" if residuals[worst] <= tolerance else "fail"
    traj = rates.traj
    return DissipationReport(float(residuals[worst]), float(traj.times[worst]),
                             traj.states[worst].copy(), traj.n_samples, n_violations,
                             float(epsilon), tolerance, verdict, residuals)


def osni_residuals(sys: NonlinearSystem, V: ScalarField, traj: Trajectory,
                   epsilon: float) -> DissipationReport:
    """Residuals ``r = Vdot - u . ydot + epsilon |ydot|^2`` along a trajectory.

    Rates are computed through the vector field at every knot:
    ``Vdot = grad V(x) . f(x, u)`` and ``ydot = Dh(x) f(x, u)``.  The pass
    tolerance scales with the largest sampled supply term.
    """
    return dissipation_from_rates(rate_table(sys, V, traj), epsilon)


def ni_residuals(sys: NonlinearSystem, V: ScalarField, traj: Trajectory) -> DissipationReport:
    """Residuals of ``Vdot <= u . ydot`` (the epsilon = 0 case, bit for bit)."""
    return osni_residuals(sys, V, traj, 0.0)


def epsilon_from_rates(tables) -> float:
    """Empirical infimum of ``(u . ydot - Vdot) / |ydot|^2`` over all knots of
    the rate tables with ``|ydot|`` above TAU_ZERO, floored at zero."""
    best = math.inf
    for rates in tables:
        if rates.vdot is None:
            raise ValueError("no storage rate: the rate table was built with V=None")
        keep = rates.ydot_sq > TAU_ZERO * TAU_ZERO
        ratios = (rates.supply[keep] - rates.vdot[keep]) / rates.ydot_sq[keep]
        best = min(best, float(np.fmin.reduce(ratios, initial=math.inf)))
    if math.isinf(best):
        return 0.0
    return max(0.0, best)


def estimate_max_epsilon(sys: NonlinearSystem, V: ScalarField,
                         trajs: Sequence[Trajectory]) -> float:
    """Empirical infimum of ``(u . ydot - Vdot) / |ydot|^2`` over all samples
    with ``|ydot|`` above TAU_ZERO, floored at zero."""
    trajs = list(trajs)
    if not trajs:
        raise ValueError("at least one trajectory is required")
    return epsilon_from_rates(rate_table(sys, V, traj) for traj in trajs)


# ---------------------------------------------------------------------------
# Positive definiteness on a box


@dataclass(frozen=True, eq=False)
class DefinitenessReport(Report):
    min_sampled_value: float
    min_hessian_eig_origin: float
    argmin: np.ndarray
    n_samples: int
    verdict: str
    caveat: str

    worst_fields = ("min_sampled_value",)
    witness_fields = ("argmin",)


def _origin_hessian(field: ScalarField) -> np.ndarray:
    """Finite-difference Hessian at the origin.

    With an analytic gradient: central differences of the gradient at step
    1e-6.  Without: second differences of the value at the wider step 1e-4
    (truncation/round-off balance for second differences).
    """
    n = field.dim
    if field.has_analytic_gradient:
        H = central_jacobian(field.gradient, np.zeros(n), n, 1e-6)
    else:
        H = np.empty((n, n))
        h = 1e-4
        for i in range(n):
            for j in range(i, n):
                ei = np.zeros(n)
                ej = np.zeros(n)
                ei[i] = h
                ej[j] = h
                H[i, j] = H[j, i] = (field.value(ei + ej) - field.value(ei - ej)
                                     - field.value(ej - ei) + field.value(-ei - ej)) / (4.0 * h * h)
    return 0.5 * (H + H.T)


def check_positive_definite(field: ScalarField, box, n_samples: int = 256,
                            seed: int = 0) -> DefinitenessReport:
    """Sampled positive definiteness on a box around the origin.

    Quasi-random nonzero points plus a deterministic shell near the origin
    must all give strictly positive values, and the finite-difference Hessian
    at the origin must have its smallest eigenvalue above TAU_PD.  This is a
    box-local certificate only.
    """
    box = _as_box(box, field.dim)
    if not np.all((box[:, 0] < 0.0) & (box[:, 1] > 0.0)):
        raise ValueError("box must contain the origin strictly")
    points = np.vstack([halton_box_samples(box, n_samples, seed), _origin_shell(box)])
    points = points[np.linalg.norm(points, axis=1) > 0.0]
    values = np.array([field.value(x) for x in points])
    i_min = int(np.argmin(values))
    eigs = sym_eigenvalues(_origin_hessian(field))
    ok = values[i_min] > 0.0 and eigs[0] > TAU_PD
    caveat = ("box-local certificate: values sampled on the given box and the "
              "Hessian checked at the origin; no global or radial-unboundedness claim")
    return DefinitenessReport(float(values[i_min]), float(eigs[0]), points[i_min].copy(),
                              points.shape[0], "pass" if ok else "fail", caveat)


# ---------------------------------------------------------------------------
# Gradient nonvanishing away from the origin


@dataclass(frozen=True, eq=False)
class NonvanishingReport(Report):
    min_grad_norm: float
    argmin: np.ndarray
    floor: float
    critical_point: Optional[np.ndarray]
    n_samples: int
    verdict: str
    note: str = ""

    worst_fields = ("min_grad_norm",)

    @property
    def witness(self):
        return _root_or_argmin(self.critical_point, self.argmin)


def check_gradient_nonvanishing(field: ScalarField, box, n_samples: int = 256,
                                seed: int = 0) -> NonvanishingReport:
    """Sampled minimum of ``|grad W|`` over nonzero points of the box.

    The scale-aware pass floor is TAU_PD times the smallest sampled ``|x|``.
    Sampling alone cannot see an interior critical point, so a damped-Newton
    polish on the gradient runs from the worst samples; a polished critical
    point away from the origin (and inside the box) fails the check with
    that witness.
    """
    box = _as_box(box, field.dim)
    points = halton_box_samples(box, n_samples, seed)
    points = points[np.linalg.norm(points, axis=1) > 0.0]
    grads = np.array([field.gradient(x) for x in points])
    grad_norms = np.linalg.norm(grads, axis=1)
    i_min = int(np.argmin(grad_norms))
    floor = TAU_PD * float(np.min(np.linalg.norm(points, axis=1)))
    r_excl = R_EXCL_SCALE * float(np.max(np.abs(box)))
    slack = 0.05 * (box[:, 1] - box[:, 0])
    tol_root = 1e-10 * (1.0 + float(np.max(grad_norms)))
    critical = _polished_root(field.gradient, field.dim, points, grad_norms, tol_root,
                              lambda x: (float(np.linalg.norm(x)) > r_excl
                                         and np.all(x >= box[:, 0] - slack)
                                         and np.all(x <= box[:, 1] + slack)))

    note = ""
    if grad_norms[i_min] < 1e-3 * float(np.median(grad_norms)):
        note = "small margin: sampled gradient decays fast toward the origin"
    verdict = "fail" if (critical is not None or grad_norms[i_min] <= floor) else "pass"
    return NonvanishingReport(float(grad_norms[i_min]), points[i_min].copy(), floor,
                              critical, points.shape[0], verdict, note)


# ---------------------------------------------------------------------------
# Closed-loop equilibrium uniqueness


@dataclass(frozen=True, eq=False)
class UniquenessReport(Report):
    min_residual_norm: float
    argmin: np.ndarray
    root: Optional[np.ndarray]
    n_samples: int
    r_excl: float
    verdict: str

    worst_fields = ("min_residual_norm",)

    @property
    def witness(self):
        return _root_or_argmin(self.root, self.argmin)


def check_equilibrium_uniqueness(sys_cl: NonlinearSystem, box, n_samples: int = 512,
                                 seed: int = 0) -> UniquenessReport:
    """Hunt for nonzero equilibria of the autonomous closed loop.

    Sampled minimum of ``|f(x, 0)|`` outside an exclusion ball at the origin,
    followed by a damped-Newton root polish (finite-difference Jacobian) from
    the worst samples.  Any converged nonzero root is a counterexample.
    """
    box = _as_box(box, sys_cl.n_states)
    r_excl = R_EXCL_SCALE * float(np.max(np.abs(box)))
    points = halton_box_samples(box, n_samples, seed)
    points = points[np.linalg.norm(points, axis=1) > r_excl]
    u0 = np.zeros(sys_cl.n_io)
    norms = np.array([float(np.linalg.norm(sys_cl.f(x, u0))) for x in points])
    i_min = int(np.argmin(norms))
    scale = 1.0 + float(np.max(norms))
    tol_root = 1e-9 * scale

    root = _polished_root(lambda x: sys_cl.f(x, u0), sys_cl.n_states, points, norms, tol_root,
                          lambda x: float(np.linalg.norm(x)) > r_excl)

    verdict = "pass" if (root is None and norms[i_min] > TAU_ZERO * scale) else "fail"
    return UniquenessReport(float(norms[i_min]), points[i_min].copy(), root,
                            points.shape[0], r_excl, verdict)


# ---------------------------------------------------------------------------
# Hamiltonian decay identity


@dataclass(frozen=True, eq=False)
class DecayIdentityReport(Report):
    max_discrepancy: float
    time_of_max: float
    n_samples: int
    step: float

    verdict: ClassVar[str] = "info"
    worst_fields = ("max_discrepancy",)
    witness_fields = ("time_of_max",)


def hamiltonian_decay_identity(hs: HamiltonianSystem, nl: StaticNonlinearity,
                               traj: Trajectory) -> DecayIdentityReport:
    """Compare the storage rate along the flow with its dissipation form.

    For ``W = H - F(C(x))`` along the autonomous closure, the rate of W must
    equal ``-grad W(x)^T R(x) grad W(x)``.  The left side is taken from a
    fourth-order five-point stencil on the recorded samples (interior knots),
    the right side analytically at the same knots, so the discrepancy shrinks
    at the integrator's own fourth-order rate under step refinement.
    """
    if nl.potential is None:
        raise ValueError("nonlinearity carries no potential; the identity needs phi = grad F")
    if traj.n_samples and np.max(np.abs(traj.inputs)) > TAU_ZERO:
        raise ValueError("identity holds for the autonomous closure; trajectory is forced")
    n_knots = traj.n_samples
    if n_knots < 5:
        raise ValueError("need at least five samples for the interior stencil")
    W = make_shaped_storage(hs.H, nl.potential, hs.C, hs.n, h_jacobian=hs.grad_C)
    w = np.empty(n_knots)
    rhs = np.empty(n_knots)
    for k, x in enumerate(traj.states):
        w[k] = W.value(x)
        g = W.gradient(x)
        rhs[k] = -float(g @ (np.asarray(hs.R(x), dtype=float) @ g))
    step = traj.step
    lhs = (-w[4:] + 8.0 * w[3:-1] - 8.0 * w[1:-3] + w[:-4]) / (12.0 * step)
    discrepancy = np.abs(lhs - rhs[2:-2])
    i_max = int(np.argmax(discrepancy))
    return DecayIdentityReport(float(discrepancy[i_max]), float(traj.times[i_max + 2]),
                               int(discrepancy.size), step)


# ---------------------------------------------------------------------------
# Output-observability heuristic


@dataclass(frozen=True, eq=False)
class HiddenMotionReport(Report):
    intervals: tuple
    n_flagged: int
    verdict: str  # "pass" | "flagged"

    worst_fields = ("n_flagged",)

    @property
    def witness(self):
        return self.intervals[0] if self.intervals else ()


def hidden_motion_from_rates(rates: RateTable) -> HiddenMotionReport:
    """Intervals of knots where ``|ydot| < TAU_ZERO`` but ``|xdot| > 100 TAU_ZERO``."""
    times = rates.traj.times
    flagged = (np.sqrt(rates.ydot_sq) < TAU_ZERO) & (np.sqrt(rates.f_sq) > 100.0 * TAU_ZERO)
    edges = np.flatnonzero(np.diff(flagged, prepend=False, append=False))  # run starts, ends
    intervals = tuple((float(times[a]), float(times[b - 1]))
                      for a, b in zip(edges[::2], edges[1::2]))
    n_flagged = int(flagged.sum())
    return HiddenMotionReport(intervals, n_flagged, "pass" if n_flagged == 0 else "flagged")


def flag_hidden_motion(sys: NonlinearSystem, traj: Trajectory) -> HiddenMotionReport:
    """Flag intervals where the output freezes while the state still moves.

    A knot is suspicious when ``|ydot| < TAU_ZERO`` but
    ``|xdot| > 100 TAU_ZERO``; consecutive suspicious knots are merged into
    intervals.  This is a heuristic stand-in for an observability-type
    hypothesis that is not algorithmically checkable in general.
    """
    return hidden_motion_from_rates(rate_table(sys, None, traj))


# ---------------------------------------------------------------------------
# Report serialization


def report_line(name: str, report: Report) -> str:
    """One line per report: name, verdict, worst value, witness."""
    witness = report.witness
    if witness:
        witness_text = "(" + ", ".join(format(float(v), ".17g") for v in witness) + ")"
    else:
        witness_text = "-"
    worst = format(report.worst_value, ".17g")
    return f"{name}: {report.verdict}  worst={worst}  witness={witness_text}"


def write_reports_csv(path, named_reports) -> None:
    """CSV with columns check, verdict, worst_value, witness."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "verdict", "worst_value", "witness"])
        for name, report in named_reports:
            writer.writerow([
                name,
                report.verdict,
                format(report.worst_value, ".17g"),
                " ".join(format(float(v), ".17g") for v in report.witness),
            ])
