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
import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .linear import sym_eigenvalues
from .sim import Trajectory
from .sysmodel import (_CHUNK, Check, NonlinearSystem, ScalarField, StaticNonlinearity, TAU_PD,
                       HamiltonianSystem, TAU_ZERO, _composed, _joined_text, _norm, _row_dots,
                       _row_norms, central_jacobian, make_shaped_storage, on_columns)

R_EXCL_SCALE = 1e-3   # exclusion-ball radius as a fraction of the box radius
N_POLISH = 10         # worst samples polished by damped Newton
POLISH_ITERS = 50


# ---------------------------------------------------------------------------
# Low-discrepancy sampling

_HALTON_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _as_box(box, dim: Optional[int] = None) -> np.ndarray:
    box = np.asarray(box, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2:
        raise ValueError(f"box must be a (dim, 2) array of bounds, got shape {box.shape}")
    if not all(math.isfinite(hi - lo) for lo, hi in box.tolist()):  # Python floats: no warning
        raise ValueError(f"box bounds and widths must be finite, got {box.tolist()}")
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
    dim, n_samples, seed = box.shape[0], int(n_samples), int(seed)
    if dim > len(_HALTON_PRIMES):
        raise ValueError(f"sampling supports at most {len(_HALTON_PRIMES)} dimensions")
    for label, value in (("n_samples", n_samples), ("seed", seed)):
        if value < 0:
            raise ValueError(f"{label} must be nonnegative, got {value}")
    shift = np.random.default_rng(seed).random(dim)
    # radical inverses of 1..n for all samples at once, each by the scalar steps
    # inv += scale * digit; scale /= base (a spent index only adds 0.0)
    u = np.zeros((n_samples, dim))
    for j, base in enumerate(_HALTON_PRIMES[:dim]):
        index = np.arange(1, n_samples + 1)
        scale = 1.0 / base
        while index.any():
            u[:, j] += scale * (index % base)
            index //= base
            scale /= base
    return box[:, 0] + np.mod(u + shift, 1.0) * (box[:, 1] - box[:, 0])


def _origin_shell(box: np.ndarray) -> np.ndarray:
    """Deterministic probe points on a shell at 1e-3 of the box's nearest face."""
    dim = box.shape[0]
    r = 1e-3 * float(np.min(np.minimum(np.abs(box[:, 0]), np.abs(box[:, 1]))))
    axes = [sign * r * e for e in np.eye(dim) for sign in (1.0, -1.0)]  # +-r e_i, -0.0 off it
    # corner k has +1 on axis i where bit i of k is set: axis 0 varies fastest
    corners = [r / math.sqrt(dim) * np.array(signs[::-1])
               for signs in itertools.product((-1.0, 1.0), repeat=dim)]
    return np.array(axes + corners)


# ---------------------------------------------------------------------------
# Damped Newton polish shared by the root-hunting checks


# The stall rule: Newton's model is |F(x + a d)|**2 = (1 - a)**2 |F|**2, so a sum kept above 0.9 of
# the old one is a step cut to a <= 0.05: two in a row head for a singular J, not a root (Deuflhard)
_STALL_RATIO, _STALL_STEPS = 0.9, 2


def _newton_polish(func, x, tol, stats):
    """Damped Newton from the floats ``x`` toward a root of the float form ``func``:
    (point, converged), counted into ``stats``.  Probes and trial points are numpy's, entry
    by entry on floats; the solve is numpy's.  Each residual has one norm, ``math.hypot``'s
    (NaN where an entry is NaN, as numpy's norm is): the stop test is ``norm <= tol``, the
    descent test ``new < norm`` and the stall test ``new**2 > _STALL_RATIO * norm**2``.  After
    ``_STALL_STEPS`` stalled steps in a row the polish ends, counted ``stalled`` unless it
    converged."""
    fx = func(x)
    norm, stalls = math.nan if any(map(math.isnan, fx)) else math.hypot(*fx), 0
    stats.update(polishes=1, model_calls=1)
    for _ in range(POLISH_ITERS):
        if norm <= tol or stalls == _STALL_STEPS:
            break
        J = central_jacobian(func, x, len(x))
        stats.update(newton_steps=1, model_calls=2 * len(x))
        if not np.isfinite(J).all():  # no step to take: lstsq would raise
            break
        try:
            d = np.linalg.solve(J, np.negative(fx))
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(J, np.negative(fx), rcond=None)[0]
        if not np.isfinite(d).all():
            break
        d, alpha = d.tolist(), 1.0
        while alpha >= 1e-6:
            x_new = [xi + alpha * di for xi, di in zip(x, d)]
            f_new = func(x_new)
            stats["model_calls"] += 1
            if all(map(math.isfinite, f_new)):
                new = math.hypot(*f_new)
                if new < norm:
                    stall = new * new > _STALL_RATIO * (norm * norm)  # none where both overflow
                    x, fx, norm, stalls = x_new, f_new, new, (stalls + 1 if stall else 0)
                    break
            alpha *= 0.5
        else:
            break
    converged = norm <= tol
    stats.update(converged=converged, stalled=stalls == _STALL_STEPS and not converged)
    return x, converged


def _box_minimum(measure, box, n_samples, seed, r_min, extra=(), root=None):
    """The one search under the box checks: the Halton points of ``box`` and the rows of
    ``extra``, those with ``|x| > r_min`` kept, and ``measure`` on them in one call.  Returns
    ``(points, values, i_min, found, stats)``, or None when no point is left; ``i_min`` is
    ``np.argmin``'s, so the first NaN value where there is one.  With ``root = (func, rel_tol,
    accept)``, the N_POLISH points of smallest value are Newton-polished toward a root of the
    float form ``func`` to the tolerance ``rel_tol * max(values)``: ``found`` is the first
    converged root that ``accept`` admits (else None) and ``stats`` counts ``polishes``,
    ``newton_steps`` (Jacobians), ``model_calls`` (of ``func``), ``converged`` and ``stalled``."""
    points = np.vstack([halton_box_samples(box, n_samples, seed), *extra])
    points = points[_row_norms(points) > r_min]
    if not len(points):
        return None
    values, found, stats = measure(points), None, {}
    if root is not None:
        func, rel_tol, accept = root
        tol = rel_tol * float(np.max(values))
        stats = Counter(polishes=0, newton_steps=0, model_calls=0, converged=0, stalled=0)
        polished = (_newton_polish(func, points[i].tolist(), tol, stats)
                    for i in np.argsort(values)[:N_POLISH])  # lazily: stops at the first found
        found = next((x for x, ok in polished if ok and accept(x)), None)
    return points, values, int(np.argmin(values)), found, dict(stats)


# ---------------------------------------------------------------------------
# Per-knot rates and the dissipation checks derived from them


@dataclass(frozen=True, eq=False)
class RateTable:
    """Per-knot scalars along ``traj``, with ``fx = f(x, u)`` and
    ``ydot = Dh(x) fx``: ``vdot = grad V(x) . fx``, ``supply = u . ydot``,
    ``ydot_sq = |ydot|^2`` and ``f_sq = |fx|^2``."""

    traj: Trajectory
    vdot: np.ndarray
    supply: np.ndarray
    ydot_sq: np.ndarray
    f_sq: np.ndarray


def rate_table(sys: NonlinearSystem, V: ScalarField, traj: Trajectory) -> RateTable:
    """One sweep over the knots of ``traj``: the one entry to the trajectory
    checks, which all derive from its rates (``*_from_rates``).

    Rates are computed through the vector field at every knot, never by
    differencing the stored samples.  The sweep runs ``_CHUNK`` knots at a
    time: ``fx = f(x, u)`` and ``grad V(x)`` in one :func:`on_columns` call of the
    form composed of both (``_joined_text``, called at each knot where a part has no source),
    the output Jacobian per knot (a constant one is broadcast), then every product as
    one stacked ``np.matmul``, which runs numpy's kernel of a single ``@`` on each
    item, so every rate is bit for bit the per-knot ``@`` product.
    """
    if V.dim != sys.n_states:
        raise ValueError(f"storage dimension {V.dim} != state dimension {sys.n_states}")
    if traj.states.shape[1] != sys.n_states or traj.inputs.shape[1] != sys.n_io:
        raise ValueError("trajectory dimensions do not match the system")
    n, dim = traj.n_samples, sys.n_states
    knot = _composed(functools.partial(_joined_text, dim, sys.n_io), "f, gradient",
                     sys.f_floats, V.gradient_floats)
    rates = np.empty((4, n))  # vdot, supply, ydot_sq and f_sq
    for a in range(0, n, _CHUNK):
        xs, us = traj.states[a:a + _CHUNK], traj.inputs[a:a + _CHUNK]
        fx, grads = np.split(on_columns(knot, tuple(xs.T), tuple(us.T), width=2 * dim), 2, 1)
        js = (sys.h_jacobian if isinstance(sys.h_jacobian, np.ndarray)
              else np.array([sys.output_jacobian(x) for x in xs]))
        ydot = np.matmul(js, fx[:, :, None])[:, :, 0]
        rates[:, a:a + _CHUNK] = [_row_dots(grads, fx), _row_dots(us, ydot),
                                  _row_dots(ydot, ydot), _row_dots(fx, fx)]
    return RateTable(traj, *rates)


def dissipation_from_rates(rates: RateTable, epsilon: float) -> Check:
    """Residuals ``r = Vdot - u . ydot + epsilon |ydot|^2`` at every knot.

    ``epsilon = 0`` is the NI inequality ``Vdot <= u . ydot``, ``epsilon > 0``
    the OSNI one.  The pass tolerance scales with the largest sampled supply
    term.  The worst value is the largest residual, witnessed by its time and
    state; ``detail`` holds the ``residuals``, the ``tolerance`` and
    ``n_violations``, the number of residuals above it.
    """
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon}")
    residuals = rates.vdot - rates.supply + epsilon * rates.ydot_sq
    tolerance = 1e-6 * (1.0 + float(np.fmax.reduce(np.abs(rates.supply), initial=0.0)))
    worst = int(np.argmax(residuals))
    n_violations = int(np.sum(residuals > tolerance))
    verdict = "pass" if residuals[worst] <= tolerance else "fail"
    traj = rates.traj
    return Check(verdict, residuals[worst], (traj.times[worst], *traj.states[worst]),
                 traj.n_samples, {"residuals": residuals, "tolerance": tolerance,
                                  "n_violations": n_violations})


def epsilon_from_rates(tables: Iterable[RateTable]) -> float:
    """Empirical infimum of ``(u . ydot - Vdot) / |ydot|^2`` over all knots of
    the rate tables with ``|ydot|`` above TAU_ZERO, floored at zero: over these knots
    alone, so an upper bound on the plant's OSNI constant (linear-a and linear-b
    read 0.5294117647058824, where the constant is 0.5)."""
    tables = list(tables)  # an empty generator is no estimate either
    if not tables:
        raise ValueError("at least one rate table is required")
    best = math.inf
    for rates in tables:
        keep = rates.ydot_sq > TAU_ZERO * TAU_ZERO
        ratios = (rates.supply[keep] - rates.vdot[keep]) / rates.ydot_sq[keep]
        best = min(best, float(np.fmin.reduce(ratios, initial=math.inf)))
    if math.isinf(best):
        return 0.0
    return max(0.0, best)


# ---------------------------------------------------------------------------
# Positive definiteness on a box


def _origin_hessian(field: ScalarField) -> np.ndarray:
    """Finite-difference Hessian at the origin.

    With an analytic gradient: central differences of the gradient at step
    1e-6.  Without: second differences of the value at the wider step 1e-4
    (truncation/round-off balance), in one ``field.values`` call on ``+-h e_i +-h e_j``, i <= j.
    """
    n = field.dim
    if field.has_analytic_gradient:
        H = central_jacobian(field.gradient_floats, [0.0] * n, n)
    else:
        H, h, (I, J) = np.empty((n, n)), 1e-4, np.triu_indices(n)
        ei, ej = h * np.eye(n)[I], h * np.eye(n)[J]  # h e_i, h e_j for every i <= j
        a, b, c, d = np.split(field.values(np.vstack([ei + ej, ei - ej, ej - ei, -ei - ej])), 4)
        H[I, J] = H[J, I] = (a - b - c + d) / (4.0 * h * h)
    return 0.5 * (H + H.T)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a blow-up fails the check
def check_positive_definite(field: ScalarField, box, n_samples: int = 256,
                            seed: int = 0) -> Check:
    """Sampled positive definiteness on a box around the origin.

    Quasi-random nonzero points plus a deterministic shell near the origin
    must all give strictly positive finite values, and the finite-difference
    Hessian at the origin must have its smallest eigenvalue above TAU_PD.  This
    is a box-local certificate only, as ``detail["caveat"]`` says.  The worst
    value is the smallest sampled value, witnessed by its point;
    ``detail["min_hessian_eig_origin"]`` is the Hessian's smallest eigenvalue.
    """
    box = _as_box(box, field.dim)
    if not np.all((box[:, 0] < 0.0) & (box[:, 1] > 0.0)):
        raise ValueError("box must contain the origin strictly")
    search = _box_minimum(field.values, box, n_samples, seed, 0.0, extra=[_origin_shell(box)])
    if search is None:
        return Check("nothing to check", 0.0)
    points, values, i_min, _, _ = search
    eigs = sym_eigenvalues(_origin_hessian(field))
    ok = 0.0 < values[i_min] < math.inf and eigs[0] > TAU_PD
    caveat = ("box-local certificate: values sampled on the given box and the "
              "Hessian checked at the origin; no global or radial-unboundedness claim")
    return Check("pass" if ok else "fail", values[i_min], points[i_min], points.shape[0],
                 {"min_hessian_eig_origin": float(eigs[0]), "caveat": caveat})


# ---------------------------------------------------------------------------
# Gradient nonvanishing away from the origin


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a blow-up fails the check
def check_gradient_nonvanishing(field: ScalarField, box, n_samples: int = 256,
                                seed: int = 0) -> Check:
    """Sampled minimum of ``|grad W|`` over nonzero points of the box.

    The scale-aware pass floor is TAU_PD times the smallest sampled ``|x|``.
    Sampling alone cannot see an interior critical point, so ``_box_minimum``
    polishes the gradient from the worst samples; a critical point away from
    the origin (and inside the box, with 5% slack) fails the check with that
    witness; otherwise the witness is the sampled minimizer.  The worst value
    is the sampled minimum; ``detail`` holds the polish counters and a ``note``
    that warns of a small margin (empty when there is none).  An empty sample
    set (``n_samples=0``) reports "nothing to check".
    """
    box = _as_box(box, field.dim)
    r_excl = R_EXCL_SCALE * float(np.max(np.abs(box)))
    slack = 0.05 * (box[:, 1] - box[:, 0])
    search = _box_minimum(
        lambda points: _row_norms(field.gradients(points)), box, n_samples, seed,
        0.0, root=(field.gradient_floats, 1e-10, lambda x: (
            _norm(x) > r_excl
            and np.all((box[:, 0] - slack <= x) & (x <= box[:, 1] + slack)))))
    if search is None:
        return Check("nothing to check", 0.0)
    points, grad_norms, i_min, critical, stats = search
    floor = TAU_PD * float(np.min(_row_norms(points)))
    small = grad_norms[i_min] < 1e-3 * float(np.median(grad_norms))
    note = "small margin: sampled gradient decays fast toward the origin" if small else ""
    verdict = "pass" if critical is None and grad_norms[i_min] > floor else "fail"
    return Check(verdict, grad_norms[i_min], points[i_min] if critical is None else critical,
                 points.shape[0], {"note": note, **stats})


# ---------------------------------------------------------------------------
# Closed-loop equilibrium uniqueness


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a blow-up fails the check
def check_equilibrium_uniqueness(sys_cl: NonlinearSystem, box, n_samples: int = 512,
                                 seed: int = 0) -> Check:
    """Hunt for nonzero equilibria of the autonomous closed loop.

    Sampled minimum of ``|f(x, 0)|`` outside an exclusion ball at the origin,
    from which ``_box_minimum`` polishes toward a root of ``f(x, 0)``.  Any
    converged root outside the ball is a counterexample and the witness;
    otherwise the witness is the sampled minimizer.  The worst value is the
    sampled minimum; ``detail`` holds the polish counters.  An empty sample set
    (``n_samples=0``) reports "nothing to check".
    """
    box = _as_box(box, sys_cl.n_states)
    r_excl = R_EXCL_SCALE * float(np.max(np.abs(box)))
    u0 = [0.0] * sys_cl.n_io

    def residual_norms(points):  # each row's np.linalg.norm
        fxs = on_columns(sys_cl.f_floats, tuple(points.T), tuple(u0), width=sys_cl.n_states)
        return _row_norms(fxs, np.sqrt(_row_dots(fxs, fxs)))

    search = _box_minimum(residual_norms, box, n_samples, seed, r_excl, root=(
        lambda x: sys_cl.f_floats(x, u0), 1e-9, lambda x: _norm(x) > r_excl))
    if search is None:
        return Check("nothing to check", 0.0)
    points, norms, i_min, root, stats = search
    ok = root is None and norms[i_min] > TAU_ZERO * float(np.max(norms))
    return Check("pass" if ok else "fail", norms[i_min], points[i_min] if root is None else root,
                 points.shape[0], stats)


# ---------------------------------------------------------------------------
# Hamiltonian decay identity


def hamiltonian_decay_identity(hs: HamiltonianSystem, nl: StaticNonlinearity,
                               traj: Trajectory) -> Check:
    """Compare the storage rate along the flow with its dissipation form.

    For ``W = H - F(C(x))`` along the autonomous closure, the rate of W must
    equal ``-grad W(x)^T R(x) grad W(x)``.  The left side is taken from a
    fourth-order five-point stencil on the recorded samples (interior knots),
    the right side analytically at the same knots, so the discrepancy shrinks
    at the integrator's own fourth-order rate under step refinement.  The
    verdict is "info"; the worst value is the largest discrepancy, witnessed
    by its time.
    """
    if nl.potential is None:
        raise ValueError("nonlinearity carries no potential; the identity needs phi = grad F")
    if traj.n_samples and np.max(np.abs(traj.inputs)) > TAU_ZERO:
        raise ValueError("identity holds for the autonomous closure; trajectory is forced")
    n_knots = traj.n_samples
    if n_knots < 5:
        raise ValueError("need at least five samples for the interior stencil")
    W = make_shaped_storage(hs.H, nl.potential, hs.h, hs.n_states, h_jacobian=hs.h_jacobian)
    w = W.values(traj.states)
    rhs = np.array([-float(g @ (np.asarray(hs.R(x), dtype=float) @ g))
                    for x, g in zip(traj.states, W.gradients(traj.states))])
    lhs = (-w[4:] + 8.0 * w[3:-1] - 8.0 * w[1:-3] + w[:-4]) / (12.0 * traj.step)
    discrepancy = np.abs(lhs - rhs[2:-2])
    i_max = int(np.argmax(discrepancy))
    return Check("info", discrepancy[i_max], (traj.times[i_max + 2],), discrepancy.size)


# ---------------------------------------------------------------------------
# Output-observability heuristic


def hidden_motion_from_rates(rates: RateTable) -> Check:
    """Flag intervals where the output freezes while the state still moves.

    A knot is suspicious when ``|ydot| < TAU_ZERO`` but
    ``|xdot| > 100 TAU_ZERO``; consecutive suspicious knots are merged into
    intervals, ``detail["intervals"]``.  The worst value is the number of
    flagged knots and the witness the first interval.  This is a heuristic
    stand-in for an observability-type hypothesis that is not algorithmically
    checkable in general.  The storage plays no part: a bare system's table
    can be built with ``zero_field(n)``.
    """
    times = rates.traj.times
    flagged = (np.sqrt(rates.ydot_sq) < TAU_ZERO) & (np.sqrt(rates.f_sq) > 100.0 * TAU_ZERO)
    edges = np.flatnonzero(np.diff(flagged, prepend=False, append=False))  # run starts, ends
    intervals = tuple((float(times[a]), float(times[b - 1]))
                      for a, b in zip(edges[::2], edges[1::2]))
    n_flagged = int(flagged.sum())
    return Check("pass" if n_flagged == 0 else "flagged", n_flagged,
                 intervals[0] if intervals else (), detail={"intervals": intervals})


# ---------------------------------------------------------------------------
# Report serialization


def fmt_g17(value) -> str:
    """A number to 17 significant digits: the one number format of the reports."""
    return format(float(value), ".17g")


def report_line(name: str, check: Check) -> str:
    """One line per check: name, verdict, worst value, witness."""
    witness = "(" + ", ".join(map(fmt_g17, check.witness)) + ")" if check.witness else "-"
    return f"{name}: {check.verdict}  worst={fmt_g17(check.worst_value)}  witness={witness}"


def write_reports_csv(path, named_checks) -> None:
    """CSV with columns check, verdict, worst_value, witness."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "verdict", "worst_value", "witness"])
        for name, check in named_checks:
            writer.writerow([name, check.verdict, fmt_g17(check.worst_value),
                             " ".join(map(fmt_g17, check.witness))])
