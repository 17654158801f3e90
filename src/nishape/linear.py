"""Linear specialization: state-space certificates, slope-bound conditions,
and the dense symmetric eigensolver and quadrature that back them.

A certificate here is a supplied (A, B, C, Y); the module verifies it, it
does not synthesize Y (no semidefinite programming involved).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .sysmodel import (LinearSystem, NonlinearSystem, Report, ScalarField,
                       StaticNonlinearity, TAU_PD, TAU_ZERO, make_shaped_storage)


# ---------------------------------------------------------------------------
# Dense symmetric eigenvalues by cyclic Jacobi rotations


def sym_eigenvalues(S) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending.

    Cyclic Jacobi rotations on Python floats, iterated until the off-diagonal
    Frobenius norm drops below 1e-12 times the matrix norm.  Rejects inputs
    whose norm is not finite or whose asymmetry exceeds TAU_ZERO relative to
    their norm.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"need a square matrix, got shape {S.shape}")
    with np.errstate(over="ignore"):  # the norm of entries beyond ~1e154 overflows
        fro = float(np.linalg.norm(S))
        if not math.isfinite(fro) and np.isfinite(S).all():
            raise ValueError("matrix entries are finite but too large for a finite norm")
        if not math.isfinite(fro) or float(np.linalg.norm(S - S.T)) > TAU_ZERO * fro:
            raise ValueError("matrix must be finite and symmetric within tolerance")
    n = S.shape[0]
    if n == 1:
        return np.array([S[0, 0]])
    A = (0.5 * (S + S.T)).tolist()
    target = 1e-12 * fro
    for _ in range(60):
        # off-diagonal norm from the entries, by numpy: a Python sum would not keep
        # BLAS's order, and full minus diagonal sums would cancel near zero
        M = np.array(A)
        off = float(np.linalg.norm(M - np.diag(np.diag(M))))
        if off <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                Ap, Aq = A[p], A[q]
                apq = Ap[q]
                if apq == 0.0:
                    continue
                tau = (Aq[q] - Ap[p]) / (2.0 * apq)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for row in A:  # columns p and q, then rows p and q, each rounded as numpy would
                    a, b = row[p], row[q]
                    row[p], row[q] = c * a - s * b, s * a + c * b
                Ap[:], Aq[:] = ([c * a - s * b for a, b in zip(Ap, Aq)],
                                [s * a + c * b for a, b in zip(Ap, Aq)])
                Ap[q] = Aq[p] = 0.0
    else:
        raise RuntimeError("Jacobi iteration did not converge")
    return np.sort(np.diag(M))


# ---------------------------------------------------------------------------
# Certificates and slope bounds


class SsniCertificate:
    """A candidate Y > 0 for the structure equations
    ``A Y + Y A^T < 0`` and ``B = -A Y C^T``."""

    def __init__(self, sys: LinearSystem, Y):
        Y = np.array(Y, dtype=float)
        if Y.shape != (sys.n, sys.n):
            raise ValueError(f"Y must be {sys.n} x {sys.n}, got shape {Y.shape}")
        if not np.isfinite(Y).all():
            raise ValueError("Y contains non-finite entries")
        if np.max(np.abs(Y - Y.T)) > TAU_ZERO * (1.0 + np.max(np.abs(Y))):
            raise ValueError("Y must be symmetric")
        if sym_eigenvalues(0.5 * (Y + Y.T))[0] <= TAU_PD:
            raise ValueError("Y must be positive definite")
        Y.setflags(write=False)
        self.sys = sys
        self.Y = Y


class SlopeBounds:
    """Per-channel maximum slopes mu_i > 0 of a diagonal nonlinearity."""

    def __init__(self, mu):
        mu = np.array(mu, dtype=float)
        if mu.ndim != 1:  # a matrix M is not a list of per-channel slopes
            raise ValueError(f"mu must be a flat list of per-channel slopes, got shape {mu.shape}")
        if mu.size < 1 or np.any(mu <= 0.0) or not np.isfinite(mu).all():
            raise ValueError("slope bounds must be finite and strictly positive")
        if math.isinf(1.0 / float(mu.min())):  # a subnormal slope: M^-1 would overflow
            raise ValueError(f"mu[{np.argmin(mu)}] = {float(mu.min())!r} has no finite reciprocal")
        mu.setflags(write=False)
        self.mu = mu

    @property
    def p(self) -> int:
        return self.mu.size

    def M(self) -> np.ndarray:
        return np.diag(self.mu)

    def M_inv(self) -> np.ndarray:
        return np.diag(1.0 / self.mu)


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True, eq=False)
class SsniReport(Report):
    max_lyapunov_eig: float
    structure_residual: float
    verdict: str

    worst_fields = ("max_lyapunov_eig",)
    witness_fields = ("structure_residual",)


@dataclass(frozen=True, eq=False)
class DeyReport(Report):
    margin: float
    asymmetry: float
    verdict: str

    worst_fields = ("margin",)


@dataclass(frozen=True, eq=False)
class SchurReport(Report):
    primal_margin: float   # min eig(M^-1 - C Y C^T)
    dual_margin: float     # min eig(Y^-1 - C^T M C)
    primal_holds: bool
    dual_holds: bool
    verdict: str           # "pass" when the two predicates agree

    worst_fields = witness_fields = ("primal_margin", "dual_margin")

    @property
    def agree(self):
        return self.primal_holds == self.dual_holds


@dataclass(frozen=True, eq=False)
class HurwitzReport(Report):
    min_p_eig: float
    residual: float
    verdict: str  # "pass" | "fail" | "indeterminate"
    note: str = ""

    worst_fields = ("min_p_eig",)


@dataclass(frozen=True, eq=False)
class MinimalityReport(Report):
    rank_controllability: int
    rank_observability: int
    n: int
    verdict: str

    worst_fields = witness_fields = ("rank_controllability", "rank_observability")

    @property
    def controllable(self):
        return self.rank_controllability == self.n

    @property
    def observable(self):
        return self.rank_observability == self.n


# ---------------------------------------------------------------------------
# Certificate checks


def check_ssni(cert: SsniCertificate) -> SsniReport:
    """Verify ``max eig(AY + YA^T) < -TAU_PD`` and ``B = -A Y C^T``."""
    A, B, C, Y = cert.sys.A, cert.sys.B, cert.sys.C, cert.Y
    L = A @ Y + Y @ A.T
    max_eig = float(sym_eigenvalues(0.5 * (L + L.T))[-1])
    residual = float(np.max(np.abs(B + A @ Y @ C.T)))
    ok = max_eig < -TAU_PD and residual <= TAU_ZERO * (1.0 + np.max(np.abs(B)))
    return SsniReport(max_eig, residual, "pass" if ok else "fail")


def dc_gain(sys: LinearSystem, cert: Optional[SsniCertificate] = None) -> np.ndarray:
    """Steady-state gain ``-C A^-1 B`` via a linear solve.

    With a certificate, the result is cross-checked against ``C Y C^T`` and a
    disagreement raises instead of returning silently wrong numbers.
    """
    try:
        X = np.linalg.solve(sys.A, sys.B)
    except np.linalg.LinAlgError as exc:
        raise ValueError("A is singular, DC gain undefined") from exc
    G0 = -sys.C @ X
    if cert is not None:
        G_cert = sys.C @ cert.Y @ sys.C.T
        err = float(np.max(np.abs(G0 - G_cert)))
        if err > 1e-9 * (1.0 + np.max(np.abs(G_cert))):
            raise ArithmeticError(
                f"DC-gain cross-check failed: |(-C A^-1 B) - C Y C^T|_max = {err:.3e}")
    return G0


def dey_condition(sys: LinearSystem, cert: Optional[SsniCertificate],
                  m: SlopeBounds) -> DeyReport:
    """Slope-bound stability condition: ``M^-1 - G(0) > 0``.

    G(0) is symmetrized before the eigenvalue test; asymmetry beyond
    tolerance is reported through the ``asymmetry`` field.
    """
    if m.p != sys.p:
        raise ValueError(f"slope bounds have {m.p} channels, system has {sys.p}")
    G0 = dc_gain(sys, cert)
    asym = float(np.max(np.abs(G0 - G0.T)))
    G0s = 0.5 * (G0 + G0.T)
    margin = float(sym_eigenvalues(m.M_inv() - G0s)[0])
    return DeyReport(margin, asym, "pass" if margin > TAU_PD else "fail")


def schur_equivalence(cert: SsniCertificate, m: SlopeBounds) -> SchurReport:
    """Evaluate ``min eig(M^-1 - C Y C^T) > 0`` and its Schur-complement dual
    ``min eig(Y^-1 - C^T M C) > 0`` and report whether the verdicts agree."""
    C, Y = cert.sys.C, cert.Y
    if m.p != cert.sys.p:
        raise ValueError(f"slope bounds have {m.p} channels, system has {cert.sys.p}")
    try:
        Yinv = np.linalg.solve(Y, np.eye(Y.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise ValueError("Y is singular") from exc
    Yinv = 0.5 * (Yinv + Yinv.T)
    P1 = m.M_inv() - C @ Y @ C.T
    P2 = Yinv - C.T @ m.M() @ C
    margin1 = float(sym_eigenvalues(0.5 * (P1 + P1.T))[0])
    margin2 = float(sym_eigenvalues(0.5 * (P2 + P2.T))[0])
    hold1 = margin1 > 0.0
    hold2 = margin2 > 0.0
    return SchurReport(margin1, margin2, hold1, hold2,
                       "pass" if hold1 == hold2 else "fail")


# ---------------------------------------------------------------------------
# Quadrature-built shaped storage for diagonal slope-restricted feedback


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10,
                     max_intervals: int = 10 ** 6) -> float:
    """Adaptive Simpson quadrature of ``f`` on [a, b] to absolute tolerance
    ``tol``, with a hard cap on interval subdivisions."""
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    fa, fb = float(f(a)), float(f(b))
    mid = 0.5 * (a + b)
    fm = float(f(mid))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    stack = [(a, b, fa, fm, fb, whole, tol)]
    total = 0.0
    used = 0
    while stack:
        a0, b0, fa0, fm0, fb0, whole0, tol0 = stack.pop()
        m = 0.5 * (a0 + b0)
        lm = 0.5 * (a0 + m)
        rm = 0.5 * (m + b0)
        flm = float(f(lm))
        frm = float(f(rm))
        left = (m - a0) / 6.0 * (fa0 + 4.0 * flm + fm0)
        right = (b0 - m) / 6.0 * (fm0 + 4.0 * frm + fb0)
        delta = left + right - whole0
        if abs(delta) <= 15.0 * tol0:
            total += left + right + delta / 15.0
        else:
            used += 2
            if used > max_intervals:
                raise RuntimeError("adaptive Simpson exceeded its subdivision budget")
            half = 0.5 * tol0
            stack.append((a0, m, fa0, flm, fm0, left, half))
            stack.append((m, b0, fm0, frm, fb0, right, half))
    return sign * total


def dey_shaped_storage(cert: SsniCertificate, phi: StaticNonlinearity) -> ScalarField:
    """Shaped storage ``W(x) = x^T Y^-1 x / 2 - sum_i int_0^{(Cx)_i} phi_i``.

    This is :func:`make_shaped_storage` along ``y = Cx``.  Requires a diagonal
    nonlinearity (per-channel callables on ``phi.channels``); the channel
    integrals are evaluated by adaptive Simpson quadrature, with ``phi`` as
    their gradient.
    """
    if phi.channels is None:
        raise ValueError("nonlinearity must declare per-channel (diagonal) entries")
    if phi.p != cert.sys.p:
        raise ValueError(f"nonlinearity has {phi.p} channels, system has {cert.sys.p}")
    C = cert.sys.C
    Yinv = np.linalg.solve(cert.Y, np.eye(cert.Y.shape[0]))
    Yinv = 0.5 * (Yinv + Yinv.T)
    V_Y = ScalarField(cert.sys.n, lambda x: 0.5 * float(x @ Yinv @ x), lambda x: Yinv @ x)
    def f_value(y):
        total = 0.0  # a left fold: builtin sum() of floats is compensated from Python 3.12 on
        for c, s in zip(phi.channels, y):
            total += adaptive_simpson(c, 0.0, float(s))
        return total

    F = ScalarField.from_floats(phi.p, f_value, phi.phi_floats)
    return make_shaped_storage(V_Y, F, lambda x: C @ x, cert.sys.n,
                               h_jacobian=lambda x: C, name="W (slope-bound shaped)")


# ---------------------------------------------------------------------------
# Closed-loop matrix, Hurwitz test, minimality


def closed_loop_matrix(sys: LinearSystem, K) -> np.ndarray:
    """Static output feedback ``u = K y``: returns ``A + B K C``."""
    K = np.asarray(K, dtype=float)
    if K.shape != (sys.p, sys.p):
        raise ValueError(f"K must be {sys.p} x {sys.p}, got shape {K.shape}")
    return sys.A + sys.B @ K @ sys.C


def is_hurwitz(Acl) -> HurwitzReport:
    """Hurwitz test through the Lyapunov equation ``A^T P + P A = -I``.

    The equation is solved as a vectorized least-squares problem.  An
    inconsistent system (eigenvalue pair summing to zero with no solution)
    is reported as indeterminate; when a solution exists the verdict is the
    positive definiteness of P, which is conclusive either way.
    """
    A = np.asarray(Acl, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"need a square matrix, got shape {A.shape}")
    n = A.shape[0]
    eye = np.eye(n)
    K = np.kron(eye, A.T) + np.kron(A.T, eye)
    rhs = -eye.flatten(order="F")
    vec_p, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    residual = float(np.max(np.abs(K @ vec_p - rhs)))
    P = vec_p.reshape((n, n), order="F")
    scale = 1.0 + float(np.max(np.abs(P)))
    if residual > 1e-8 * scale:
        return HurwitzReport(math.nan, residual, "indeterminate",
                             note="Lyapunov operator is inconsistent (marginal spectrum)")
    if np.max(np.abs(P - P.T)) > 1e-8 * scale:
        return HurwitzReport(math.nan, residual, "indeterminate",
                             note="Lyapunov solution is not symmetric")
    P = 0.5 * (P + P.T)
    min_eig = float(sym_eigenvalues(P)[0])
    return HurwitzReport(min_eig, residual, "pass" if min_eig > TAU_PD else "fail")


def _pivoted_rank(M, rel_tol: float = 1e-9) -> int:
    """Numerical rank by Gaussian elimination with complete pivoting;
    pivots below ``rel_tol`` times the largest pivot do not count."""
    A = np.array(M, dtype=float)
    rows, cols = A.shape
    rank = 0
    first_pivot = None
    for r in range(min(rows, cols)):
        sub = np.abs(A[r:, r:])
        i, j = np.unravel_index(np.argmax(sub), sub.shape)
        pivot = sub[i, j]
        if first_pivot is None:
            first_pivot = pivot
        if pivot <= rel_tol * first_pivot:
            break
        A[[r, r + i], :] = A[[r + i, r], :]
        A[:, [r, r + j]] = A[:, [r + j, r]]
        A[r + 1:, r:] -= np.outer(A[r + 1:, r] / A[r, r], A[r, r:])
        rank += 1
    return rank


def check_minimal(sys: LinearSystem) -> MinimalityReport:
    """Rank tests on the controllability and observability matrices."""
    n = sys.n
    ctrb_blocks = [sys.B]
    obsv_blocks = [sys.C]
    for _ in range(n - 1):
        ctrb_blocks.append(sys.A @ ctrb_blocks[-1])
        obsv_blocks.append(obsv_blocks[-1] @ sys.A)
    rank_c = _pivoted_rank(np.hstack(ctrb_blocks))
    rank_o = _pivoted_rank(np.vstack(obsv_blocks))
    verdict = "pass" if (rank_c == n and rank_o == n) else "fail"
    return MinimalityReport(rank_c, rank_o, n, verdict)


def to_nonlinear(sys: LinearSystem) -> NonlinearSystem:
    """Wrap a linear system for use with the nonlinear tooling."""
    A, B, C = sys.A, sys.B, sys.C
    return NonlinearSystem(sys.n, sys.p,
                           lambda x, u: A @ x + B @ u,
                           lambda x: C @ x,
                           h_jacobian=lambda x: C,
                           name="linear")


# ---------------------------------------------------------------------------
# Certificate files


def load_certificate(path):
    """Read a JSON certificate {A, B, C, Y, mu?} (row-major nested arrays).

    Returns ``(system, certificate, slope_bounds_or_None)``; malformed input
    raises ``ValueError`` (or ``OSError`` from reading the file).
    """
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except RecursionError as exc:
            raise ValueError("certificate JSON is nested too deeply") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"certificate must be a JSON object, got {type(payload).__name__}")
    for key in ("A", "B", "C", "Y"):
        if key not in payload:
            raise ValueError(f"certificate file is missing field {key!r}")
    try:
        sys = LinearSystem(payload["A"], payload["B"], payload["C"])
        cert = SsniCertificate(sys, payload["Y"])
        slopes = SlopeBounds(payload["mu"]) if payload.get("mu") is not None else None
    except (TypeError, OverflowError) as exc:  # an object, or an integer beyond float range
        raise ValueError(f"certificate fields must be arrays of numbers ({exc})") from exc
    if slopes is not None and slopes.p != sys.p:
        raise ValueError(f"mu has {slopes.p} entries, system has {sys.p} channels")
    return sys, cert, slopes
