"""Linear specialization: state-space certificates, slope-bound conditions,
and the dense symmetric eigensolver and quadrature that back them.

A certificate here is a supplied (A, B, C, Y); the module verifies it, it
does not synthesize Y (no semidefinite programming involved).
"""

from __future__ import annotations

import functools
import json
import math
from typing import Optional

import numpy as np

from .sysmodel import (Check, LinearSystem, NonlinearSystem, ScalarField,
                       StaticNonlinearity, TAU_PD, TAU_ZERO, make_shaped_storage)


# ---------------------------------------------------------------------------
# Dense symmetric eigenvalues by cyclic Jacobi rotations


@functools.lru_cache(maxsize=8)  # one sweep per size; its table is O(n^3) ints, 8 MB at n = 100
def _jacobi_sweep(n: int):
    """``sweep(m, table)``, one cyclic Jacobi sweep on ``m``: an n x n symmetric matrix as its
    diagonal, then its upper off-diagonal entries row-major.  Each row of ``table`` is one
    rotation (p, q), in cyclic order: the indices in ``m`` of (p, p), (q, q), (p, q), then of
    (j, p), (j, q) for each j outside {p, q}."""
    rows, cols = np.triu_indices(n, 1)
    at = np.diag(np.arange(n))
    at[rows, cols] = at[cols, rows] = np.arange(n, n + rows.size)
    ix = at.tolist()
    table = tuple((ix[p][p], ix[q][q], ix[p][q],
                   *(k for j in range(n) if j not in (p, q) for k in (ix[j][p], ix[j][q])))
                  for p in range(n - 1) for q in range(p + 1, n))
    pairs = "".join(f"x{j}, y{j}, " for j in range(n - 2))
    off_block = "".join(f"        a, b = m[x{j}], m[y{j}]\n"
                        f"        m[x{j}], m[y{j}] = c * a - s * b, s * a + c * b\n"
                        for j in range(n - 2))
    namespace = {"hypot": math.hypot, "sqrt": math.sqrt}
    exec(compile(f"""def sweep(m, table):
    for pp, qq, pq, {pairs}in table:
        apq = m[pq]
        if apq == 0.0:
            continue
        app, aqq = m[pp], m[qq]
        tau = (aqq - app) / (2.0 * apq)
        t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + hypot(1.0, tau))
        c = 1.0 / sqrt(1.0 + t * t)
        s = t * c
{off_block}        m[pp] = c * (c * app - s * apq) - s * (c * apq - s * aqq)  # columns, then rows
        m[qq] = s * (s * app + c * apq) + c * (s * apq + c * aqq)
        m[pq] = 0.0
""", f"<Jacobi sweep on {n} x {n}>", "exec"), namespace)
    return namespace["sweep"], table


def sym_eigenvalues(S) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending.

    Cyclic Jacobi rotations on Python floats, iterated until the off-diagonal Frobenius
    norm (``math.hypot``'s) is at most 1e-12 times the matrix norm.  A sweep is one
    function per size, generated at first use: it rotates the upper triangle, each
    entry once.  The matrix stays bitwise symmetric, so the column and the row
    rotation of the full matrix round the same products there.  Rejects inputs
    whose norm is not finite or whose asymmetry exceeds TAU_ZERO relative to it.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"need a square matrix, got shape {S.shape}")
    mirrored = S.tobytes() == S.T.tobytes()  # bits, not ==: 0.5 * (-0.0 + 0.0) is 0.0
    with np.errstate(over="ignore"):  # the norm of entries beyond ~1e154 overflows
        fro = float(np.linalg.norm(S))
        if not math.isfinite(fro) and np.isfinite(S).all():
            raise ValueError("matrix entries are finite but too large for a finite norm")
        if not math.isfinite(fro) or not mirrored and np.linalg.norm(S - S.T) > TAU_ZERO * fro:
            raise ValueError("matrix must be finite and symmetric within tolerance")
    n = S.shape[0]
    rows = (S if mirrored else 0.5 * (S + S.T)).tolist()  # a finite S is 0.5 * (S + S) exactly
    m = [r[i] for i, r in enumerate(rows)] + [v for i, r in enumerate(rows) for v in r[i + 1:]]
    if not any(m[n:]):  # diagonal, or n <= 1: nothing to generate
        return np.sort(m[:n])
    sweep, table = _jacobi_sweep(n)
    target = 1e-12 * fro
    for _ in range(60):
        if math.hypot(*m[n:], *m[n:]) <= target:  # the full matrix's off-diagonal norm
            break
        sweep(m, table)
    else:
        raise RuntimeError("Jacobi iteration did not converge")
    return np.sort(m[:n])


def _symmetric_part(X) -> np.ndarray:
    """``0.5 * (X + X.T)``, or ``0.5 * X + 0.5 * X.T`` where that sum overflows on finite X."""
    with np.errstate(over="ignore"):
        S = 0.5 * (X + X.T)
    return S if np.isfinite(S).all() or not np.isfinite(X).all() else 0.5 * X + 0.5 * X.T


def _min_eigenvalue(X) -> float:
    """Smallest eigenvalue of the symmetric part of ``X``, scaled by an exact power of two
    first where its norm overflows on finite entries (slopes near 1e300 or 1e-300)."""
    S = _symmetric_part(X)
    with np.errstate(over="ignore"):  # scaled back, an eigenvalue beyond 1.8e308 is an infinity
        if math.isfinite(float(np.linalg.norm(S))):  # unscaled: 2^0 would only copy S
            return float(sym_eigenvalues(S)[0])
        scale = math.frexp(np.max(np.abs(S)))[1]
        return float(np.ldexp(sym_eigenvalues(np.ldexp(S, -scale))[0], scale))


# ---------------------------------------------------------------------------
# Certificates and slope bounds


def _cholesky_proves_pd(S) -> bool:
    """Whether Cholesky proves Jacobi's lambda_min of a bitwise symmetric ``S`` above TAU_PD: a
    factor R of T = fl(S - sigma I), sigma = TAU_PD + c |S|_F, c = 1e-8, has R^T R = T + E >= 0,
    |E|_2 <= n g |T|_2 < 4.7e-13 |T|_2 for n <= 64, g = (n+1)u/(1 - (n+1)u), u = 2**-53 (Demmel
    1989; Higham 2002, Thm 10.7).  With sigma's and T's rounding, lambda_min(S) > TAU_PD + (c -
    2e-12) |S|_F (the TAU_PD terms fit in |S|_F >= lambda_min(S)).  Jacobi's diagonal lies within
    its stop target 1e-12 |S|_F plus its rotations' rounding, under 60 sweeps x 2016 rotations x
    20u |S|_F < 2.7e-10 |S|_F, of S's eigenvalues.  False (Jacobi decides) where the factorization
    fails, |S|_F is not finite or n > 64."""
    with np.errstate(over="ignore"):
        fro = float(np.linalg.norm(S))
    try:
        if fro < math.inf and len(S) <= 64:
            np.linalg.cholesky(S - (TAU_PD + 1e-8 * fro) * np.eye(len(S)))
            return True
    except np.linalg.LinAlgError:
        pass
    return False


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
        S = _symmetric_part(Y)
        if not _cholesky_proves_pd(S) and sym_eigenvalues(S)[0] <= TAU_PD:
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
# Certificate checks


def check_ssni(cert: SsniCertificate) -> Check:
    """Verify ``max eig(AY + YA^T) < -TAU_PD`` and ``B = -A Y C^T``.

    The worst value is that largest eigenvalue; the witness is the structure
    residual ``max |B + A Y C^T|``.
    """
    A, B, C, Y = cert.sys.A, cert.sys.B, cert.sys.C, cert.Y
    max_eig = float(sym_eigenvalues(_symmetric_part(A @ Y + Y @ A.T))[-1])
    residual = float(np.max(np.abs(B + A @ Y @ C.T)))
    ok = max_eig < -TAU_PD and residual <= TAU_ZERO * (1.0 + np.max(np.abs(B)))
    return Check("pass" if ok else "fail", max_eig, (residual,))


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
        if not err <= 1e-9 * (1.0 + np.max(np.abs(G_cert))):  # a NaN gain fails too
            raise ArithmeticError(
                f"DC-gain cross-check failed: |(-C A^-1 B) - C Y C^T|_max = {err:.3e}")
    return G0


def dey_condition(sys: LinearSystem, cert: Optional[SsniCertificate],
                  m: SlopeBounds) -> Check:
    """Slope-bound stability condition: ``M^-1 - G(0) > 0``.

    G(0) is symmetrized in the eigenvalue test.  The worst value is the
    margin ``min eig(M^-1 - G(0))``; there is no witness.
    """
    if m.p != sys.p:
        raise ValueError(f"slope bounds have {m.p} channels, system has {sys.p}")
    G0 = dc_gain(sys, cert)
    margin = _min_eigenvalue(m.M_inv() - G0)
    return Check("pass" if margin > TAU_PD else "fail", margin)


def schur_equivalence(cert: SsniCertificate, m: SlopeBounds) -> Check:
    """Evaluate ``min eig(M^-1 - C Y C^T) > 0`` and its Schur-complement dual
    ``min eig(Y^-1 - C^T M C) > 0``: "pass" when the two predicates agree.

    The witness is the two margins, primal first, and the worst value the
    smaller of them.
    """
    C, Y = cert.sys.C, cert.Y
    if m.p != cert.sys.p:
        raise ValueError(f"slope bounds have {m.p} channels, system has {cert.sys.p}")
    try:
        Yinv = np.linalg.solve(Y, np.eye(Y.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise ValueError("Y is singular") from exc
    margin1 = _min_eigenvalue(m.M_inv() - C @ Y @ C.T)
    margin2 = _min_eigenvalue(_symmetric_part(Yinv) - C.T @ m.M() @ C)
    verdict = "pass" if (margin1 > 0.0) == (margin2 > 0.0) else "fail"
    return Check(verdict, min(margin1, margin2), (margin1, margin2))


# ---------------------------------------------------------------------------
# Quadrature-built shaped storage for diagonal slope-restricted feedback

_SIMPSON_TOL, _SIMPSON_INTERVALS = 1e-10, 10 ** 6  # adaptive_simpson's tolerance and budget


def adaptive_simpson(f, a: float, b: float) -> float:
    """Adaptive Simpson quadrature of ``f`` on [a, b] to absolute tolerance
    1e-10; more than 10**6 interval subdivisions raise ``RuntimeError``."""
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
    stack = [(a, b, fa, fm, fb, whole, _SIMPSON_TOL)]
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
            if used > _SIMPSON_INTERVALS:
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
    Yinv = _symmetric_part(np.linalg.solve(cert.Y, np.eye(cert.Y.shape[0])))
    V_Y = ScalarField(cert.sys.n, lambda x: 0.5 * float(x @ Yinv @ x), lambda x: Yinv @ x)
    def f_value(y):
        total = 0.0  # a left fold: builtin sum() of floats is compensated from Python 3.12 on
        for c, s in zip(phi.channels, y):
            total += adaptive_simpson(c, 0.0, float(s))
        return total

    F = ScalarField.from_floats(phi.p, f_value, phi.phi_floats)
    return make_shaped_storage(V_Y, F, lambda x: C @ x, cert.sys.n,
                               h_jacobian=C, name="W (slope-bound shaped)")


# ---------------------------------------------------------------------------
# Closed-loop matrix, Hurwitz test, minimality


def closed_loop_matrix(sys: LinearSystem, K) -> np.ndarray:
    """Static output feedback ``u = K y``: returns ``A + B K C``."""
    K = np.asarray(K, dtype=float)
    if K.shape != (sys.p, sys.p):
        raise ValueError(f"K must be {sys.p} x {sys.p}, got shape {K.shape}")
    return sys.A + sys.B @ K @ sys.C


def is_hurwitz(Acl) -> Check:
    """Hurwitz test through the Lyapunov equation ``A^T P + P A = -I``.

    The equation is solved as a vectorized least-squares problem.  An
    inconsistent system (eigenvalue pair summing to zero with no solution)
    or a solution that is not symmetric is reported as indeterminate, with a
    NaN worst value; when a symmetric solution exists the verdict is the
    positive definiteness of P, which is conclusive either way, and the worst
    value is the smallest eigenvalue of P.
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
    if residual > 1e-8 * scale or np.max(np.abs(P - P.T)) > 1e-8 * scale:
        return Check("indeterminate", math.nan)
    min_eig = float(sym_eigenvalues(_symmetric_part(P))[0])
    return Check("pass" if min_eig > TAU_PD else "fail", min_eig)


def _unit_scaled(block) -> np.ndarray:
    """``block`` exactly scaled by the power of two that puts its largest entry in
    [0.5, 1); a zero block stays zero (``frexp(0.0)`` has exponent 0)."""
    return np.ldexp(block, -math.frexp(float(np.max(np.abs(block), initial=0.0)))[1])


def check_minimal(sys: LinearSystem) -> Check:
    """Controllable and observable dimensions by one orthogonal staircase, on (A, B)
    and, by duality, on (A^T, C^T).  A step counts the r singular values above 1e-9
    of the current B, whose SVD gives U; in U^T A U the rows past r give the next B
    (first r columns) and A (the rest), until B is empty: r is 0 or no row is left.
    A, B and C are scaled once, each by the power of two that puts its largest
    entry in [0.5, 1), so no block overflows, no power of A is formed and the ranks
    do not change under ``A -> cA``.  The witness is the two dimensions (the sums
    of the ranks), controllability first; the worst value the smaller."""
    dims = []
    for A, B in ((sys.A, sys.B), (sys.A.T, sys.C.T)):
        A, B, dim = _unit_scaled(A), _unit_scaled(B), 0
        while B.size:
            U, s, _ = np.linalg.svd(B)
            r = int(np.count_nonzero(s > 1e-9))
            T = U.T @ A @ U
            dim, A, B = dim + r, T[r:, r:], T[r:, :r]
        dims.append(dim)
    verdict = "pass" if dims == [sys.n, sys.n] else "fail"
    return Check(verdict, min(dims), tuple(dims))


def to_nonlinear(sys: LinearSystem) -> NonlinearSystem:
    """Wrap a linear system for use with the nonlinear tooling."""
    A, B, C = sys.A, sys.B, sys.C
    return NonlinearSystem(sys.n, sys.p, lambda x, u: A @ x + B @ u, lambda x: C @ x,
                           h_jacobian=C, name="linear")


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
