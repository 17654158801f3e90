"""Core system and storage primitives for Lur'e feedback analysis.

Plants are plain state-space systems ``x' = f(x, u)``, ``y = h(x)`` with
matched input/output dimension, storage candidates are scalar fields with
optional analytic gradients, and feedback nonlinearities are memoryless maps
that may carry the potential they are the gradient of.  Everything here is
immutable after construction and evaluation routines are expected to be pure,
so instances are safe to share across threads.

Each model stores one form of every callable, its float form: the function
on sequences of Python floats, returning a sequence or a float.  A model
built with ``from_floats`` stores the float forms it is given; a model built
from numpy callables adapts each of them once (``np.array`` in,
``.tolist()`` out).  The numpy-facing methods derive from the float form, the
composition operations compose float forms, and :func:`nishape.sim.simulate`
steps on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import ClassVar, Optional

import numpy as np

# Shared numeric tolerances.
TAU_ZERO = 1e-9        # absolute "is zero" tolerance
TAU_GRAD = 1e-5        # relative gradient-agreement tolerance
TAU_GRAD_FLOOR = 1e-8  # absolute floor under TAU_GRAD
TAU_PD = 1e-9          # strict positive-definiteness margin


@dataclass(frozen=True, eq=False)
class Report:
    """Base of every check report: a ``verdict``, a worst value and a witness.

    Subclasses declare ``verdict`` (a field, or a class constant for purely
    informational reports) and name their fields: the worst value is the
    smallest of ``worst_fields``, and the witness is the concatenation of
    ``witness_fields`` (scalars or vectors; a field holding None adds nothing).
    """

    worst_fields: ClassVar[tuple] = ()
    witness_fields: ClassVar[tuple] = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def worst_value(self) -> float:
        return float(min(getattr(self, name) for name in self.worst_fields))

    @property
    def witness(self) -> tuple:
        parts = (getattr(self, name) for name in self.witness_fields)
        return tuple(float(v) for part in parts if part is not None
                     for v in np.atleast_1d(part))


_FLOAT64 = np.dtype(float)


def _listed(result) -> list:
    """A numpy callable's result (an array, or any sequence) as a list of floats."""
    if type(result) is np.ndarray and result.dtype is _FLOAT64:
        return result.tolist()
    return np.asarray(result, dtype=float).tolist()


def fd_step(x) -> float:
    """Central-difference step, 1e-6 scaled by the probe point's size."""
    return 1e-6 * max(1.0, float(np.linalg.norm(x)))


def central_gradient(func, x, step: Optional[float] = None) -> np.ndarray:
    return central_jacobian(func, x, 1, step)[0]


def central_jacobian(func, x, n_out: int, step: Optional[float] = None) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    h = fd_step(x) if step is None else float(step)
    jac = np.empty((n_out, x.size))
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        jac[:, j] = (np.asarray(func(x + e), dtype=float)
                     - np.asarray(func(x - e), dtype=float)) / (2.0 * h)
    return jac


class ScalarField:
    """A differentiable scalar function on R^dim vanishing at the origin.

    When no analytic gradient is supplied, the gradient falls back to central
    finite differences of the value with step :func:`fd_step`.
    """

    def __init__(self, dim: int, value, gradient=None, name: str = ""):
        self._store(dim, lambda x: float(value(np.array(x, dtype=float))),
                    None if gradient is None
                    else lambda x: _listed(gradient(np.array(x, dtype=float))), name)

    @classmethod
    def from_floats(cls, dim: int, value, gradient=None, name: str = "") -> "ScalarField":
        """The field of a float form: ``value(x)`` returns a float and the
        optional ``gradient(x)`` a sequence, for ``x`` a sequence of floats."""
        return cls.__new__(cls)._store(dim, value, gradient, name)

    def _store(self, dim, value, gradient, name):
        dim = int(dim)
        if dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim}")
        self.dim = dim
        self.value_floats = value
        self.has_analytic_gradient = gradient is not None
        self.gradient_floats = gradient or (lambda x: central_gradient(self.value, x).tolist())
        self.name = name
        v0 = float(value([0.0] * dim))
        if not abs(v0) <= TAU_ZERO:
            raise ValueError(f"scalar field must vanish at the origin, got value(0) = {v0}")
        return self

    def value(self, x) -> float:
        return float(self.value_floats(np.asarray(x, dtype=float).tolist()))

    def gradient(self, x) -> np.ndarray:
        return np.asarray(self.gradient_floats(np.asarray(x, dtype=float).tolist()), dtype=float)

    def gradients(self, xs) -> np.ndarray:
        """The gradients at the rows of ``xs``: bit for bit the stacked :meth:`gradient`."""
        grads = [self.gradient_floats(x) for x in np.asarray(xs, dtype=float).tolist()]
        return np.array(grads, dtype=float).reshape(len(xs), self.dim)


def zero_field(dim: int) -> ScalarField:
    """The identically-zero field (useful as an empty potential)."""
    return ScalarField.from_floats(dim, lambda x: 0.0, lambda x: [0.0] * dim, name="0")


class NonlinearSystem:
    """State-space system ``x' = f(x, u)``, ``y = h(x)``.

    Input and output share the dimension ``n_io <= n_states`` and the origin
    must be an equilibrium: ``f(0, 0) = 0`` and ``h(0) = 0`` are enforced at
    construction, together with a determinism probe (two evaluations of ``f``
    at identical arguments must agree bitwise).  ``h_jacobian`` is an optional
    numpy callable; without it :meth:`output_jacobian` uses central differences.
    """

    def __init__(self, n_states: int, n_io: int, f, h, h_jacobian=None, name: str = ""):
        self._store(n_states, n_io,
                    lambda x, u: _listed(f(np.array(x, dtype=float), np.array(u, dtype=float))),
                    lambda x: _listed(h(np.array(x, dtype=float))), h_jacobian, name)

    @classmethod
    def from_floats(cls, n_states: int, n_io: int, f, h, h_jacobian=None,
                    name: str = "") -> "NonlinearSystem":
        """The system of float forms ``f(x, u)`` and ``h(x)``: sequences of
        floats in, a sequence out."""
        return cls.__new__(cls)._store(n_states, n_io, f, h, h_jacobian, name)

    def _store(self, n_states, n_io, f, h, h_jacobian, name):
        n_states, n_io = int(n_states), int(n_io)
        if n_states < 1:
            raise ValueError(f"n_states must be positive, got {n_states}")
        if n_io < 1 or n_io > n_states:
            raise ValueError(
                f"n_io must satisfy 1 <= n_io <= n_states, got n_io={n_io}, n_states={n_states}")
        self.n_states, self.n_io = n_states, n_io
        self.f_floats, self.h_floats, self.h_jacobian = f, h, h_jacobian
        self.name = name
        x0, u0 = [0.0] * n_states, [0.0] * n_io
        fx = np.asarray(f(x0, u0), dtype=float)
        if fx.shape != (n_states,):
            raise ValueError(f"f must return a length-{n_states} vector, got shape {fx.shape}")
        if not np.linalg.norm(fx) <= TAU_ZERO:
            raise ValueError(f"origin must be an equilibrium: |f(0,0)| = {np.linalg.norm(fx)}")
        if not np.array_equal(fx, np.asarray(f(x0, u0), dtype=float)):
            raise ValueError("f must be deterministic: repeated evaluation disagreed")
        hx = np.asarray(h(x0), dtype=float)
        if hx.shape != (n_io,):
            raise ValueError(f"h must return a length-{n_io} vector, got shape {hx.shape}")
        if not np.linalg.norm(hx) <= TAU_ZERO:
            raise ValueError(f"output must vanish at the origin: |h(0)| = {np.linalg.norm(hx)}")
        return self

    def f(self, x, u) -> np.ndarray:
        return np.asarray(self.f_floats(np.asarray(x, dtype=float).tolist(),
                                        np.asarray(u, dtype=float).tolist()), dtype=float)

    def h(self, x) -> np.ndarray:
        return np.asarray(self.h_floats(np.asarray(x, dtype=float).tolist()), dtype=float)

    def output_jacobian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.h_jacobian is not None:
            # C order: a Fortran-ordered one takes another BLAS path than a stacked product
            return np.ascontiguousarray(self.h_jacobian(x), dtype=float)
        return central_jacobian(self.h, x, self.n_io)


class StaticNonlinearity:
    """Memoryless feedback map ``phi: R^p -> R^p`` with ``phi(0) = 0``.

    ``potential`` optionally names a scalar field F with ``grad F = phi``;
    consistency is probed by :func:`gradient_check` rather than at
    construction.  ``channels`` optionally declares phi as decoupled scalar
    maps ``phi_i(y_i)``, which the slope-bound machinery in
    :mod:`nishape.linear` requires.
    """

    def __init__(self, p: int, phi=None, potential: Optional[ScalarField] = None,
                 channels=None, name: str = ""):
        if phi is None:
            if channels is None:
                raise ValueError("either phi or channels must be given")
            channels = tuple(channels)

            def phi(y):
                return [float(c(s)) for c, s in zip(channels, y)]

        self._store(p, lambda y: _listed(phi(np.array(y, dtype=float))), potential, channels, name)

    @classmethod
    def from_floats(cls, p: int, phi, potential: Optional[ScalarField] = None,
                    channels=None, name: str = "") -> "StaticNonlinearity":
        """The feedback of a float form ``phi(y)``: a sequence of floats in,
        a sequence out."""
        return cls.__new__(cls)._store(p, phi, potential, channels, name)

    def _store(self, p, phi, potential, channels, name):
        p = int(p)
        if p < 1:
            raise ValueError(f"p must be positive, got {p}")
        if channels is not None:
            channels = tuple(channels)
            if len(channels) != p:
                raise ValueError(f"need {p} channels, got {len(channels)}")
        if potential is not None and potential.dim != p:
            raise ValueError(f"potential dimension {potential.dim} != p = {p}")
        self.p = p
        self.phi_floats = phi
        self.potential = potential
        self.channels = channels
        self.name = name
        v0 = np.asarray(phi([0.0] * p), dtype=float)
        if v0.shape != (p,):
            raise ValueError(f"phi must return a length-{p} vector, got shape {v0.shape}")
        if not np.linalg.norm(v0) <= TAU_ZERO:
            raise ValueError(f"phi must vanish at the origin: |phi(0)| = {np.linalg.norm(v0)}")
        return self

    def phi(self, y) -> np.ndarray:
        return np.asarray(self.phi_floats(np.asarray(y, dtype=float).tolist()), dtype=float)


class HamiltonianSystem:
    """Input-output Hamiltonian system
    ``x' = [J(x) - R(x)] (grad H(x) - grad C(x)^T u)``, ``y = C(x)``.

    J must be skew-symmetric and R symmetric; both are probed at the origin
    and on a small ring of axis points at construction.  ``grad_C_fn`` is the
    optional analytic Jacobian of C; central differences otherwise.
    """

    _PROBE_RADIUS = 0.1

    def __init__(self, n: int, p: int, J, R, H: ScalarField, C, grad_C_fn=None):
        n = int(n)
        p = int(p)
        if n < 1 or p < 1 or p > n:
            raise ValueError(f"need 1 <= p <= n, got n={n}, p={p}")
        if H.dim != n:
            raise ValueError(f"Hamiltonian dimension {H.dim} != n = {n}")
        self.n = n
        self.p = p
        self.J = J
        self.R = R
        self.H = H
        self.C = C
        self._grad_C_fn = grad_C_fn

        probes = [np.zeros(n)]
        for i in range(n):
            e = np.zeros(n)
            e[i] = self._PROBE_RADIUS
            probes.append(e)
        for x in probes:
            Jx = np.asarray(J(x), dtype=float)
            Rx = np.asarray(R(x), dtype=float)
            if Jx.shape != (n, n) or Rx.shape != (n, n):
                raise ValueError("J and R must return n x n matrices")
            if np.max(np.abs(Jx + Jx.T)) > TAU_ZERO:
                raise ValueError(f"J is not skew-symmetric at probe {x}")
            if np.max(np.abs(Rx - Rx.T)) > TAU_ZERO:
                raise ValueError(f"R is not symmetric at probe {x}")
        C0 = np.asarray(C(np.zeros(n)), dtype=float)
        if C0.shape != (p,):
            raise ValueError(f"C must return a length-{p} vector, got shape {C0.shape}")
        if np.linalg.norm(C0) > TAU_ZERO:
            raise ValueError(f"output map must vanish at the origin: |C(0)| = {np.linalg.norm(C0)}")

    def grad_C(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._grad_C_fn is not None:
            return np.asarray(self._grad_C_fn(x), dtype=float)
        return central_jacobian(self.C, x, self.p)


class LinearSystem:
    """Matrices (A, B, C) of ``x' = Ax + Bu``, ``y = Cx``."""

    def __init__(self, A, B, C):
        A = np.array(A, dtype=float)
        B = np.array(B, dtype=float)
        C = np.array(C, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        if B.ndim != 2 or B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got shape {B.shape}")
        p = B.shape[1]
        if C.shape != (p, n):
            raise ValueError(f"C must be {p} x {n}, got shape {C.shape}")
        for label, M in (("A", A), ("B", B), ("C", C)):
            if not np.isfinite(M).all():
                raise ValueError(f"{label} contains non-finite entries")
        for M in (A, B, C):
            M.setflags(write=False)
        self.A = A
        self.B = B
        self.C = C
        self.n = n
        self.p = p


# ---------------------------------------------------------------------------
# Composition operations


def make_closed_loop(sys: NonlinearSystem, nl: StaticNonlinearity) -> NonlinearSystem:
    """Close ``u = phi(y) + v`` around the plant; v is the new input."""
    if sys.n_io != nl.p:
        raise ValueError(
            f"plant input/output dimension {sys.n_io} does not match "
            f"nonlinearity dimension {nl.p}")
    f, h, phi = sys.f_floats, sys.h_floats, nl.phi_floats

    def f_closed(x, v):
        # numpy's ``phi(h(x)) + v``, entry by entry: a zero v is still added (-0.0 + 0.0 is 0.0)
        return f(x, list(map(add, phi(h(x)), v)))

    return NonlinearSystem.from_floats(sys.n_states, sys.n_io, f_closed, h,
                                       h_jacobian=sys.h_jacobian,
                                       name=f"{sys.name or 'plant'} / {nl.name or 'feedback'}")


def make_shaped_storage(V: ScalarField, F: ScalarField, h, n: int,
                        h_jacobian=None, name: str = "W", h_floats=None) -> ScalarField:
    """Storage shaped along the output: ``W(x) = V(x) - F(h(x))``.

    ``h`` is a numpy callable and ``h_floats`` its float form (a system's
    ``h_floats``); without it, ``h`` is adapted.  The gradient is assembled by
    the chain rule only when the gradients of V and F and the output Jacobian
    are all analytic; any missing piece makes the whole field fall back to
    finite differences so truncation errors stay on a single scale.
    """
    n = int(n)
    if V.dim != n:
        raise ValueError(f"V has dimension {V.dim}, expected n = {n}")
    h_floats = h_floats or (lambda x: _listed(h(np.array(x, dtype=float))))
    y0 = np.asarray(h_floats([0.0] * n), dtype=float)
    if y0.shape != (F.dim,):
        raise ValueError(f"h maps into R^{y0.size}, but F has dimension {F.dim}")
    v_value, f_value = V.value_floats, F.value_floats

    def w_value(x):
        return v_value(x) - f_value(h_floats(x))

    w_gradient = None
    if V.has_analytic_gradient and F.has_analytic_gradient and h_jacobian is not None:
        def w_gradient(x):
            jac = np.ascontiguousarray(h_jacobian(np.array(x, dtype=float)), dtype=float)
            return (np.asarray(V.gradient_floats(x), dtype=float)
                    - jac.T @ np.asarray(F.gradient_floats(h_floats(x)), dtype=float))

        def w_gradients(xs):  # w_gradient's product stacked: the same kernel per item
            xs = np.asarray(xs, dtype=float)
            js = np.array([h_jacobian(x) for x in xs], dtype=float)  # C order, as in w_gradient
            ys = np.array([h_floats(x) for x in xs.tolist()], dtype=float).reshape(len(xs), F.dim)
            return V.gradients(xs) - np.matmul(js.reshape(len(xs), F.dim, n).transpose(0, 2, 1),
                                               F.gradients(ys)[:, :, None])[:, :, 0]

    W = ScalarField.from_floats(n, w_value, w_gradient, name=name)
    if w_gradient is not None:
        W.gradients = w_gradients
    return W


def hamiltonian_to_nonlinear(hs: HamiltonianSystem) -> NonlinearSystem:
    """Realize the Hamiltonian dynamics as a plain state-space system (J and R
    were probed when ``hs`` was built)."""
    J, R, H, C, grad_C = hs.J, hs.R, hs.H, hs.C, hs.grad_C

    def f(x, u):
        return (np.asarray(J(x), dtype=float) - np.asarray(R(x), dtype=float)) @ (
            H.gradient(x) - grad_C(x).T @ np.asarray(u, dtype=float))

    def h(x):
        return np.asarray(C(x), dtype=float)

    return NonlinearSystem(hs.n, hs.p, f, h, h_jacobian=grad_C, name="hamiltonian")


# ---------------------------------------------------------------------------
# Gradient consistency probing


@dataclass(frozen=True, eq=False)
class GradientCheckReport(Report):
    max_deviation: float
    worst_point: Optional[np.ndarray]
    n_points: int
    verdict: str  # "pass" | "fail" | "nothing to check"

    worst_fields = ("max_deviation",)
    witness_fields = ("worst_point",)


def gradient_check(field: ScalarField, points) -> GradientCheckReport:
    """Probe an analytic gradient against central finite differences.

    The deviation at a point is ``|g_an - g_fd| / max(|g_fd|, 1e-3)``, so the
    TAU_GRAD verdict corresponds to a 1e-5 relative tolerance with a 1e-8
    absolute floor.  Fields without an analytic gradient report
    "nothing to check".
    """
    if not field.has_analytic_gradient:
        return GradientCheckReport(0.0, None, 0, "nothing to check")
    floor = TAU_GRAD_FLOOR / TAU_GRAD
    worst = -1.0
    worst_pt = None
    count = 0
    for pt in points:
        pt = np.asarray(pt, dtype=float)
        if pt.shape != (field.dim,):
            raise ValueError(f"probe point has shape {pt.shape}, field dimension is {field.dim}")
        g_an = field.gradient(pt)
        g_fd = central_gradient(field.value, pt)
        dev = float(np.linalg.norm(g_an - g_fd) / max(np.linalg.norm(g_fd), floor))
        count += 1
        if dev > worst:
            worst, worst_pt = dev, pt
    verdict = "pass" if worst <= TAU_GRAD else "fail"
    return GradientCheckReport(worst, worst_pt, count, verdict)
