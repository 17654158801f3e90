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
steps on them.  A float form written as source (:func:`float_form`) keeps its
text, and a composition of such forms is one body spliced from their texts.
"""

from __future__ import annotations

import ast
import functools
import itertools
import math
import re
import textwrap
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

# Shared numeric tolerances.
TAU_ZERO = 1e-9        # absolute "is zero" tolerance
TAU_GRAD = 1e-5        # relative gradient-agreement tolerance
TAU_GRAD_FLOOR = 1e-8  # absolute floor under TAU_GRAD
TAU_PD = 1e-9          # strict positive-definiteness margin
_CHUNK = 1024  # knots per block of a whole-record pass: step loop, rate table, _on_rows


@dataclass(frozen=True, eq=False)
class Check:
    """The outcome of one check: its ``verdict``, the worst value it found,
    the ``witness`` of that value (a tuple of floats, empty when there is
    none), the number of points it sampled (0 for a check that samples none)
    and ``detail``, a read-only mapping of the further values its callers read.

    Each check function states its worst value and witness itself.
    ``passed`` is the one pass policy, read by every caller that gates on a check.
    """

    verdict: str
    worst_value: float
    witness: tuple = ()
    n_samples: int = 0
    detail: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "worst_value", float(self.worst_value))
        object.__setattr__(self, "witness", tuple(map(float, self.witness)))
        object.__setattr__(self, "detail", MappingProxyType(dict(self.detail)))

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "skipped", "info", "flagged")


_FLOAT64 = np.dtype(float)


def _listed(result) -> list:
    """A numpy callable's result (an array, a sequence or a bare number) as a list of floats."""
    if type(result) is np.ndarray and result.dtype is _FLOAT64 and result.ndim:
        return result.tolist()
    return np.atleast_1d(np.asarray(result, dtype=float)).tolist()


def _norm(x) -> float:
    """``np.linalg.norm(x)``, retaken by ``_row_norms`` on overflow, its warning the caller's."""
    norm = float(np.linalg.norm(x))
    if norm == math.inf:
        norm = float(_row_norms(np.array([x], dtype=float), np.array([norm]))[0])
    return norm


def fd_step(x) -> float:
    """Central-difference step, 1e-6 scaled by the probe point's size (``_norm``)."""
    with np.errstate(over="ignore"):
        return 1e-6 * max(1.0, _norm(x))


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A[k] @ B[k]`` for every row k, by numpy's 1-D ``@`` kernel."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def _row_norms(rows, norms=None):
    """Each row's norm, ``norms`` or ``np.linalg.norm(rows, axis=1)``; one that overflowed, or
    underflowed to 0 on a nonzero finite row, is taken again on the row over its largest entry."""
    norms = np.linalg.norm(rows, axis=1) if norms is None else norms
    redo = (np.isinf(norms) | (norms == 0.0)) & np.isfinite(rows).all(axis=1) & rows.any(axis=1)
    big = np.max(np.abs(rows[redo]), axis=1, keepdims=True)
    norms[redo] = big[:, 0] * np.linalg.norm(rows[redo] / big, axis=1)
    return norms


def central_gradient(func, x) -> np.ndarray:
    """Central differences of the scalar float form ``func`` at the floats ``x``."""
    return central_jacobian(lambda x: (float(func(x)),), x, 1)[0]


def central_jacobian(func, x, n_out: int) -> np.ndarray:
    """Central differences of the float form ``func`` (``n_out`` floats out) at the
    floats ``x``.  Each probe is numpy's ``x + e`` or ``x - e`` entry by entry: the
    ``+`` side adds 0.0 to every other entry, which turns a -0.0 into 0.0."""
    h = fd_step(x)
    two_h = 2.0 * h
    jac = np.empty((n_out, len(x)))
    for j, xj in enumerate(x):
        plus, minus = [xi + 0.0 for xi in x], list(x)
        plus[j], minus[j] = xj + h, xj - h
        jac[:, j] = [(a - b) / two_h for a, b in zip(func(plus), func(minus))]
    return jac


# ---------------------------------------------------------------------------
# Float forms written as source


def _sq(z: float) -> float:
    # z ** 2 goes through pow() like numpy's scalar power (z * z differs from
    # it in the last bit for some z); Python raises where numpy gives inf
    try:
        return z ** 2
    except OverflowError:
        return math.inf


def _log_cosh(z: float, exp=math.exp, log1p=math.log1p) -> float:
    # overflow-safe log(cosh(z))
    az = abs(z)
    return az - _LOG_2 + log1p(exp(-2.0 * az))


def _nan_at_inf(trig):
    return lambda z: math.nan if math.isinf(z) else trig(z)


_LOG_2 = math.log(2.0)
# the names a source may call or read besides the builtins
ELEMENTARY = MappingProxyType({
    "sin": math.sin, "cos": math.cos, "sqrt": math.sqrt, "tanh": math.tanh, "exp": math.exp,
    "log1p": math.log1p, "sq": _sq, "log_cosh": _log_cosh, "inf": math.inf, "nan": math.nan})


def float_form(source: str, **constants):
    """The float form written as ``source``: one ``def`` of straight-line code that
    unpacks each parameter, a sequence of floats, into names (``a, b = x``), reads
    no parameter otherwise, and ends in its one ``return`` of a float or a tuple.
    It may read the builtins and ``ELEMENTARY``; each name in ``constants`` that it
    does not assign is bound as a float literal.  The form keeps that text as
    ``form.source``, which ``make_closed_loop``, ``make_shaped_storage`` and
    :func:`nishape.sim.simulate` splice.  Where ``sin`` or ``cos`` raise at an
    infinity, the form runs once more with numpy's ``nan`` there, so a finite call
    pays nothing for it."""
    return _compiled(source, tuple((name, repr(float(value))) for name, value in constants.items()))


@functools.lru_cache(maxsize=256)  # one function per source and constants, shared by every model
def _compiled(source: str, constants: tuple):
    tree = ast.parse(textwrap.dedent(source))
    nodes = list(ast.walk(tree))
    local = ({node.arg for node in nodes if isinstance(node, ast.arg)}  # shadows a constant
             | {node.id for node in nodes if isinstance(getattr(node, "ctx", None), ast.Store)
                and isinstance(node, ast.Name)})
    literals = {name: text for name, text in constants if name not in local}

    class Bind(ast.NodeTransformer):
        def visit_Name(self, node):
            if node.id in literals:
                return ast.parse(literals[node.id], mode="eval").body
            return node

    text = ast.unparse(Bind().visit(tree))
    form = _guarded(text, "<float form>")
    form.source = text
    return form


def _guarded(text: str, label: str):
    """The function of the one ``def`` in ``text``; on ``ValueError`` it hands its parameters'
    current values to a copy, compiled at the first raise, whose sin and cos give nan at inf."""
    (fn,) = ast.parse(text).body
    name, params = fn.name, ", ".join(arg.arg for arg in fn.args.args)
    header, body = text.split("\n", 1)

    def at_infinity(*args):  # at the first raise: compiles the copy, puts it in its place
        retry = {**ELEMENTARY, **{trig: _nan_at_inf(ELEMENTARY[trig]) for trig in ("sin", "cos")}}
        exec(compile(text, label, "exec"), retry)
        namespace["_retry"] = retry[name]
        return retry[name](*args)

    namespace = dict(ELEMENTARY, _retry=at_infinity)
    exec(compile(f"{header}\n    try:\n{textwrap.indent(body, '    ')}\n    except ValueError:\n"
                 f"        return _retry({params})\n", label, "exec"), namespace)
    return namespace[name]


def _mapped(scalar, *rest):
    """``scalar(z, *rest)`` on a float, and on each entry of a numpy array."""
    return lambda z: (np.fromiter(map(scalar, z.ravel().tolist(), *map(itertools.repeat, rest)),
                                  float, z.size).reshape(z.shape)
                      if isinstance(z, np.ndarray) else scalar(z, *rest))


# ELEMENTARY on numpy columns: libm on each entry (sq as pow(z, 2.0), log_cosh's exp and
# log1p), numpy's sqrt (rounded once, as math.sqrt), and a divisor that raises at 0 as Python
# does; sin or cos at an infinity and pow past the overflow raise, and end the column run
_COLUMNS = MappingProxyType({
    **{name: _mapped(fn) if callable(fn) else fn for name, fn in ELEMENTARY.items()},
    "sq": _mapped(pow, 2.0), "abs": abs,
    "log_cosh": functools.partial(_log_cosh, exp=_mapped(math.exp), log1p=_mapped(math.log1p)),
    "sqrt": lambda z: np.sqrt(z) if isinstance(z, np.ndarray) else math.sqrt(z),
    "_divisor": lambda z: z if np.all(z != 0.0) else 1.0 / 0.0})
_COLUMN_NODES = (ast.Module, ast.FunctionDef, ast.arguments, ast.arg, ast.Assign, ast.Return,
                 ast.Name, ast.Load, ast.Store, ast.Constant, ast.Tuple, ast.BinOp, ast.Add,
                 ast.Sub, ast.Mult, ast.Div, ast.UnaryOp, ast.USub, ast.Call)


@functools.lru_cache(maxsize=256)  # one function per source, compiled at its first use
def _column_form(source: str):
    """The float form ``source`` on ``_COLUMNS``, every divisor checked; None for a source
    with a node other than ``+ - * /``, unary minus, a call of ``abs`` or ``ELEMENTARY``, a
    name, a constant or a tuple (numpy's ``**`` squares where Python calls ``pow``)."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if not isinstance(node, _COLUMN_NODES) or isinstance(node, ast.Call) and (
                node.keywords or getattr(node.func, "id", None) not in _COLUMNS):
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            node.right = ast.Call(ast.Name("_divisor", ast.Load()), [node.right], [])
    namespace = dict(_COLUMNS)
    exec(compile(ast.fix_missing_locations(tree), "<float form on columns>", "exec"), namespace)
    return namespace[tree.body[0].name]


def on_columns(form, *parameters, width: Optional[int] = None) -> np.ndarray:
    """The float form ``form``, bit for bit, at the points whose entries are ``parameters``
    (a tuple of columns per parameter, numpy arrays and floats that all broadcast together),
    in their shape and with a last axis of ``width`` for a form of ``width`` floats.  A source
    that runs on columns runs once; any other form, or a run that meets a zero divisor, an
    invalid operation or a raise (sin or cos at an infinity, sq past the overflow), is called
    at each point on the parameters' points zipped: the one fallback, where the form's own
    retry gives nan at an infinity and ``_sq`` inf."""
    shape = np.broadcast(*itertools.chain(*parameters)).shape
    run = _column_form(form.source) if hasattr(form, "source") else None
    try:
        with np.errstate(divide="raise", invalid="raise", over="ignore"):
            result = run and run(*parameters)
        if width is None and isinstance(result, (float, np.ndarray)):
            return np.array(np.broadcast_to(result, shape), dtype=float)
        if isinstance(result, tuple) and len(result) == width:
            return np.stack([np.broadcast_to(entry, shape) for entry in result], -1, dtype=float)
    except (ArithmeticError, ValueError):
        pass
    rows = list(map(form, *(np.stack([np.broadcast_to(column, shape) for column in parameter], -1)
                            .reshape(-1, len(parameter)).tolist() for parameter in parameters)))
    return np.array(rows, dtype=float).reshape(shape + ((width,) if width else ()))


def _spliced(source: str, args, tag: str, width: Optional[int] = None):
    """``(lines, result)``: the body of ``source`` as lines on the entry texts ``args``
    (one sequence per parameter) with its locals suffixed by ``__tag``, and the text of
    its float result (``width`` None) or the texts of its ``width`` entries.  An entry
    given as a name is read under that name; any other is assigned its text once.
    A source that reads a parameter other than by unpacking it, or returns other than
    at its end, raises ``ValueError``."""
    fn = ast.parse(source).body[0]
    stores = Counter(node.id for node in ast.walk(fn)
                     if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load))
    names = {name: f"{name}__{tag}" for name in stores}
    params = dict(zip((arg.arg for arg in fn.args.args), args, strict=True))
    lines = []
    for stmt in fn.body:
        if (isinstance(stmt, ast.Assign) and getattr(stmt.value, "id", None) in params
                and isinstance(stmt.targets[0], ast.Tuple)):
            for target, entry in zip(stmt.targets[0].elts, params[stmt.value.id], strict=True):
                if entry.isidentifier() and stores[target.id] == 1:
                    names[target.id] = entry
                else:
                    lines.append(f"{names[target.id]} = {entry}")
            continue
        for node in ast.walk(stmt):
            if getattr(node, "id", None) in params or isinstance(node, ast.Return) and (
                    node is not fn.body[-1]):
                raise ValueError(f"cannot splice this float form:\n{source}")
            if isinstance(node, ast.Name):
                node.id = names.get(node.id, node.id)
        if isinstance(stmt, ast.Return):
            break
        lines.append(ast.unparse(stmt))
    result = stmt.value
    if width is None:
        return lines, ast.unparse(result)
    if isinstance(result, ast.Tuple) and len(result.elts) == width:
        return lines, [ast.unparse(entry) for entry in result.elts]
    entries = [f"r{i}__{tag}" for i in range(width)]  # unpacked, as a call's result is
    return lines + [f"{', '.join(entries)}, = {ast.unparse(result)}"], entries


def _on_rows(form, xs: np.ndarray, width: Optional[int] = None) -> np.ndarray:
    """The float form ``form`` at the rows of the 2-D ``xs``, bit for bit: :func:`on_columns`
    on ``_CHUNK`` rows a call into one array, so a whole record keeps one chunk's temporaries."""
    out = np.empty((len(xs), width) if width else len(xs))
    for a in range(0, len(xs), _CHUNK):
        out[a:a + _CHUNK] = on_columns(form, tuple(xs[a:a + _CHUNK].T), width=width)
    return out


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
        self.gradient_floats = gradient or (lambda x: central_gradient(value, x).tolist())
        self.name = name
        v0 = float(value([0.0] * dim))
        if not abs(v0) <= TAU_ZERO:
            raise ValueError(f"scalar field must vanish at the origin, got value(0) = {v0}")
        return self

    def value(self, x) -> float:
        return float(self.value_floats(np.asarray(x, dtype=float).tolist()))

    def gradient(self, x) -> np.ndarray:
        return np.asarray(self.gradient_floats(np.asarray(x, dtype=float).tolist()), dtype=float)

    def values(self, xs) -> np.ndarray:
        """The values at the rows of ``xs`` (a lone point is one row), bit for bit
        :meth:`value`: one :func:`_on_rows` pass."""
        return _on_rows(self.value_floats, np.asarray(xs, dtype=float).reshape(-1, self.dim))

    def gradients(self, xs) -> np.ndarray:
        """The gradients at the rows of ``xs``, bit for bit the stacked :meth:`gradient`."""
        return _on_rows(self.gradient_floats, np.asarray(xs, dtype=float).reshape(-1, self.dim),
                        self.dim)


def zero_field(dim: int) -> ScalarField:
    """The identically-zero field (useful as an empty potential)."""
    return ScalarField.from_floats(dim, lambda x: 0.0, lambda x: [0.0] * dim, name="0")


class NonlinearSystem:
    """State-space system ``x' = f(x, u)``, ``y = h(x)``.

    Input and output share the dimension ``n_io <= n_states`` and the origin
    must be an equilibrium: ``f(0, 0) = 0`` and ``h(0) = 0`` are enforced at
    construction, together with a determinism probe (two evaluations of ``f``
    at identical arguments must agree bitwise).  Without ``h_jacobian`` (a numpy
    callable or a constant matrix), :meth:`output_jacobian` uses central differences.
    """

    def __init__(self, n_states: int, n_io: int, f, h, h_jacobian=None, name: str = ""):
        self._store(n_states, n_io,
                    lambda x, u: _listed(f(np.array(x, dtype=float), np.array(u, dtype=float))),
                    lambda x: _listed(h(np.array(x, dtype=float))), h_jacobian, name)

    @staticmethod
    def from_floats(n_states: int, n_io: int, f, h, h_jacobian=None,
                    name: str = "") -> "NonlinearSystem":
        """The system of float forms ``f(x, u)`` and ``h(x)``: sequences of
        floats in, a sequence out.  Always a plain :class:`NonlinearSystem`,
        also when called on a subclass."""
        return NonlinearSystem.__new__(NonlinearSystem)._store(n_states, n_io, f, h,
                                                               h_jacobian, name)

    def _store(self, n_states, n_io, f, h, h_jacobian, name):
        n_states, n_io = int(n_states), int(n_io)
        if n_states < 1:
            raise ValueError(f"n_states must be positive, got {n_states}")
        if n_io < 1 or n_io > n_states:
            raise ValueError(
                f"n_io must satisfy 1 <= n_io <= n_states, got n_io={n_io}, n_states={n_states}")
        self.n_states, self.n_io = n_states, n_io
        self.f_floats, self.h_floats = f, h
        self.h_jacobian = _constant_jacobian(h_jacobian, n_io, n_states)
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
        if isinstance(self.h_jacobian, np.ndarray):
            return self.h_jacobian
        x = np.asarray(x, dtype=float)
        if self.h_jacobian is not None:
            # C order: a Fortran-ordered one takes another BLAS path than a stacked product
            return np.ascontiguousarray(self.h_jacobian(x), dtype=float)
        return central_jacobian(self.h_floats, x.tolist(), self.n_io)


def _constant_jacobian(jac, n_out: int, n_in: int):
    """An output Jacobian given as a constant matrix, taken once as a read-only
    C-order copy (numpy's ``@`` on a Fortran-ordered matrix takes another BLAS
    path, with other bits); a callable or None as it is."""
    if jac is None or callable(jac):
        return jac
    jac = np.array(jac, dtype=float, order="C")
    if jac.shape != (n_out, n_in):
        raise ValueError(f"h_jacobian must be a {n_out} x {n_in} matrix, got shape {jac.shape}")
    jac.setflags(write=False)
    return jac


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


class HamiltonianSystem(NonlinearSystem):
    """Input-output Hamiltonian system
    ``x' = [J(x) - R(x)] (grad H(x) - grad C(x)^T u)``, ``y = C(x)``.

    A :class:`NonlinearSystem` with output ``h = C`` and ``h_jacobian =
    grad_C_fn`` (the optional analytic Jacobian of C; central differences
    otherwise), built through the plain constructor.  J must be
    skew-symmetric and R symmetric; both are probed at the origin and on a
    small ring of axis points at construction.
    """

    _PROBE_RADIUS = 0.1

    def __init__(self, n: int, p: int, J, R, H: ScalarField, C, grad_C_fn=None):
        n = int(n)
        if H.dim != n:
            raise ValueError(f"Hamiltonian dimension {H.dim} != n = {n}")
        for x in [np.zeros(n), *(self._PROBE_RADIUS * np.eye(n))]:  # the origin, axis points
            Jx = np.asarray(J(x), dtype=float)
            Rx = np.asarray(R(x), dtype=float)
            if Jx.shape != (n, n) or Rx.shape != (n, n):
                raise ValueError("J and R must return n x n matrices")
            if np.max(np.abs(Jx + Jx.T)) > TAU_ZERO:
                raise ValueError(f"J is not skew-symmetric at probe {x}")
            if np.max(np.abs(Rx - Rx.T)) > TAU_ZERO:
                raise ValueError(f"R is not symmetric at probe {x}")
        self.J, self.R, self.H = J, R, H

        def f(x, u):
            return (np.asarray(J(x), dtype=float) - np.asarray(R(x), dtype=float)) @ (
                H.gradient(x) - self.output_jacobian(x).T @ np.asarray(u, dtype=float))

        super().__init__(n, p, f, C, h_jacobian=grad_C_fn, name="hamiltonian")


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


def _names(stem: str, count: int) -> list:
    return [f"{stem}{i}" for i in range(count)]


def _def(signature: str, lines, result: str) -> str:
    return (f"def {signature}:\n" + "".join(f"    {line}\n" for line in lines)
            + f"    return {result}\n")


def _argument(entries) -> str:
    """The text of a float form's argument: a call's text as it is, or entries as a tuple."""
    return entries if isinstance(entries, str) else f"({', '.join(entries)},)"


def _part(source: Optional[str], call: str, args, tag: str, width: Optional[int] = None):
    """``(lines, result)`` of a float form on the entry texts ``args``: its ``source``
    spliced (:func:`_spliced`), or without one the text ``call`` that calls it,
    unpacked into the names ``tag0, tag1, ...`` when it has ``width`` entries."""
    if source is not None:
        return _spliced(source, args, tag, width)
    if width is None:
        return [], call
    names = _names(tag, width)
    return [f"{', '.join(names)}, = {call}"], names


def _composed(text_of, names: str, *forms):
    """The float form composed of ``forms``: one body spliced from their sources
    when each has one (:func:`float_form`), else one that calls them by ``names``.
    ``text_of(*sources)`` writes either, a source None for a part it calls."""
    sources = tuple(getattr(form, "source", None) for form in forms)
    if None not in sources:
        return float_form(text_of(*sources))
    return _factory(text_of(*(None for _ in forms)), names)(*forms)


@functools.lru_cache(maxsize=64)  # one factory per text, shared by every later composition
def _factory(text: str, names: str):
    fn, namespace = ast.parse(text).body[0].name, {}
    exec(compile(f"def factory({names}):\n{textwrap.indent(text, '    ')}    return {fn}\n",
                 f"<{fn}>", "exec"), namespace)
    return namespace["factory"]


@functools.lru_cache(maxsize=64)  # the same text for every closed loop of the same parts
def _closed_loop_text(n: int, p: int, f: Optional[str], h: Optional[str], phi: Optional[str]):
    """``f_closed(x, v) = f(x, (u0 + v0, ...))`` with ``(u0, ...) = phi(h(x))`` and v
    unpacked into locals: numpy's ``phi(h(x)) + v`` entry by entry, a zero v still
    added (-0.0 + 0.0 is 0.0), and u passed as a tuple."""
    xs, vs = _names("x", n), _names("v", p)
    h_lines, ys = _part(h, "h(x)", [xs], "y", h and p)  # a called h's result goes to phi as it is
    phi_lines, us = _part(phi, f"phi({_argument(ys)})", [ys], "u", p)
    sums = [f"({u}) + {v}" for u, v in zip(us, vs)]
    f_lines, rates = _part(f, f"f(x, ({', '.join(sums)},))", [xs, sums], "f")
    return _def("f_closed(x, v)", [*([f"{', '.join(xs)}, = x"] if f else []),
                                   f"{', '.join(vs)}, = v", *h_lines, *phi_lines, *f_lines], rates)


def make_closed_loop(sys: NonlinearSystem, nl: StaticNonlinearity) -> NonlinearSystem:
    """Close ``u = phi(y) + v`` around the plant, passing u as a tuple; v is the new input.
    The closed loop's ``f`` is one body spliced from the sources of the plant's ``f``
    and ``h`` and of ``phi`` when each has one, else it calls them."""
    if sys.n_io != nl.p:
        raise ValueError(
            f"plant input/output dimension {sys.n_io} does not match "
            f"nonlinearity dimension {nl.p}")
    f_closed = _composed(functools.partial(_closed_loop_text, sys.n_states, nl.p), "f, h, phi",
                         sys.f_floats, sys.h_floats, nl.phi_floats)
    return NonlinearSystem.from_floats(sys.n_states, sys.n_io, f_closed, sys.h_floats,
                                       h_jacobian=sys.h_jacobian,
                                       name=f"{sys.name or 'plant'} / {nl.name or 'feedback'}")


@functools.lru_cache(maxsize=64)  # one text per pair of sources
def _joined_text(n: int, p: int, f: Optional[str], gradient: Optional[str]) -> str:
    """``knot(x, u)``: ``f(x, u)``'s n entries, then ``gradient(x)``'s, spliced on the entries
    ``x0, ...`` and ``u0, ...`` (a part without a source is called).  Where ``_column_form``
    takes every node, each ``ELEMENTARY`` call repeated (by its text) on those entries alone
    is made once, into a local: same bits."""
    xs, us = _names("x", n), _names("u", p)
    f_lines, rates = _part(f, "f(x, u)", [xs, us], "f", n)
    g_lines, grads = _part(gradient, "gradient(x)", [xs], "g", n)
    body, result = "\n".join([*f_lines, *g_lines]), _argument([*rates, *grads])
    nodes = list(ast.walk(ast.parse(f"{body}\nreturn {result}")))
    calls = Counter(ast.unparse(node) for node in nodes if isinstance(node, ast.Call) and getattr(
        node.func, "id", None) in ELEMENTARY and {*xs, *us} >= {
            name.id for arg in node.args for name in ast.walk(arg) if hasattr(name, "id")})
    shared = [call for call, count in calls.items() if count > 1
              and all(isinstance(node, _COLUMN_NODES) for node in nodes)]
    for i, call in enumerate(shared):  # a call's text is its node's, unparsed in any context
        body, result = (re.sub(rf"\b{re.escape(call)}", f"c{i}__shared", t) for t in (body, result))
    return _def("knot(x, u)", [f"{', '.join(xs)}, = x", f"{', '.join(us)}, = u", *(
        f"c{i}__shared = {call}" for i, call in enumerate(shared)), *body.split("\n")], result)


@functools.lru_cache(maxsize=64)  # the same text for every storage of the same parts
def _shaped_text(n: int, m: int, rows: Optional[tuple], f: Optional[str], h: Optional[str],
                 *v: Optional[str]) -> str:
    """``s(x) = f(h(x))``, or given ``v`` ``w(x) = v(x) - f(h(x))``; with ``rows``,
    ``w_gradient(x) = v(x) - J^T f(h(x))`` for the J whose row k is the unit vector
    ``e_{rows[k]}``: entry i is ``a_i`` minus numpy's ``(J.T @ g)_i``, ``0.0 + sum_k
    J[k, i] g_k`` with every zero term ``0.0 * g_k`` kept (a NaN for a g_k that is not
    finite).  Results are unpacked: one of the wrong length raises ValueError."""
    xs = _names("x", n)
    h_lines, ys = _part(h, "h(x)", [xs], "y", (h or rows) and m)
    f_lines, g = _part(f, f"f({_argument(ys)})", [ys], "g", rows and m)
    v_lines, a = _part(v[0], "v(x)", [xs], "a", rows and n) if v else ([], None)
    lines = [*([f"{', '.join(xs)}, = x"] if h else []), *v_lines, *h_lines, *f_lines]
    if rows is None:
        name, result = ("w", f"({a}) - ({g})") if v else ("s", g)
    else:
        gs, zs = _names("g", m), _names("z", m)
        lines += [*([f"{', '.join(gs)}, = {', '.join(g)},"] if g != gs else []),
                  f"{', '.join(zs)}, = {', '.join(f'0.0 * {name}' for name in gs)},"]
        name, result = "w_gradient", "(" + "".join(
            f"({a_i}) - (0.0" + "".join(f" + {gs[k]}" if row == i else f" + {zs[k]}"
                                        for k, row in enumerate(rows)) + "), "
            for i, a_i in enumerate(a)) + ")"
    return _def(f"{name}(x)", lines, result)


def make_shaped_storage(V: ScalarField, F: ScalarField, h, n: int,
                        h_jacobian=None, name: str = "W") -> ScalarField:
    """Storage shaped along the output: ``W(x) = V(x) - F(h(x))``.

    ``h`` is a numpy callable.  A system's bound ``h`` method contributes that
    system's ``h_floats``; any other callable is adapted once.  The gradient is
    assembled by the chain rule only when the gradients of V and F and the output
    Jacobian ``h_jacobian`` are all analytic; any missing piece makes the whole
    field fall back to finite differences so truncation errors stay on a single scale.
    A constant ``h_jacobian`` whose rows are distinct unit vectors (a projection) gets
    a generated float form; any other constant matrix or numpy callable numpy's
    product at each point, which ``W.gradients`` stacks as it stacks any gradient.
    ``W.storage`` is V and ``W.shaping`` S(x) = F(h(x)) (value only): W = V - S bit for bit.
    W's value, S and the projection's gradient are each one float form spliced from
    the sources of their parts when every part has one (:func:`float_form`).
    """
    n = int(n)
    if V.dim != n:
        raise ValueError(f"V has dimension {V.dim}, expected n = {n}")
    h_floats = (h.__self__.h_floats if getattr(h, "__func__", None) is NonlinearSystem.h
                else lambda x: _listed(h(np.array(x, dtype=float))))
    y0 = np.asarray(h_floats([0.0] * n), dtype=float)
    if y0.shape != (F.dim,):
        raise ValueError(f"h maps into R^{y0.size}, but F has dimension {F.dim}")
    value = functools.partial(_shaped_text, n, F.dim, None)
    s_value = _composed(value, "f, h", F.value_floats, h_floats)
    w_value = _composed(value, "f, h, v", F.value_floats, h_floats, V.value_floats)
    h_jacobian = _constant_jacobian(h_jacobian, F.dim, n)
    constant = isinstance(h_jacobian, np.ndarray)
    analytic = V.has_analytic_gradient and F.has_analytic_gradient and h_jacobian is not None
    cols = h_jacobian.argmax(axis=1).tolist() if constant else []
    w_gradient = None
    if (analytic and constant and len(set(cols)) == F.dim
            and np.array_equal(h_jacobian, np.eye(n)[cols])):
        # rows of distinct unit vectors: a generated float form, stacked by ScalarField.gradients
        w_gradient = _composed(functools.partial(_shaped_text, n, F.dim, tuple(cols)), "f, h, v",
                               F.gradient_floats, h_floats, V.gradient_floats)
    elif analytic:
        def w_gradient(x):
            jac = (h_jacobian if constant else
                   np.ascontiguousarray(h_jacobian(np.array(x, dtype=float)), dtype=float))
            return (np.asarray(V.gradient_floats(x), dtype=float)
                    - jac.T @ np.asarray(F.gradient_floats(h_floats(x)), dtype=float))

    W = ScalarField.from_floats(n, w_value, w_gradient, name=name)
    W.storage, W.shaping = V, ScalarField.from_floats(n, s_value, name=f"{F.name} o h")
    return W


# ---------------------------------------------------------------------------
# Gradient consistency probing


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a blow-up fails the check
def gradient_check(field: ScalarField, points) -> Check:
    """Probe an analytic gradient against central finite differences.

    The deviation at a point is ``|g_an - g_fd| / max(|g_fd|, 1e-3)``, so the
    TAU_GRAD verdict corresponds to a 1e-5 relative tolerance with a 1e-8
    absolute floor; ``g_fd`` runs on floats at each point, ``g_an`` in one
    ``field.gradients`` call.  The worst value is the largest deviation, or the
    first NaN one, and the witness its point.  A field without an analytic
    gradient, or an empty set of points, reports "nothing to check".
    """
    probes = [np.asarray(pt, dtype=float) for pt in points] if field.has_analytic_gradient else []
    for pt in probes:
        if pt.shape != (field.dim,):
            raise ValueError(f"probe point has shape {pt.shape}, field dimension is {field.dim}")
    if not probes:
        return Check("nothing to check", 0.0)
    g_fd = np.array([central_gradient(field.value_floats, pt.tolist()) for pt in probes])
    diff = field.gradients(probes) - g_fd
    floor = TAU_GRAD_FLOOR / TAU_GRAD
    dev = np.sqrt(_row_dots(diff, diff)) / np.maximum(np.sqrt(_row_dots(g_fd, g_fd)), floor)
    worst = int(np.argmax(dev))  # the first largest, or the first NaN
    return Check("pass" if dev[worst] <= TAU_GRAD else "fail", dev[worst], probes[worst],
                 len(probes))
