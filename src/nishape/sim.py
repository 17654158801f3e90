"""Deterministic fixed-step ODE simulation with signal generators,
trajectory recording, and the storage-decay check.

The integrator is classical RK4 at a fixed step.  No adaptivity and no event
location: trajectories are bitwise reproducible for identical arguments, and
the square-wave scenarios are run with steps that put the switch times exactly
on the grid.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from .sysmodel import (_CHUNK, Check, NonlinearSystem, _argument, _guarded, _names, _on_rows,
                       _part)


@dataclass(frozen=True)
class IntegratorConfig:
    step: float
    t_end: float
    method: ClassVar[str] = "RK4"  # the one integrator
    MAX_STEPS: ClassVar[int] = 10 ** 7  # a pendulum run: 0.72 GB, held by its Trajectory

    def __post_init__(self):
        if not (0.0 < self.step < math.inf):
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if not (self.step <= self.t_end < math.inf):
            raise ValueError(f"t_end must be finite and at least the step, got {self.t_end}")
        if not self.t_end / self.step < math.inf or self.n_steps > self.MAX_STEPS:
            raise ValueError(f"t_end / step must be finite and at most {self.MAX_STEPS}, "
                             f"got {self.t_end} / {self.step}")

    @property
    def n_steps(self) -> int:
        """``t_end / step`` rounded, or floored where rounding overshoots ``t_end``."""
        n_steps = int(round(self.t_end / self.step))
        if abs(n_steps * self.step - self.t_end) > 1e-9 * max(1.0, self.t_end):
            n_steps = int(math.floor(self.t_end / self.step))
        return n_steps


def _square_wave(amplitude: float, period: float, high, low):
    """``t -> high`` where ``sin(2 pi t / period) >= 0``, else ``low``."""
    if not (0.0 < period < math.inf):
        raise ValueError(f"period must be positive and finite, got {period}")
    if not math.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")
    sin, two_pi = math.sin, 2.0 * math.pi  # 2.0 * pi * t / period rounds as (2.0 * pi) * t
    return lambda t: high if sin(two_pi * t / period) >= 0.0 else low


def square_wave_value(t: float, amplitude: float, period: float) -> float:
    """``amplitude * sgn(sin(2 pi t / period))`` with ``sgn(0) := +1``."""
    return _square_wave(amplitude, period, amplitude, -amplitude)(t)


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
        if self.kind == "constant":
            if len(self.vector) != self.p:
                raise ValueError("constant signal needs a vector of matching dimension")
            if not all(map(math.isfinite, self.vector)):
                raise ValueError(f"constant signal vector must be finite, got {self.vector}")
        held = self.vector if self.kind == "constant" else (0.0,) * self.p
        floats = lambda t: held
        if self.kind == "square_wave":
            if not (0 <= self.channel < self.p):
                raise ValueError(f"channel {self.channel} out of range for p = {self.p}")
            high, low = (held[:self.channel] + (level,) + held[self.channel + 1:]
                         for level in (self.amplitude, -self.amplitude))
            floats = _square_wave(self.amplitude, self.period, high, low)
        object.__setattr__(self, "_floats", floats)  # t -> the input, a shared tuple

    def __reduce__(self):  # rebuilt by __init__, since the closure above does not pickle
        return InputSignal, tuple(getattr(self, k) for k in self.__dataclass_fields__)

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

    ``inputs`` holds the exogenous signal v at each knot and ``outputs`` y = h(x) at each
    state (``simulate`` takes them in one pass after its step loop).  ``storage`` is a channel
    the caller attaches (``dataclasses.replace(traj, storage=field.values(traj.states))``),
    ``diagnostic`` is set when the integration was truncated by a non-finite value.
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
        if not np.isfinite(times).all():  # before the spacing check, which a NaN passes
            raise ValueError("times must be finite")
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


@functools.lru_cache(maxsize=64)  # one loop per shape, input kind and the source of f
def _rk4_loop(n: int, p: int, forced: bool, f):
    """RK4 on ``n`` states and ``p`` channels as straight-line code on locals.
    ``loop(f, value, x, v, k, stop, final, step, rows)`` appends knots ``k ..
    stop - 1``, and ``stop`` when ``final``, to the flat lists ``rows``: the state
    and the input.  It returns ``(x, None)``, or ``(x, stages)`` after the first
    step whose new state is not finite.  The float form ``f`` is called, or
    spliced into the four stages of each step where this function is given its
    source.  Each stage is unpacked into locals and a knot is written only once
    its step is computed, so a rate of the wrong length raises ``ValueError``
    before a row shifts, and a knot that raises leaves ``x``, ``v`` and ``k``
    holding it, where ``_guarded``'s at-infinity copy resumes.  Every call
    records at least one knot."""
    xs = _names("x", n)

    def rate(stage, x, v):  # the stage's f(x, v) into its locals: a0, a1, ... for stage a
        lines, rates = _part(f, f"f({'x' if x == xs else _argument(x)}, {v})",
                             [x, _names(v, p)], stage, n)
        return lines + [f"{name} = {text}" for name, text in zip(_names(stage, n), rates)
                        if name != text]

    knot, record = f"x = {_argument(xs)}", ["xs += x", "vs += v"]  # its state as a tuple; its row
    inputs = ("v", "v_half", "v_full") if forced else ("v",)
    unpack = [f"{', '.join(_names(v, p))}, = {v}" for v in inputs] if f is not None else []
    v_half, v_full = inputs[1:] if forced else ("v", "v")
    body = (["t = k * step",  # the last step's value at its t + step, when that is t bitwise
             "v = v_full if t == t_full else value(t)", "t_full = t + step",
             "v_half, v_full = value(t + half), value(t_full)", *unpack] if forced else []) + [
        knot, *rate("a", xs, "v"),
        *rate("b", [f"x{i} + half * a{i}" for i in range(n)], v_half),
        *rate("c", [f"x{i} + half * b{i}" for i in range(n)], v_half),
        *rate("d", [f"x{i} + step * c{i}" for i in range(n)], v_full), *record,
        # numpy's x + (step / 6) * (k1 + 2 k2 + 2 k3 + k4), summed left to right
        *(f"x{i} = x{i} + sixth * (((a{i} + 2.0 * b{i}) + 2.0 * c{i}) + d{i})" for i in range(n)),
        # exact: a non-finite stage reaches the new state (step / 6 > 0, 0 * inf is NaN),
        # and x * 0.0 is +-0.0 for a finite x, NaN otherwise, so the sum cannot overflow
        "if " + " + ".join(f"x{i} * 0.0" for i in range(n)) + " != 0.0:",
        "    return x, " + _argument(_argument(_names(stage, n)) for stage in "abcd")]
    last_knot = ["k = stop", *(["v = value(stop * step)"] if forced else []), knot, *record]
    loop = (["for k in range(k, stop):", *("    " + line for line in body), "if final:",
             *("    " + line for line in last_knot), f"return {_argument(xs)}, None"])
    head = ["xs, vs = rows", "half, sixth = 0.5 * step, step / 6.0", "t_full = -1.0",
            f"{', '.join(xs)}, = x", *(unpack if not forced else [])]
    return _guarded("def loop(f, value, x, v, k, stop, final, step, rows):\n"
                    + "".join(f"    {line}\n" for line in head + loop),
                    f"<RK4 loop on {n} states, {p} channels>")


def simulate(sys: NonlinearSystem, x0, signal: InputSignal, cfg: IntegratorConfig) -> Trajectory:
    """Integrate ``sys`` from ``x0`` under ``signal``.

    The step loop runs on the float form ``f`` of the system (sequences of
    Python floats), in numpy's operation order, so a run is bitwise the run of
    the same loop on numpy vectors.  It is straight-line code on locals,
    generated once per state and channel count, input kind and the source of
    ``f``, and cached in the module: an ``f`` with a source is spliced into all
    four stages, so a stage makes no call; one without is called with each state
    as a tuple.  A knot where ``sin`` or ``cos`` raise at an infinity runs again,
    and the loop goes on, with numpy's ``nan`` there.  RK4 holds the input at its
    stage-time values (a square wave is evaluated at t, t + step/2 and t + step,
    and the value at t + step serves the next knot when that knot's time equals
    it bitwise; a zero or constant input is evaluated once).  The loop records
    times, states and inputs; the outputs are one ``_on_rows`` pass of ``h``
    over the recorded states, as ``ScalarField.values`` is, and a storage
    channel is the caller's to attach.  A non-finite stage derivative or state
    truncates the trajectory and attaches a diagnostic instead of propagating
    NaNs; one exact finiteness test on the new state per step detects both.  A
    complete run evaluates ``f`` four times per step and records no
    derivative.  An ``h`` or ``f`` value of the wrong length raises
    ``ValueError``.  Knots are written into the record every ``_CHUNK`` steps,
    so no whole-run list of Python floats is built.
    """
    x0 = np.array(x0, dtype=float)
    if x0.shape != (sys.n_states,) or not np.isfinite(x0).all():
        raise ValueError(f"x0 must be a finite vector of length {sys.n_states}, got {x0}")
    if signal.p != sys.n_io:
        raise ValueError(f"signal dimension {signal.p} != system input dimension {sys.n_io}")

    step, n_steps = cfg.step, cfg.n_steps
    times = np.arange(n_steps + 1, dtype=float)
    times *= step  # bitwise k * step
    arrays = (np.empty((n_steps + 1, sys.n_states)), np.empty((n_steps + 1, sys.n_io)))
    rows = ([], [])  # the entries of the knots not yet written, flat

    def flush(start):  # writes the buffered knots from ``start``, returns the next knot
        end = start + len(rows[0]) // sys.n_states
        for arr, buf in zip(arrays, rows):
            arr[start:end] = np.fromiter(buf, float, len(buf)).reshape(-1, arr.shape[1])
            buf.clear()
        return end

    f = sys.f_floats
    loop = _rk4_loop(sys.n_states, sys.n_io, signal.kind == "square_wave",
                     getattr(f, "source", None))
    x, v = tuple(x0.tolist()), signal._floats(0.0)  # v is held for a zero or constant input
    k, stages = 0, None
    while stages is None and k <= n_steps:
        stop = min(k + _CHUNK, n_steps)
        x, stages = loop(f, signal._floats, x, v, k, stop, stop == n_steps, step, rows)
        k = flush(k)
    diagnostic = None
    if stages is not None:  # the stages are read only to word the diagnostic
        t = (k - 1) * step  # the knot the step left from, bitwise times[k - 1]
        if all(map(math.isfinite, itertools.chain.from_iterable(stages))):
            diagnostic = f"non-finite state after the step from t = {t:.6g}"
        else:
            diagnostic = f"non-finite stage derivative at t = {t:.6g}"

    outputs = _on_rows(sys.h_floats, arrays[0][:k], sys.n_io)  # h's one pass over the states
    # the Trajectory takes the outputs, and a whole run's arrays, without a copy
    for arr in (outputs, *((times, *arrays) if k == n_steps + 1 else ())):
        arr.setflags(write=False)
    return Trajectory(times[:k], *(arr[:k] for arr in arrays), outputs, diagnostic=diagnostic)


def monitor_decay(traj: Trajectory) -> Check:
    """Largest forward difference of the storage channel, the worst value, against
    a tolerance scaled by the largest finite storage value.

    Only meaningful on unforced segments, so a trajectory with any nonzero
    input is reported as skipped rather than judged, with a NaN worst value.
    """
    if traj.storage is None:
        raise ValueError("trajectory has no storage channel to monitor")
    if np.any(traj.inputs != 0.0):
        return Check("skipped", math.nan)
    w = traj.storage
    tolerance = 1e-8 * (1.0 + float(np.max(np.abs(w), where=np.isfinite(w), initial=0.0)))
    if w.size < 2:
        return Check("pass", 0.0)
    max_increase = float(np.max(np.diff(w)))
    return Check("pass" if max_increase <= tolerance else "fail", max_increase)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with header ``t,x1..xn,v1..vp,y1..yp[,W]``, each value exactly as
    ``"%.17g" % v`` writes it (17 significant digits; see ``_g17_slots``)."""
    n = traj.states.shape[1]
    p = traj.inputs.shape[1]
    columns = (["t"]
               + [f"x{i + 1}" for i in range(n)]
               + [f"v{i + 1}" for i in range(p)]
               + [f"y{i + 1}" for i in range(p)])
    blocks = [traj.times[:, None], traj.states, traj.inputs, traj.outputs]
    if traj.storage is not None:
        columns.append("W")
        blocks.append(traj.storage[:, None])
    _write_g17_csv(path, ",".join(columns), traj.n_samples,
                   lambda start, stop: _g17_slots(np.hstack([b[start:stop] for b in blocks])))


# ---------------------------------------------------------------------------
# "%.17g" text for whole tables

_CSV_VALUES = 4096  # values per chunk of text: about 120 B of arrays each at the peak
_E = np.r_[0:17, -6:0]  # table rows by E itself: a negative E counts from the end
_POW10 = np.array([float(10 ** (16 - e)) for e in _E.tolist()])  # exact up to 10**22
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)  # as for |v| below
_POW10_LO = _POW10 - _POW10_HI


def _g17_tables():
    """Each 4-digit q's digits as one word (in memory order on any platform) and
    its trailing zeros; rows of 32 bytes by (E, kept digits), at ``E * 18 +
    kept``: the digit cells that stay and those taken one cell right (past the
    dot); and by (E, kept, minus, last column), at ``(E * 18 + kept) * 4 + 2 *
    minus + last``: the sign, ``0.00``, dot, exponent and separator around the
    text ('g' is fixed from E = -4 up)."""
    q = np.arange(10 ** 4)
    quads = np.stack([q // 10 ** k % 10 + 48 for k in (3, 2, 1, 0)], 1).astype(np.uint8)
    e, kept = (a.reshape(-1, 1) for a in np.meshgrid(_E, np.arange(18), indexing="ij"))
    c, dot = np.arange(32), np.where(e >= -4, 7 + e, 7)  # the dot's cell follows ``dot``
    digit = c - 7 - (c > dot)  # the digit a cell shows: d0 at cell 7
    shown = (digit >= 0) & (digit < kept) & (c != dot + 1)
    with_dot = np.where(e >= 0, kept > e + 1, (e >= -4) | (kept > 1))
    end = 7 + kept + with_dot  # the cell after the last digit
    suffix = (e < -4) & (c >= end) & (c < end + 4)
    text = np.select(
        [(c == dot + 1) & with_dot, (e >= -4) & (e < 0) & (c >= dot) & (c <= 7),
         suffix & (c == end + 3), suffix],
        [ord("."), ord("0"), ord("0") - e, np.array(list(b"e-0\0"))[c - end & 3]])
    sign = ((c == np.minimum(dot, 7) - 1) * np.uint8(ord("-")))[:, None, None]
    separator = (c == end + 4 * (e < -4))[:, None, None]
    marks = (text.astype(np.uint8)[:, None, None] + sign * np.uint8([0, 1])[:, None, None]
             + separator * np.uint8([ord(","), ord("\n")])[:, None])  # by minus, last column
    zeros = sum((q % 10 ** k == 0).astype(np.uint8) for k in (1, 2, 3, 4))
    masks = (np.uint8(255) * (shown & (c <= dot)), np.uint8(255) * (shown & (c > dot)))
    return (quads.view(np.uint32).ravel(), zeros,
            *(np.ascontiguousarray(t).view("V32").ravel() for t in (*masks, marks.reshape(-1, 32))))


# built at import, early in the heap: a table built at the first CSV kept the heap
# from shrinking under it and raised pendulum-sync's peak RSS by another 0.3 MB
_QUADS, _QUAD_ZEROS, _STAY, _MOVE, _MARKS = _g17_tables()


def _decimal17(v: np.ndarray):
    """``(digits, E, exact)``: ``|v| = digits * 10**(E - 16)`` rounded half to even,
    ``10**16 <= digits < 10**17``, for each finite v with E in [-6, 16] (``exact``),
    where ``10**(16 - E)`` is exact; zeros give 0, 0.  Dekker's product on
    Veltkamp's split (numpy rounds each operation once, fusing none) gives ``p +
    err = |v| * 10**(16 - E)`` exactly.  E, first ``floor(log10|v|)``, stands if
    ``1e16 <= p + err < 1e17`` on the pair, else moves by one.  ``p >= 2**53`` is
    even, so ``p + rint(err)`` rounds half to even; none rounds up to ``10**17``
    (the double below each ``10**k`` is at least 4.5e-17 of it below)."""
    a = np.abs(v)
    exact = (a >= 1e-6) & (a < 1e17)  # false for inf and NaN
    a[~exact] = 1.0  # a harmless stand-in
    e = np.floor(np.log10(a)).astype(np.intp)
    a_hi = a * 134217729.0 - (a * 134217729.0 - a)  # Veltkamp's split by 2**27 + 1
    a_lo = a - a_hi
    for attempt in range(2):
        np.clip(e, -6, 16, out=e)
        s_hi, s_lo, p = _POW10_HI[e], _POW10_LO[e], a * _POW10[e]
        err = a_hi * s_hi - p + a_hi * s_lo + a_lo * s_hi + a_lo * s_lo
        low = (p < 1e16) | ((p == 1e16) & (err < 0.0))
        high = (p > 1e17) | ((p == 1e17) & (err >= 0.0))
        if attempt or not (low | high).any():
            break
        e += high.astype(np.intp) - low
    digits = p.astype(np.int64) + np.rint(err).astype(np.int64)
    exact &= ~(low | high) & (digits < 10 ** 17)
    digits[v == 0.0] = 0
    return digits, e, exact | (v == 0.0)


def _g17_slots(table: np.ndarray) -> np.ndarray:
    """A 2-D float table's ``"%.17g" % v`` texts, each with its separator (a last
    column's is '\\n') in a NUL-padded 32-byte slot: its digits
    (``_decimal17``, four 4-digit lookups) and the ``_g17_tables`` rows its E, kept
    digits, sign and column pick.  Zeros print as ``0``/``-0``; any other value outside
    ``_decimal17``'s range (|v| < 1e-6 or >= 1e17, inf, NaN) is ``"%.17g" % v``."""
    n_rows, n_cols = table.shape
    values = table.ravel()
    digits, e, exact = _decimal17(values)
    slots = np.zeros((values.size, 32), np.uint8)
    high = (digits // 10 ** 8).astype(np.uint32)  # the first digit and the next 8
    low = (digits - high * np.int64(10 ** 8)).astype(np.uint32)
    slots[:, 7] = high // 10 ** 8 + 48
    high %= 10 ** 8
    quads = (high // 10 ** 4, high % 10 ** 4, low // 10 ** 4, low % 10 ** 4)
    for j, quad in enumerate(quads):
        slots.view(np.uint32)[:, 2 + j] = _QUADS[quad]
    z0, z1, z2, z3 = (_QUAD_ZEROS[q] for q in quads)  # 4 for a zero quad
    zeros = z3 + (z3 == 4) * (z2 + (z2 == 4) * (z1 + (z1 == 4) * z0))  # trailing, of d1 .. d16
    look = e * 72 + np.maximum(17 - zeros, e + 1) * 4 + 2 * np.signbit(values)  # d0 .. dE kept
    look.reshape(n_rows, n_cols)[:, -1] += 1
    del digits, e, high, low, quads  # before the blend, where a call peaks
    shifted = np.empty_like(slots)  # each byte one cell right; cell 0 is never read
    shifted.ravel()[1:] = slots.ravel()[:-1]
    left, right = slots.view(np.uint64), shifted.view(np.uint64)
    left &= _STAY[look >> 2].view(np.uint64).reshape(-1, 4)
    right &= _MOVE[look >> 2].view(np.uint64).reshape(-1, 4)
    left |= right
    left |= _MARKS[look].view(np.uint64).reshape(-1, 4)
    del look, shifted, left, right
    for i in np.flatnonzero(~exact).tolist():
        text = b"%.17g" % values[i] + (b"\n" if i % n_cols == n_cols - 1 else b",")
        slots[i] = 0
        slots[i, :len(text)] = np.frombuffer(text, np.uint8)
    return slots


def _write_g17_csv(path, header: str, n_rows: int, rows: Callable) -> None:
    """``header`` and ``rows(start, stop)``, the rows' ``_g17_slots`` in order, for all
    ``n_rows`` rows, about ``_CSV_VALUES`` values at a time, as CSV with no NULs."""
    chunk = max(1, _CSV_VALUES // (header.count(",") + 1))
    with open(path, "w") as fh:  # text mode, as every platform wrote it before
        fh.write(header + "\n")
        for start in range(0, n_rows, chunk):
            slots = rows(start, min(start + chunk, n_rows))
            fh.write(str(slots[slots != 0].data, "ascii"))
            del slots  # not held while the next chunk's are made
