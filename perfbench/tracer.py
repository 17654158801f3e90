"""Outside-in tracer: wraps nishape's public functions at every module
binding, keeps spans in memory, and turns them into per-layer metrics.

Nothing under ``src/`` changes.  ``from .linear import sym_eigenvalues``
leaves a second binding in ``nishape.certify``, so each function is
replaced in every ``nishape`` module namespace that holds it; calls inside
the package then go through the wrapper too.  A reference captured at
import time outside a module namespace (the scenario registry keeps the
shaping builders in closures) stays unwrapped.  Counts come from arguments
and returned objects (trajectory lengths, report sample counts, file sizes),
never from inside the package.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import time

MODULES = ("sysmodel", "sim", "certify", "linear", "scenarios", "cli")
# Scalar helpers called once per RK4 stage or finite-difference probe: a
# wrapper there would cost more than the work it measures, so their time
# stays in the caller's self time.
SKIP = frozenset({"sim.square_wave_value", "sysmodel.fd_step",
                  "sysmodel.central_gradient", "sysmodel.central_jacobian"})
SWEEPS = frozenset({"certify.ni_residuals", "certify.osni_residuals",
                    "certify.estimate_max_epsilon", "certify.flag_hidden_motion"})

# span fields
NAME, START, END, PARENT, OP, INFO = range(6)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Per-function extraction of counts, run after the span has closed.
def _simulate_info(args, kwargs, result):
    cfg = _arg(args, kwargs, 3, "cfg")
    return {"traj": result, "stages": 4 if cfg.method == "RK4" else 1}


def _csv_info(args, kwargs, result):
    traj = _arg(args, kwargs, 0, "traj")
    return {"rows": traj.n_samples, "bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _sweep_info(index, name):
    def info(args, kwargs, result):
        value = _arg(args, kwargs, index, name)
        return {"trajs": list(value) if name == "trajs" else [value]}
    return info


def _samples_info(args, kwargs, result):
    return {"samples": result.n_samples}


INFO_FUNCS = {
    "sim.simulate": _simulate_info,
    "sim.write_trajectory_csv": _csv_info,
    "certify.ni_residuals": _sweep_info(2, "traj"),
    "certify.osni_residuals": _sweep_info(2, "traj"),
    "certify.estimate_max_epsilon": _sweep_info(2, "trajs"),
    "certify.flag_hidden_motion": _sweep_info(1, "traj"),
    "certify.check_positive_definite": _samples_info,
    "certify.check_gradient_nonvanishing": _samples_info,
    "certify.check_equilibrium_uniqueness": _samples_info,
    "certify.halton_box_samples": lambda a, k, r: {"points": len(r)},
    "scenarios.export_potential_surface": lambda a, k, r: {"cells": int(r.values.size)},
    "cli.main": lambda a, k, r: {"exit": r},
}


class Tracer:
    """Install with ``install()``, restore with ``uninstall()``.  Set ``op``
    to the identifier of the operation in progress; every span records it."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._patched = []        # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        info = INFO_FUNCS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                stack.pop()
                if name == "cli.main":
                    span[INFO] = {"exit": exc.code if isinstance(exc, SystemExit) else "uncaught"}
                raise
            span[END] = clock()
            stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        package = sys.modules["nishape"]
        targets = {}
        for short in MODULES:
            module = sys.modules[f"nishape.{short}"]
            for attr, value in vars(module).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    targets[value] = self._wrap(name, value)
        namespaces = [package] + [m for key, m in sys.modules.items()
                                  if key.startswith("nishape.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in targets:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, targets[value])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        """Spans as JSON lines (name, start, end, parent, op); in-memory
        objects held for counting are left out."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span[:INFO]) + "\n")


def self_times(spans):
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child[i] for i, span in enumerate(spans)]


def _traj_digest(traj):
    h = hashlib.sha256()
    for arr in (traj.times, traj.states, traj.inputs, traj.outputs, traj.storage):
        if arr is not None:
            h.update(arr.tobytes())
    return h.hexdigest()


# Per-layer metric name -> (unit, better); the order here is the print order.
LAYER_METRICS = {}


def _declare(names, unit, better):
    for name in names:
        LAYER_METRICS[name] = (unit, better)


_declare(["sim.simulate.calls"], "count", "lower")
_declare(["sim.simulate.self_s"], "s", "lower")
_declare(["sim.simulate.steps", "sim.simulate.f_evals_computed"], "count", "lower")
_declare(["sim.simulate.us_per_step"], "us", "lower")
_declare(["sim.simulate.distinct_ratio"], "ratio", "higher")
_declare(["sim.write_trajectory_csv.self_s"], "s", "lower")
_declare(["sim.write_trajectory_csv.rows"], "count", "lower")
_declare(["sim.write_trajectory_csv.bytes"], "B", "lower")
_declare(["sim.write_trajectory_csv.us_per_row"], "us", "lower")
for _sweep in ("osni_residuals", "estimate_max_epsilon", "flag_hidden_motion"):
    _declare([f"certify.{_sweep}.calls", f"certify.{_sweep}.knots"], "count", "lower")
    _declare([f"certify.{_sweep}.self_s"], "s", "lower")
    _declare([f"certify.{_sweep}.us_per_knot"], "us", "lower")
_declare(["certify.sweeps.passes_per_knot"], "ratio", "lower")
for _check in ("check_positive_definite", "check_gradient_nonvanishing",
               "check_equilibrium_uniqueness"):
    _declare([f"certify.{_check}.self_s"], "s", "lower")
    _declare([f"certify.{_check}.samples"], "count", "lower")
    _declare([f"certify.{_check}.us_per_sample"], "us", "lower")
_declare(["certify.halton_box_samples.self_s"], "s", "lower")
_declare(["certify.halton_box_samples.points"], "count", "lower")
_declare(["certify.halton_box_samples.us_per_point"], "us", "lower")
_declare(["scenarios.export_potential_surface.self_s"], "s", "lower")
_declare(["scenarios.export_potential_surface.cells"], "count", "lower")
_declare(["scenarios.export_potential_surface.us_per_cell"], "us", "lower")
_declare(["linear.sym_eigenvalues.calls"], "count", "lower")
_declare(["linear.sym_eigenvalues.self_s"], "s", "lower")
_declare(["linear.sym_eigenvalues.us_per_call"], "us", "lower")
_declare([f"linear.{f}.self_s" for f in ("load_certificate", "check_ssni", "check_minimal",
                                         "dc_gain", "dey_condition", "schur_equivalence")],
         "s", "lower")
_declare(["linear.adaptive_simpson.calls"], "count", "lower")
_declare(["linear.adaptive_simpson.self_s"], "s", "lower")
_declare([f"sysmodel.{f}.self_s" for f in ("gradient_check", "make_closed_loop",
                                           "make_shaped_storage")], "s", "lower")
_declare(["scenarios.run_scenario.self_s", "cli.main.self_s"], "s", "lower")
_declare(["cli.main.us_per_call"], "us", "lower")
# Exit codes 1 and 2 are the documented outcomes that today's tracebacks
# (cli.exit_code.uncaught) should turn into.
_declare(["cli.exit_code.0", "cli.exit_code.1", "cli.exit_code.2"], "count", "higher")
_declare(["cli.exit_code.uncaught"], "count", "lower")
_declare(["trace.overhead_ratio"], "ratio", "lower")


def layer_metrics(spans, n_rounds, overhead_ratio):
    """Per-layer metrics from a traced run.  Counts and self times are per
    round of the workload (totals over ``n_rounds``); ``us_per_<unit>`` is
    total self time over total units."""
    self_s, counts = {}, {}
    sims_per_round = {}        # round -> trajectory digests, one per simulate call
    swept, distinct = 0, {}    # knots swept by outermost sweeps; distinct trajectories

    def count(key, amount=1):
        counts[key] = counts.get(key, 0) + amount

    for span, own in zip(spans, self_times(spans)):
        name, info = span[NAME], span[INFO]
        count(f"{name}.calls")
        self_s[name] = self_s.get(name, 0.0) + own
        if info is None:
            continue
        round_id = span[OP][0] if span[OP] is not None else None
        if name == "sim.simulate":
            steps = info["traj"].n_samples - 1
            count("sim.simulate.steps", steps)
            count("sim.simulate.f_evals_computed", steps * info["stages"])
            sims_per_round.setdefault(round_id, []).append(_traj_digest(info["traj"]))
        elif name in SWEEPS:
            knots = sum(t.n_samples for t in info["trajs"])
            count(f"{name}.knots", knots)
            parent = span[PARENT]
            if parent < 0 or spans[parent][NAME] not in SWEEPS:
                swept += knots
                for t in info["trajs"]:
                    distinct[(round_id, id(t))] = t.n_samples
        elif "exit" in info:
            code = info["exit"]
            count(f"cli.exit_code.{code if code in (0, 1, 2) else 'uncaught'}")
        else:
            for unit, amount in info.items():
                count(f"{name}.{unit}", amount)

    n_sims = sum(len(v) for v in sims_per_round.values())
    n_distinct = sum(distinct.values())
    out = {
        "sim.simulate.distinct_ratio":
            sum(len(set(v)) for v in sims_per_round.values()) / n_sims if n_sims else 0.0,
        "certify.sweeps.passes_per_knot": swept / n_distinct if n_distinct else 0.0,
        "trace.overhead_ratio": overhead_ratio,
    }
    for metric in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if metric in out:
            continue
        if field == "self_s":
            out[metric] = self_s.get(layer, 0.0) / n_rounds
        elif field.startswith("us_per_"):
            units = counts.get(f"{layer}.{field[len('us_per_'):]}s", 0)
            out[metric] = 1e6 * self_s.get(layer, 0.0) / units if units else 0.0
        else:
            out[metric] = counts.get(metric, 0) / n_rounds
    return {metric: out[metric] for metric in LAYER_METRICS}
