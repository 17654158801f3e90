"""The benchmark's four workloads as lists of operations.

An operation calls the program once, through ``nishape.cli.main`` or a
public library function looked up on the package at call time (so the
tracer's wrappers apply).  ``Op.run`` is the timed part.  ``Op.finish``
runs afterwards, untimed: it digests the artifacts, checks the outputs and
removes what the call wrote.

Every workload draws its program-side seed as ``seed % SEED_CLASSES``; the
reference digests in ``reference.json`` were recorded for each class at the
seed commit.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import shutil
from dataclasses import dataclass, field

import certgen

SEED_CLASSES = 8
WORKLOADS = ("pendulum-sync", "pendulum-stabilize", "certify-linear", "surface-box")
# Newton-polish cost depends on the sample seed by up to 30%; each round runs
# the box checks on this many consecutive seed classes so that per-run
# figures do not hinge on one seed's polish.
BOX_SEEDS = 4
REL_TOL = 1e-6


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def close(value, expected, rel=REL_TOL):
    return abs(value - expected) <= rel * max(abs(expected), 1e-300)


@dataclass
class Outcome:
    digests: dict = field(default_factory=dict)   # artifact name -> sha256
    values: dict = field(default_factory=dict)    # numbers compared with tolerances
    problems: list = field(default_factory=list)
    known_defect: bool = False    # a degenerate input ended in a traceback (ROADMAP item 4)


def call_cli(argv):
    """``nishape.cli.main(argv)`` with stdout captured; returns (exit, stdout).
    An exception escaping ``main`` is reported as exit ``"uncaught"``."""
    from nishape import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:        # the boundary being measured: record and go on
            code = "uncaught"
            print(f"{type(exc).__name__}: {exc}", file=err)
    return code, out.getvalue()


class Op:
    label = ""
    degenerate = False

    def run(self):
        raise NotImplementedError

    def finish(self, raw, ref) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# pendulum-sync and pendulum-stabilize: one `ni-shape run` per operation


class PipelineOp(Op):
    def __init__(self, scenario, seed, workdir):
        self.label = "run"
        self.scenario = scenario
        self.seed = seed
        self.out = os.path.join(workdir, "run")

    def run(self):
        return call_cli(["run", self.scenario, "--seed", str(self.seed), "--out", self.out])

    def finish(self, raw, ref):
        code, stdout = raw
        o = Outcome()
        run_dir = os.path.join(self.out, self.scenario)
        if code != 0:
            o.problems.append(f"exit {code}, expected 0")
        files = ["checks.csv", "trajectory.csv"]
        if self.scenario == "pendulum-sync":
            files += ["trajectory_original.csv", "trajectory_unforced.csv"]
        for name in files:
            path = os.path.join(run_dir, name)
            if os.path.exists(path):
                o.digests[name] = sha256_file(path)
            else:
                o.problems.append(f"missing {name}")
        rows = {}
        if os.path.exists(os.path.join(run_dir, "checks.csv")):
            with open(os.path.join(run_dir, "checks.csv"), newline="") as fh:
                rows = {r["check"]: r for r in csv.DictReader(fh)}
        for line in stdout.splitlines():
            if line.startswith("epsilon_estimate = "):
                o.values["epsilon_estimate"] = float(line.split("=", 1)[1])
        if self.scenario == "pendulum-sync":
            row = rows.get("synchronization statistic")
            ratio = float(row["worst_value"]) if row else math.inf
            o.values["sync_ratio"] = ratio
            if not ratio < 0.25:
                o.problems.append(f"sync ratio {ratio} not below 0.25")
        else:
            row = rows.get("convergence endpoint")
            final = float(row["worst_value"]) if row else math.inf
            o.values["final_norm"] = final
            if not final < 1e-2:
                o.problems.append(f"|x(50)| = {final} not below 1e-2")
        if "epsilon_estimate" not in o.values:
            o.problems.append("no epsilon_estimate in the output")
        elif ref is not None and not close(o.values["epsilon_estimate"],
                                           ref["values"]["epsilon_estimate"]):
            o.problems.append(f"epsilon_estimate {o.values['epsilon_estimate']} differs from "
                              f"the reference {ref['values']['epsilon_estimate']}")
        shutil.rmtree(self.out, ignore_errors=True)
        return o


# ---------------------------------------------------------------------------
# certify-linear: one `ni-shape certify-linear FILE` per generated certificate


class CertifyOp(Op):
    def __init__(self, case, path):
        self.case = case
        self.label = case.label
        self.degenerate = case.degenerate
        self.path = path

    def run(self):
        return call_cli(["certify-linear", self.path])

    def finish(self, raw, ref):
        code, stdout = raw
        case = self.case
        o = Outcome(digests={"stdout": sha256_text(stdout)})
        if code != case.expected_exit:
            o.problems.append(f"exit {code}, expected {case.expected_exit} ({case.kind})")
            o.known_defect = case.degenerate and code == "uncaught"
        if case.expected_checks is not None:
            verdicts = {}
            for line in stdout.splitlines():
                name, sep, rest = line.partition(": ")
                if sep and name in case.expected_checks:
                    verdicts[name] = rest.split()[0]
            if verdicts != case.expected_checks:
                o.problems.append(f"verdicts {verdicts} disagree with the oracle "
                                  f"{case.expected_checks}")
        return o


# ---------------------------------------------------------------------------
# surface-box: `ni-shape surface` grids and sampled box checks


class SurfaceOp(Op):
    def __init__(self, scenario, workdir):
        self.label = f"surface:{scenario}"
        self.scenario = scenario
        self.out = os.path.join(workdir, "surface")

    def run(self):
        return call_cli(["surface", self.scenario, "--out", self.out])

    def finish(self, raw, ref):
        code, stdout = raw
        o = Outcome()
        if code != 0:
            o.problems.append(f"exit {code}, expected 0")
        for label in ("original", "shaped"):
            path = os.path.join(self.out, f"surface_{self.scenario}_{label}.csv")
            if os.path.exists(path):
                o.digests[label] = sha256_file(path)
            else:
                o.problems.append(f"missing {path}")
        for line in stdout.splitlines():
            label, sep, rest = line.partition(": ")
            if sep and rest.split()[1:3] == ["local", "minima,"]:
                o.values[f"{label}_minima"] = int(rest.split()[0])
        if ref is not None and o.values != ref["values"]:
            o.problems.append(f"minima counts {o.values} differ from the reference "
                              f"{ref['values']}")
        if self.scenario == "pendulum-stabilize" and o.values.get("shaped_minima") != 1:
            o.problems.append("shaped pendulum-stabilize surface needs exactly one minimum")
        shutil.rmtree(self.out, ignore_errors=True)
        return o


class BoxChecksOp(Op):
    """The four sampled box checks for one sample seed, from the library API:
    positive definiteness, gradient nonvanishing and equilibrium uniqueness
    of the stabilizing pendulum, and positive definiteness of linear-a's
    quadrature-built storage."""

    def __init__(self, seed):
        self.label = f"box:{seed}"
        self.seed = seed

    def run(self):
        import nishape
        seed = self.seed
        sc = nishape.get_scenario("pendulum-stabilize")
        plant, V, nl = sc.build_plant(), sc.build_storage(), sc.build_nonlinearity()
        W = nishape.make_shaped_storage(V, nl.potential, plant.h, plant.n_states,
                                        h_jacobian=plant.h_jacobian, name="W")
        closed = nishape.make_closed_loop(plant, nl)
        lin = nishape.get_scenario("linear-a")
        W_dey = nishape.dey_shaped_storage(lin.certificate, lin.build_nonlinearity())
        return {
            "pd:pendulum-stabilize":
                nishape.check_positive_definite(W, sc.box, n_samples=256, seed=seed),
            "grad:pendulum-stabilize":
                nishape.check_gradient_nonvanishing(W, sc.box, n_samples=256, seed=seed),
            "uniq:pendulum-stabilize":
                nishape.check_equilibrium_uniqueness(closed, sc.box, n_samples=512, seed=seed),
            "pd:linear-a-dey":
                nishape.check_positive_definite(W_dey, lin.box, n_samples=256, seed=seed),
        }

    def finish(self, reports, ref):
        import nishape
        o = Outcome()
        for name, report in reports.items():
            text = f"{nishape.report_line(name, report)}  n={report.n_samples}"
            o.digests[name] = sha256_text(text)
            o.values[name] = float(report.worst_value)
            if report.verdict != "pass":
                o.problems.append(f"{name}: verdict {report.verdict}, expected pass")
            if ref is not None and not close(o.values[name], ref["values"][name]):
                o.problems.append(f"{name}: worst {o.values[name]} differs from the "
                                  f"reference {ref['values'][name]}")
        return o


def build(workload, seed, workdir):
    """The operations of one round of ``workload`` for a workload seed."""
    k = seed % SEED_CLASSES
    if workload in ("pendulum-sync", "pendulum-stabilize"):
        return [PipelineOp(workload, k, workdir)]
    if workload == "certify-linear":
        pool = certgen.certificate_pool(k)
        paths = certgen.write_pool(pool, os.path.join(workdir, "certs"))
        return [CertifyOp(case, paths[case.label]) for case in pool]
    if workload == "surface-box":
        ops = [SurfaceOp("pendulum-stabilize", workdir), SurfaceOp("pendulum-sync", workdir)]
        return ops + [BoxChecksOp((k + j) % SEED_CLASSES) for j in range(BOX_SEEDS)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
