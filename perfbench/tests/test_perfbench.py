"""Tests of the benchmark's own parts: the certificate generator and its
oracle, the latency tail, the host-speed clock, the tracer's self-time
arithmetic, and the tracer's transparency."""

import os
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import nishape  # noqa: E402
import certgen  # noqa: E402
import hostclock  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [0, 5])
def test_generated_certificates_pass_check_ssni(seed):
    pool = certgen.certificate_pool(seed)
    well_formed = [c for c in pool if not c.degenerate]
    assert len(well_formed) == 2 * len(certgen.PAIRS)
    for case in well_formed:
        p = case.payload
        cert = nishape.SsniCertificate(nishape.LinearSystem(p["A"], p["B"], p["C"]), p["Y"])
        assert nishape.check_ssni(cert).verdict == "pass", case.label
    assert Counter(c.expected_exit for c in well_formed) == {0: 35, 1: 35}
    assert Counter(c.expected_exit for c in pool if c.degenerate) == {
        1: certgen.N_SINGULAR, 2: certgen.N_BAD_MU}


def test_certificate_pool_is_a_function_of_the_seed():
    first = [c.payload for c in certgen.certificate_pool(3)]
    assert first == [c.payload for c in certgen.certificate_pool(3)]
    assert first != [c.payload for c in certgen.certificate_pool(4)]


def test_oracle_matches_the_cli_on_well_formed_certificates(tmp_path):
    pool = certgen.certificate_pool(1)
    paths = certgen.write_pool(pool, tmp_path)
    for case in pool:
        if case.degenerate:
            continue
        outcome = workloads.CertifyOp(case, paths[case.label]).finish(
            workloads.call_cli(["certify-linear", paths[case.label]]), None)
        assert outcome.problems == [], case.label


def test_tail_keeps_ten_samples_beyond_it():
    assert run.tail([float(x) for x in range(20)]) == (9.0, 50.0, 10)
    assert run.tail([4.0, 2.0]) == (4.0, 100.0, 0)


def test_host_clock_runs_at_nominal_over_probe_speed(monkeypatch):
    # a probe that always takes twice the nominal time halves the clock's rate
    monkeypatch.setattr(hostclock, "time_probe", lambda: 2e-4)
    with hostclock.HostClock(period=0.005, nominal=1e-4) as hc:
        c0, w0 = hc.now(), time.perf_counter()
        while time.perf_counter() - w0 < 0.2:
            pass
        c1, w1 = hc.now(), time.perf_counter()
    assert len(hc.probes) > 10
    assert (c1 - c0) == pytest.approx(0.5 * (w1 - w0), rel=0.02)


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
    spans = [["root", 0.0, 10.0, -1, None, None], ["a", 1.0, 4.0, 0, None, None],
             ["b", 5.0, 9.0, 0, None, None], ["c", 6.0, 8.0, 2, None, None]]
    assert tracer.self_times(spans) == [3.0, 3.0, 2.0, 2.0]


def test_tracer_wraps_every_binding_and_restores_it():
    bindings = [("nishape.scenarios", "simulate"), ("nishape.sim", "simulate"),
                ("nishape.cli", "run_scenario"), ("nishape.linear", "sym_eigenvalues"),
                ("nishape.certify", "sym_eigenvalues"), ("nishape", "simulate")]
    before = {b: getattr(sys.modules[b[0]], b[1]) for b in bindings}
    skipped = nishape.sim.square_wave_value
    with tracer.Tracer():
        for b in bindings:
            assert getattr(sys.modules[b[0]], b[1]) is not before[b]
        assert nishape.sim.square_wave_value is skipped
        assert nishape.scenarios.simulate is nishape.sim.simulate
    for b in bindings:
        assert getattr(sys.modules[b[0]], b[1]) is before[b]


def test_spans_nest_and_count_from_returned_objects():
    tr = tracer.Tracer()
    box = [(-1.0, 1.0)] * 2
    field = nishape.ScalarField(2, lambda x: float(x @ x), lambda x: 2.0 * x)
    with tr:
        nishape.check_positive_definite(field, box, n_samples=32, seed=0)
    names = [s[tracer.NAME] for s in tr.spans]
    assert names[0] == "certify.check_positive_definite"
    halton = names.index("certify.halton_box_samples")
    assert tr.spans[halton][tracer.PARENT] == 0
    metrics = tracer.layer_metrics(tr.spans, 1, 0.0)
    assert metrics["certify.halton_box_samples.points"] == 32
    assert metrics["certify.check_positive_definite.samples"] > 32   # plus the origin shell
    assert metrics["sim.simulate.calls"] == 0


def _files(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def test_traced_run_writes_the_same_bytes_as_an_untraced_one(tmp_path):
    def argv(out):
        return ["run", "pendulum-sync", "--t-end", "0.2", "--out", str(tmp_path / out)]

    code, stdout = workloads.call_cli(argv("untraced"))
    tr = tracer.Tracer()
    tr.op = (0, "run")
    with tr:
        traced_code, traced_stdout = workloads.call_cli(argv("traced"))
    assert traced_code == code
    assert traced_stdout == stdout.replace("untraced", "traced")
    assert (_files(tmp_path / "traced" / "pendulum-sync")
            == _files(tmp_path / "untraced" / "pendulum-sync"))
    metrics = tracer.layer_metrics(tr.spans, 1, 0.0)
    assert metrics["sim.simulate.calls"] == 4
    assert metrics["sim.simulate.distinct_ratio"] == 0.75
    assert metrics["sim.write_trajectory_csv.rows"] == 3 * 201
    assert metrics["cli.exit_code.0"] + metrics["cli.exit_code.1"] == 1
