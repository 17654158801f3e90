import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest

from nishape import cli, scenario_names
from nishape.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("linear-a", "linear-b", "pendulum-sync", "pendulum-stabilize"):
        assert name in out


def test_run_command_writes_bundle(tmp_path, capsys):
    code = main(["run", "linear-a", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: pass" in out
    assert (tmp_path / "linear-a" / "trajectory.csv").exists()
    assert (tmp_path / "linear-a" / "checks.csv").exists()


def test_run_command_unknown_scenario(capsys):
    assert main(["run", "linear-z"]) == 2


def test_run_command_bad_x0(capsys):
    assert main(["run", "linear-a", "--x0", "a,b"]) == 2


def test_certify_linear_pass_and_fail(tmp_path, capsys):
    good = {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0, 0.0], [0.0, 2.0]],
            "C": [[1.0, 0.0], [0.0, 1.0]], "Y": [[1.0, 0.0], [0.0, 1.0]],
            "mu": [0.5, 0.5]}
    cases = [  # (label, fields replaced in the good certificate, exit code, output)
        ("good", {}, 0, "overall: pass"),
        ("bad", {"B": [[1.0, 0.0], [0.0, 1.0]]}, 1, "dc-gain cross-check: fail"),
        ("singular", {"A": [[0.0, 0.0], [0.0, -2.0]], "B": [[0.0, 0.0], [0.0, 2.0]]}, 1,
         "dc-gain cross-check: fail (A is singular"),
        ("short-mu", {"mu": [0.5]}, 2, "error: mu has 1 entries, system has 2 channels"),
        # a matrix mu is not read as a diagonal: a column for 2 channels, a 2 x 2 for 4
        ("column-mu", {"mu": [[0.5], [0.5]]}, 2,
         "error: mu must be a flat list of per-channel slopes, got shape (2, 1)"),
        ("matrix-mu", {"A": np.diag([-1.0, -2.0, -3.0, -4.0]).tolist(),
                       "B": np.diag([1.0, 2.0, 3.0, 4.0]).tolist(), "C": np.eye(4).tolist(),
                       "Y": np.eye(4).tolist(), "mu": [[0.5, 0.5], [0.5, 0.5]]}, 2,
         "error: mu must be a flat list of per-channel slopes, got shape (2, 2)"),
    ]
    for label, changes, code, text in cases:
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(good | changes))
        assert main(["certify-linear", str(path)]) == code, label
        captured = capsys.readouterr()
        assert text in (captured.err if code == 2 else captured.out), label
        assert "Traceback" not in captured.err

    assert main(["certify-linear", str(tmp_path / "missing.json")]) == 2


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys, monkeypatch):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0, 0.0], [0.0, 2.0]],
                                "C": [[1.0, 0.0], [0.0, 1.0]], "Y": [[1.0, 0.0], [0.0, 1.0]],
                                "mu": [0.5, 0.5]}))
    run = ["run", "linear-a", "--t-end", "1", "--out", str(tmp_path / "out")]
    calls = [run + ["--seed", "3"], run, ["run", "linear-a", "--step", "0"], ["list"],
             ["certify-linear", str(cert)]]
    shared = []
    for argv in calls:  # one process, one parser
        shared.append((main(argv), capsys.readouterr().out))
    for argv, got in zip(calls, shared):
        monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
        assert got == (main(argv), capsys.readouterr().out), argv
    assert [code for code, _ in shared] == [0, 0, 2, 0, 0]
    # the unseeded run after a seeded one reads the default seed 0
    assert shared[1] == (main(run + ["--seed", "0"]), capsys.readouterr().out)
    assert shared[0][1] != shared[1][1]


def test_usage_errors_exit_2_without_traceback(tmp_path, capsys):
    cert = {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0, 0.0], [0.0, 2.0]],
            "C": [[1.0, 0.0], [0.0, 1.0]], "Y": [[1.0, 0.0], [0.0, float("nan")]]}
    (tmp_path / "list.json").write_text(json.dumps([1, 2]))
    (tmp_path / "nan-y.json").write_text(json.dumps(cert))
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    # finite inputs whose numbers overflow: 1 / mu, and the norms of A Y + Y A^T and of Y
    (tmp_path / "tiny-mu.json").write_text(json.dumps(
        {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "Y": [[1.0]], "mu": [5e-324]}))
    (tmp_path / "huge-a.json").write_text(json.dumps(cert | {
        "A": [[-1e200, 0.0], [0.0, -1e200]], "B": [[1e200, 0.0], [0.0, 1e200]]}))
    (tmp_path / "huge-y.json").write_text(json.dumps(cert | {"Y": [[1e300, 0.0], [0.0, 1e300]]}))
    out = ["--out", str(tmp_path / "out")]
    cases = [["run", "linear-b", *flag, *out] for flag in (
        ["--x0", "1,2,3"], ["--step", "0"], ["--step", "nan"], ["--t-end", "1e-4"],
        ["--t-end", "inf"], ["--t-end", "nan"], ["--x0", "nan,1"], ["--seed", "-1"],
        ["--step", "5e-324"], ["--t-end", "1e14"])]
    cases += [["surface", "linear-a", *flag, *out] for flag in (
        ["--points", "2"], ["--range", "0"], ["--range", "nan"], ["--points", "1000000"],
        ["--range", "1e308"])]
    cases += [["certify-linear", str(tmp_path / name)] for name in (
        "list.json", "nan-y.json", "deep.json", "tiny-mu.json", "huge-a.json", "huge-y.json")]
    for argv in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), argv
        assert "Traceback" not in captured.err, argv
        if argv[0] == "certify-linear":  # rejected while loading: one line, nothing on stdout
            assert captured.out == "" and captured.err.count("\n") == 1, argv


def test_certify_linear_never_raises_on_fuzzed_certificates(tmp_path_factory):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    small = st.floats(-4.0, 4.0)
    wild = st.one_of(st.floats(), st.sampled_from([1e308, -1e308, 5e-324, 10 ** 400]))
    mistyped = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                         st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))

    @st.composite
    def payloads(draw):
        n, p = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        tame = draw(st.integers(0, 2)) > 0
        entries = small if tame else draw(st.sampled_from(
            [st.one_of(small, wild), st.one_of(small, wild, mistyped)]))

        def matrix(rows, cols):
            return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                                 min_size=rows, max_size=rows))

        A, C = matrix(n, n), matrix(p, n)
        if tame and draw(st.booleans()):  # A = -a I: A Y + Y A^T < 0 for every Y > 0
            A = (-draw(st.floats(0.1, 4.0)) * np.eye(n)).tolist()
        if draw(st.booleans()):  # positive diagonal: passes the Y checks
            Y = np.diag(draw(st.lists(st.one_of(st.floats(1e-3, 4.0), st.floats(1e-3, 1e308)),
                                      min_size=n, max_size=n))).tolist()
        else:
            Y = matrix(n, n)
        if tame and draw(st.booleans()):  # B = -A Y C^T: the structure equation holds
            with np.errstate(all="ignore"):
                B = (-np.array(A) @ np.array(Y) @ np.array(C).T).tolist()
        else:
            B = matrix(n, p)
        payload = {"A": A, "B": B, "C": C, "Y": Y}
        if draw(st.booleans()):
            payload["mu"] = draw(st.lists(st.one_of(st.floats(1e-3, 4.0), entries),
                                          min_size=p, max_size=p) | st.lists(entries, max_size=5))
        damage = draw(st.sampled_from(["none"] * 6 + ["missing", "odd", "shape", "top"]))
        key = draw(st.sampled_from(sorted(payload)))
        if damage == "missing":
            del payload[key]
        elif damage == "odd":
            payload[key] = draw(st.one_of(entries, wild, mistyped, st.lists(entries, max_size=4)))
        elif damage == "shape":
            payload[key] = matrix(draw(st.integers(0, 5)), draw(st.integers(0, 5)))
        elif damage == "top":
            return draw(st.one_of(st.just(list(payload.values())), wild, mistyped,
                                  st.lists(entries, max_size=3)))
        return payload

    path = tmp_path_factory.mktemp("fuzz") / "cert.json"

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(payloads())
    def check(payload):
        path.write_text(json.dumps(payload))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["certify-linear", str(path)]) in (0, 1, 2)

    check()


def test_huge_initial_state_fails_its_checks_without_traceback(capsys):
    # at 1e308 a stage overflows to inf, where math.sin and math.cos raise
    huge = "1e308,-1e308,1e308,-1e308"
    for argv in (["pendulum-stabilize", "--x0", "1e200,0,0,0", "--t-end", "0.01"],
                 ["pendulum-stabilize", "--x0", huge, "--t-end", "3"],
                 ["linear-b", "--x0", "1e308,-1e308", "--t-end", "1"],
                 ["pendulum-sync", "--x0", huge, "--t-end", "3"]):
        # inf and nan are expected in a blow-up run: no numpy warning reaches the user
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", *argv]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out.endswith("overall: fail\n"), argv
        assert captured.err == "", argv


def test_run_and_surface_never_raise_on_fuzzed_arguments(tmp_path_factory):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    finite = st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([0.0, -0.0, 5e-324, 1e-170, 1e200, -1e200, 1e308, -1e308]))
    number = st.one_of(finite, st.sampled_from([math.inf, -math.inf, math.nan]))
    out = str(tmp_path_factory.mktemp("fuzz"))

    def mostly(common, rare):
        return st.integers(0, 3).flatmap(lambda k: rare if k == 0 else common)

    @st.composite
    def argvs(draw):  # "--flag=value", so that "-1e+200" is not taken for a flag
        name = draw(st.sampled_from(scenario_names()))
        if draw(st.integers(0, 3)) == 0:
            argv = ["surface", name, f"--out={out}", f"--points={draw(st.integers(-1, 12))}"]
            if draw(st.booleans()):
                argv.append(f"--range={draw(mostly(finite, number))!r}")
            return argv
        dim = 2 if name.startswith("linear") else 4
        argv = ["run", name]
        if draw(st.booleans()):
            n = draw(st.sampled_from([dim, dim, dim, dim - 1, dim + 1]))
            x0 = draw(st.lists(mostly(finite, number), min_size=n, max_size=n))
            argv.append("--x0=" + ",".join(repr(v) for v in x0))
        t_end = draw(mostly(st.floats(1e-3, 0.02), number))
        step = draw(mostly(st.integers(1, 20).map(lambda k: t_end / k), number))
        if step > 0.0 and 20.0 < t_end / step < math.inf:  # at most 20 steps
            step = t_end / 20.0
        argv += [f"--t-end={t_end!r}", f"--step={step!r}"]
        if draw(st.booleans()):
            argv.append(f"--seed={draw(st.integers(-2, 2 ** 70))}")
        if draw(st.booleans()):
            argv.append(f"--out={out}")
        return argv

    @settings(max_examples=120, deadline=None, database=None, derandomize=True)
    @given(argvs())
    def check(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), np.errstate(all="ignore"):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
        assert code in (0, 1, 2), argv

    check()


def test_surface_command(tmp_path, capsys):
    code = main(["surface", "linear-b", "--out", str(tmp_path), "--points", "41",
                 "--range", "5.0"])
    assert code == 0
    assert (tmp_path / "surface_linear-b_original.csv").exists()
    assert (tmp_path / "surface_linear-b_shaped.csv").exists()


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_bad_flag_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "linear-a", "--bogus"])
    assert excinfo.value.code == 2
