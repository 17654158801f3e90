import contextlib
import io
import json

import numpy as np
import pytest

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
    ]
    for label, changes, code, text in cases:
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(good | changes))
        assert main(["certify-linear", str(path)]) == code, label
        captured = capsys.readouterr()
        assert text in (captured.err if code == 2 else captured.out), label
        assert "Traceback" not in captured.err

    assert main(["certify-linear", str(tmp_path / "missing.json")]) == 2


def test_usage_errors_exit_2_without_traceback(tmp_path, capsys):
    cert = {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0, 0.0], [0.0, 2.0]],
            "C": [[1.0, 0.0], [0.0, 1.0]], "Y": [[1.0, 0.0], [0.0, float("nan")]]}
    (tmp_path / "list.json").write_text(json.dumps([1, 2]))
    (tmp_path / "nan-y.json").write_text(json.dumps(cert))
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    out = ["--out", str(tmp_path / "out")]
    cases = [["run", "linear-b", *flag, *out] for flag in (
        ["--x0", "1,2,3"], ["--step", "0"], ["--step", "nan"], ["--t-end", "1e-4"],
        ["--t-end", "inf"], ["--t-end", "nan"], ["--x0", "nan,1"], ["--seed", "-1"])]
    cases += [["surface", "linear-a", *flag, *out] for flag in (
        ["--points", "2"], ["--range", "0"], ["--range", "nan"])]
    cases += [["certify-linear", str(tmp_path / name)] for name in ("list.json", "nan-y.json", "deep.json")]
    for argv in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), argv
        assert "Traceback" not in captured.err, argv


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
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), np.errstate(all="ignore"):
            assert main(["certify-linear", str(path)]) in (0, 1, 2)

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
