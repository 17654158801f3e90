import json

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
