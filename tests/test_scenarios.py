import csv
import json
import math

import numpy as np
import pytest

from nishape import scenarios, simulate
from nishape import (PendulumParams, ScalarField, ShapingParams,
                     build_full_shaping, build_linear_example,
                     build_sync_shaping, export_potential_surface, get_scenario,
                     gradient_check, make_shaped_storage, run_scenario,
                     scenario_config, scenario_names, synchronization_statistic,
                     Trajectory)


# ---------------------------------------------------------------------------
# Parameters


def test_pendulum_params_defaults():
    p = PendulumParams()
    assert (p.m1, p.m2, p.k1, p.k2) == (2.0, 1.5, 2.0, 1.0)
    assert (p.l1, p.l2, p.d1, p.d2) == (1.0, 1.0, 0.5, 0.8)
    assert (p.kc, p.dc, p.g) == (0.2, 1.5, 9.81)


def test_pendulum_params_validation():
    with pytest.raises(ValueError):
        PendulumParams(m1=0.0)
    with pytest.raises(ValueError):
        PendulumParams(d1=-0.1)


def test_shaping_params_defaults_and_validation():
    s = ShapingParams()
    assert (s.beta, s.kappa, s.delta, s.a, s.b) == (1.5, 5.0, 0.1, 5.0, 3.0)
    with pytest.raises(ValueError):
        ShapingParams(delta=0.0)
    with pytest.raises(ValueError):
        ShapingParams(kappa=-1.0)


# ---------------------------------------------------------------------------
# Pendulum plant


def test_pendulum_origin_is_equilibrium(pendulum):
    plant, _ = pendulum
    assert np.allclose(plant.f(np.zeros(4), np.zeros(2)), np.zeros(4))


def test_pendulum_storage_value_by_hand(pendulum):
    _, V = pendulum
    th = math.pi / 2
    expected = (0.5 * 2.0 * th ** 2              # hinge spring 1
                + 2.0 * 9.81 * 1.0 * (1.0 - math.cos(th))  # gravity 1
                + 0.5 * 0.2 * th ** 2)           # coupling spring
    assert V.value((th, 0.0, 0.0, 0.0)) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(22.334, abs=5e-4)


def test_pendulum_damping_row_by_hand(pendulum):
    plant, _ = pendulum
    # omega1 rate at (0, 0, 1, 0) with u = 0: -(d1 + dc) / (m1 l1^2) = -1
    rate = plant.f(np.array([0.0, 0.0, 1.0, 0.0]), np.zeros(2))
    assert rate[2] == pytest.approx(-1.0, abs=1e-14)


def test_pendulum_output_is_angle_projection(pendulum):
    plant, _ = pendulum
    x = np.array([0.3, -0.7, 2.0, -1.0])
    assert np.array_equal(plant.h(x), np.array([0.3, -0.7]))
    assert np.array_equal(plant.output_jacobian(x), np.eye(2, 4))


# ---------------------------------------------------------------------------
# Shaping feedbacks


def test_sync_shaping_values():
    nl = build_sync_shaping()
    assert np.allclose(nl.phi(np.zeros(2)), np.zeros(2))
    e = 0.1
    expected_first = -2.0 * 1.5 * e - 5.0 * e / math.sqrt(e * e + 0.01)
    out = nl.phi(np.array([0.2, 0.1]))
    assert out[0] == pytest.approx(expected_first, abs=1e-12)
    assert out[1] == pytest.approx(-expected_first, abs=1e-12)
    assert expected_first == pytest.approx(-3.8355, abs=5e-5)


def test_sync_potential_is_even_in_the_swap():
    nl = build_sync_shaping()
    rng = np.random.default_rng(13)
    for _ in range(20):
        y1, y2 = rng.uniform(-4.0, 4.0, size=2)
        assert nl.potential.value((y1, y2)) == pytest.approx(
            nl.potential.value((y2, y1)), abs=1e-12)


def test_full_shaping_values():
    nl = build_full_shaping()
    assert np.allclose(nl.phi(np.zeros(2)), np.zeros(2))
    out = nl.phi(np.array([0.5, 0.5]))
    expected = -5.0 * 3.0 * math.tanh(1.5)
    assert out[0] == pytest.approx(expected, abs=1e-12)
    assert out[1] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-13.577, abs=5e-4)


def test_full_shaping_gradient_consistency():
    nl = build_full_shaping()
    rng = np.random.default_rng(14)
    report = gradient_check(nl.potential, rng.uniform(-3.0, 3.0, size=(100, 2)))
    assert report.passed
    assert report.max_deviation <= 1e-6


# ---------------------------------------------------------------------------
# Linear examples


def test_linear_example_case_a_storage_and_loop():
    sc = build_linear_example("a")
    plant = sc.build_plant()
    nl = sc.build_nonlinearity()
    V = sc.build_storage()
    W = make_shaped_storage(V, nl.potential, plant.h, 2, h_jacobian=plant.h_jacobian)
    rng = np.random.default_rng(15)
    for _ in range(20):
        x = rng.uniform(-4.0, 4.0, size=2)
        assert W.value(x) == pytest.approx(0.4 * x[0] ** 2 + 0.75 * x[1] ** 2, abs=1e-12)
        assert np.allclose(plant.f(x, nl.phi(plant.h(x))), np.diag([-0.8, -3.0]) @ x,
                           atol=1e-12)


def test_linear_example_case_b_storage_vanishes_at_origin():
    sc = build_linear_example("b")
    plant = sc.build_plant()
    nl = sc.build_nonlinearity()
    V = sc.build_storage()
    W = make_shaped_storage(V, nl.potential, plant.h, 2, h_jacobian=plant.h_jacobian)
    assert W.value(np.zeros(2)) == 0.0


def test_linear_example_unknown_case():
    with pytest.raises(ValueError, match="case"):
        build_linear_example("c")


# ---------------------------------------------------------------------------
# Registry


def test_registry_contents():
    assert scenario_names() == ["linear-a", "linear-b", "pendulum-stabilize", "pendulum-sync"]
    with pytest.raises(ValueError, match="unknown scenario"):
        get_scenario("linear-z")


def test_scenario_builders_are_referentially_transparent():
    sc = get_scenario("pendulum-sync")
    plant_a = sc.build_plant()
    plant_b = sc.build_plant()
    nl_a = sc.build_nonlinearity()
    nl_b = sc.build_nonlinearity()
    rng = np.random.default_rng(16)
    for _ in range(100):
        x = rng.uniform(-5.0, 5.0, size=4)
        u = rng.uniform(-3.0, 3.0, size=2)
        assert np.array_equal(plant_a.f(x, u), plant_b.f(x, u))
        assert np.array_equal(nl_a.phi(x[:2]), nl_b.phi(x[:2]))


def test_scenario_config_dump():
    cfg = scenario_config("pendulum-sync")
    assert cfg["pendulum"]["m1"] == 2.0
    assert cfg["shaping"]["kappa"] == 5.0
    assert cfg["integrator"] == {"step": 1e-3, "t_end": 30.0, "method": "RK4"}
    assert cfg["x0"] == [6.0, 4.5, 0.0, 0.0]
    assert cfg["signal"]["kind"] == "square_wave"
    lin = scenario_config("linear-a")
    assert lin["A"] == [[-1.0, 0.0], [0.0, -2.0]]


# ---------------------------------------------------------------------------
# Potential surfaces


def test_surface_minima_counts(pendulum, tmp_path):
    plant, V = pendulum
    nl = build_full_shaping()
    W2 = make_shaped_storage(V, nl.potential, plant.h, 4, h_jacobian=plant.h_jacobian)
    original = export_potential_surface(V, tmp_path / "v.csv", points=81)
    shaped = export_potential_surface(W2, points=81)
    assert original.n_minima > 1
    assert shaped.n_minima == 1
    assert shaped.minima[0] == (0.0, 0.0)
    header = (tmp_path / "v.csv").read_text().splitlines()[0]
    assert header == "theta1,theta2,value"


def test_surface_constant_field_is_degenerate():
    flat = ScalarField(2, lambda x: 0.0)
    report = export_potential_surface(flat, points=21, half_range=2.0)
    assert report.degenerate
    assert report.n_minima == 0
    assert report.n_plateau == 19 * 19


def test_surface_grid_validation(pendulum):
    _, V = pendulum
    with pytest.raises(ValueError):
        export_potential_surface(V, points=2)
    for half_range in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="half_range"):
            export_potential_surface(V, half_range=half_range)
    with pytest.raises(ValueError, match="dimension"):
        export_potential_surface(ScalarField(3, lambda x: float(x @ x)))


# ---------------------------------------------------------------------------
# Pipeline


def test_run_scenario_linear_a_bundle(tmp_path):
    result = run_scenario("linear-a", out_dir=tmp_path)
    assert result.passed
    names = [name for name, _ in result.checks]
    assert "ssni-certificate" in names
    assert "shaped-storage positive-definite" in names
    assert "closed-loop storage decay" in names
    assert result.extras["epsilon_estimate"] > 0.0

    csv_path = result.artifacts["checks_csv"]
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["check", "verdict", "worst_value", "witness"]
    assert all(row[1] in ("pass", "skipped", "info", "flagged") for row in rows[1:])

    cfg = json.load(open(result.artifacts["scenario_json"]))
    assert cfg["name"] == "linear-a"
    traj_lines = open(result.artifacts["trajectory"]).read().splitlines()
    assert traj_lines[0] == "t,x1,x2,v1,v2,y1,y2,W"


def test_run_scenario_pendulum_sync_bundle(tmp_path):
    result = run_scenario("pendulum-sync", out_dir=tmp_path)
    assert result.passed
    names = [name for name, _ in result.checks]
    assert "synchronization statistic" in names
    assert "hidden-motion heuristic" in names
    sync = dict(result.checks)["synchronization statistic"]
    assert sync.ratio < 0.25
    assert set(result.artifacts) == {"trajectory", "trajectory_unforced",
                                     "trajectory_original", "checks_csv",
                                     "checks_txt", "scenario_json"}


def test_run_scenario_pendulum_stabilize_bundle(tmp_path):
    result = run_scenario("pendulum-stabilize", out_dir=tmp_path)
    assert result.passed
    names = [name for name, _ in result.checks]
    assert "convergence endpoint" in names
    assert "equilibrium uniqueness" in names
    endpoint = dict(result.checks)["convergence endpoint"]
    assert endpoint.final_norm < 1e-2


@pytest.mark.parametrize("name, n_runs", [
    ("pendulum-stabilize", 2),  # plant, unforced closed loop
    ("pendulum-sync", 4),       # plus forced closed loop, unshaped run (repeats the plant run)
])
def test_run_scenario_simulation_count(monkeypatch, name, n_runs):
    calls = []

    def counting_simulate(*args, **kwargs):
        calls.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(scenarios, "simulate", counting_simulate)
    run_scenario(name, t_end=0.05)
    assert len(calls) == n_runs


def test_run_scenario_unknown_name():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("nope")


def test_run_scenario_overrides(tmp_path):
    result = run_scenario("linear-b", step=2e-3, t_end=2.0, x0=[0.5, -0.5], seed=3)
    assert result.passed
    assert result.artifacts == {}


def test_synchronization_statistic_window():
    times = np.arange(5) * 1.0
    outputs = np.array([[1.0, 0.0]] * 5)
    traj = Trajectory(times=times, states=np.zeros((5, 2)), inputs=np.zeros((5, 2)),
                      outputs=outputs)
    assert synchronization_statistic(traj, 1.0, 3.0) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="window"):
        synchronization_statistic(traj, 10.0, 12.0)
