"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import time

import numpy as np

from nishape import (InputSignal, IntegratorConfig, LinearSystem, SlopeBounds,
                     SsniCertificate, build_full_shaping,
                     build_linear_example, build_pendulum, build_sync_shaping,
                     check_equilibrium_uniqueness, check_positive_definite,
                     check_ssni, closed_loop_matrix, dissipation_from_rates,
                     epsilon_from_rates, export_potential_surface, gradient_check,
                     hamiltonian_decay_identity, is_hurwitz, make_closed_loop,
                     make_shaped_storage, monitor_decay, rate_table,
                     schur_equivalence, simulate, synchronization_statistic)
from conftest import make_linear_gain_feedback, make_rotation_hamiltonian, with_storage


def _criterion(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {label}: {status}{suffix}")
    assert ok, f"criterion {number} ({label}) failed{suffix}"


def _example_cert():
    sys = LinearSystem(np.diag([-1.0, -2.0]), np.diag([1.0, 2.0]), np.eye(2))
    return sys, SsniCertificate(sys, np.eye(2))


def _case_b_pieces():
    sc = build_linear_example("b")
    plant = sc.build_plant()
    nl = sc.build_nonlinearity()
    V = sc.build_storage()
    W = make_shaped_storage(V, nl.potential, plant.h, 2, h_jacobian=plant.h_jacobian)
    return sc, plant, nl, V, W


def test_01_closed_loop_matrix_exact_and_hurwitz():
    sys, _ = _example_cert()
    K = np.diag([0.2, -0.5])
    closed_loop_matrix(sys, K)      # warm-up
    is_hurwitz(np.diag([-0.8, -3.0]))
    t0 = time.perf_counter()
    A_cl = closed_loop_matrix(sys, K)
    hurwitz = is_hurwitz(A_cl)
    elapsed = time.perf_counter() - t0
    exact = np.array_equal(A_cl, np.diag([-1.0, -2.0]) + np.diag([0.2, -1.0]))
    near = np.allclose(A_cl, np.diag([-0.8, -3.0]), rtol=0, atol=1e-15)
    off_diag_zero = A_cl[0, 1] == 0.0 and A_cl[1, 0] == 0.0
    _criterion(1, "closed-loop matrix exact and Hurwitz",
               exact and near and off_diag_zero and hurwitz.verdict == "pass"
               and elapsed < 1e-3,
               f"elapsed {elapsed * 1e6:.0f} us")


def test_02_ssni_certificate_margins():
    _, cert = _example_cert()
    report = check_ssni(cert)
    max_eig, (residual,) = report.worst_value, report.witness
    ok = report.verdict == "pass" and abs(max_eig - (-2.0)) <= 1e-9 and residual <= 1e-12
    _criterion(2, "linear SSNI certificate",
               ok, f"max eig {max_eig:.12g}, residual {residual:.3g}")


def test_03_coupled_case_decay_and_convergence():
    _, plant, nl, V, W = _case_b_pieces()
    closed = make_closed_loop(plant, nl)
    t0 = time.perf_counter()
    traj = with_storage(simulate(closed, (1.0, -2.0), InputSignal.zero(2),
                                 IntegratorConfig(step=1e-3, t_end=10.0)), W)
    elapsed = time.perf_counter() - t0
    decay = monitor_decay(traj)
    end_norm = float(np.linalg.norm(traj.states[-1]))
    _criterion(3, "coupled linear case: storage decay and convergence",
               decay.verdict == "pass" and end_norm < 1e-3 and elapsed < 1.0,
               f"|x(10)| = {end_norm:.3e}, elapsed {elapsed:.2f} s")


def test_04_storage_rate_identity_along_trajectory():
    sc, plant, nl, V, W = _case_b_pieces()
    closed = make_closed_loop(plant, nl)
    traj = simulate(closed, (1.0, -2.0), InputSignal.zero(2),
                    IntegratorConfig(step=1e-3, t_end=10.0))
    A, B, C = sc.certificate.sys.A, sc.certificate.sys.B, sc.certificate.sys.C
    Yinv = np.linalg.inv(sc.certificate.Y)
    L = A @ sc.certificate.Y + sc.certificate.Y @ A.T
    worst = 0.0
    for k in range(traj.n_samples):
        x = traj.states[k]
        u = np.asarray(nl.phi(C @ x), dtype=float)
        lhs = float(W.gradient(x) @ (A @ x + B @ u))
        g = Yinv @ x - C.T @ u
        worst = max(worst, abs(lhs - 0.5 * float(g @ L @ g)))
    _criterion(4, "storage-rate quadratic-form identity", worst <= 1e-9,
               f"max |difference| = {worst:.3e}")


def test_05_schur_equivalence_on_random_certificates():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    agreements = 0
    total = 500
    for _ in range(total):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, n + 1))
        q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
        Y = q1 @ np.diag(rng.uniform(0.3, 3.0, size=n)) @ q1.T
        q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
        P = q2 @ np.diag(rng.uniform(0.2, 2.0, size=n)) @ q2.T
        A = -0.5 * (P + P.T) @ np.linalg.inv(0.5 * (Y + Y.T))
        C = rng.normal(size=(p, n))
        sys = LinearSystem(A, -A @ Y @ C.T, C)
        cert = SsniCertificate(sys, 0.5 * (Y + Y.T))
        m = SlopeBounds(rng.uniform(0.05, 5.0, size=p))
        if schur_equivalence(cert, m).verdict == "pass":  # the two predicates agree
            agreements += 1
    elapsed = time.perf_counter() - t0
    _criterion(5, "Schur-complement equivalence on random certificates",
               agreements == total and elapsed < 5.0,
               f"{agreements}/{total} agree, elapsed {elapsed:.2f} s")


def test_06_pendulum_osni_certification():
    plant, V = build_pendulum()
    rng = np.random.default_rng(42)
    trajs = [simulate(plant, rng.uniform(-3.0, 3.0, size=4), InputSignal.zero(2),
                      IntegratorConfig(step=1e-3, t_end=5.0))
             for _ in range(20)]
    eps_hat = epsilon_from_rates([rate_table(plant, V, traj) for traj in trajs])
    square = simulate(plant, (6.0, 4.5, 0.0, 0.0),
                      InputSignal.square_wave(2, 0, 2.0, 3.0),
                      IntegratorConfig(step=1e-3, t_end=30.0))
    rates = rate_table(plant, V, square)
    r_ni = dissipation_from_rates(rates, 0.0)
    r_osni = dissipation_from_rates(rates, 0.5 * eps_hat)
    ok = (eps_hat > 0.0
          and r_ni.verdict == "pass" and r_ni.detail["n_violations"] == 0
          and r_osni.verdict == "pass" and r_osni.detail["n_violations"] == 0)
    _criterion(6, "pendulum NI/OSNI residuals", ok,
               f"epsilon estimate {eps_hat:.4f}")


def test_07_pendulum_synchronization_ratio():
    plant, V = build_pendulum()
    nl = build_sync_shaping()
    closed = make_closed_loop(plant, nl)
    sig = InputSignal.square_wave(2, channel=0, amplitude=2.0, period=3.0)
    cfg = IntegratorConfig(step=1e-3, t_end=30.0)
    x0 = (6.0, 4.5, 0.0, 0.0)
    original = simulate(plant, x0, sig, cfg)
    shaped = simulate(closed, x0, sig, cfg)
    mean_orig = synchronization_statistic(original, 20.0, 30.0)
    mean_shaped = synchronization_statistic(shaped, 20.0, 30.0)
    ratio = mean_shaped / mean_orig
    _criterion(7, "pendulum synchronization ratio", ratio < 0.25,
               f"mean |e|: original {mean_orig:.4f}, shaped {mean_shaped:.4f}, "
               f"ratio {ratio:.3f}")


def test_08_pendulum_stabilization():
    plant, V = build_pendulum()
    nl = build_full_shaping()
    closed = make_closed_loop(plant, nl)
    W2 = make_shaped_storage(V, nl.potential, plant.h, 4, h_jacobian=plant.h_jacobian)
    traj = with_storage(simulate(closed, (6.0, 4.5, 0.0, 0.0), InputSignal.zero(2),
                                 IntegratorConfig(step=1e-3, t_end=50.0)), W2)
    final_max = float(np.max(np.abs(traj.states[-1])))
    decay = monitor_decay(traj)
    uniqueness = check_equilibrium_uniqueness(closed, [(-8.0, 8.0)] * 4,
                                              n_samples=512, seed=0)
    ok = final_max < 1e-2 and decay.verdict == "pass" and uniqueness.verdict == "pass"
    _criterion(8, "pendulum stabilization", ok,
               f"max |x(50)| = {final_max:.3e}")


def test_09_potential_surface_minima():
    plant, V = build_pendulum()
    nl = build_full_shaping()
    W2 = make_shaped_storage(V, nl.potential, plant.h, 4, h_jacobian=plant.h_jacobian)
    original = export_potential_surface(V, half_range=8.0, points=161)
    shaped = export_potential_surface(W2, half_range=8.0, points=161)
    ok = len(original.minima) > 1 and len(shaped.minima) == 1
    _criterion(9, "potential-surface minima", ok,
               f"original {len(original.minima)}, shaped {len(shaped.minima)}")


def test_10_decay_identity_and_order():
    hs = make_rotation_hamiltonian(omega=3.0, r=3.0)
    nl = make_linear_gain_feedback(-0.5)
    closed = make_closed_loop(hs, nl)
    discrepancies = []
    for step in (1e-3, 5e-4):
        traj = simulate(closed, [1.0, 0.0], InputSignal.zero(1),
                        IntegratorConfig(step=step, t_end=3.0))
        discrepancies.append(hamiltonian_decay_identity(hs, nl, traj).worst_value)
    ratio = discrepancies[0] / discrepancies[1]
    ok = discrepancies[0] <= 1e-7 and ratio >= 8.0
    _criterion(10, "storage decay identity and refinement order", ok,
               f"discrepancy {discrepancies[0]:.3e}, halving ratio {ratio:.1f}")


def test_11_property_suites():
    rng = np.random.default_rng(7)
    probes = rng.uniform(-3.0, 3.0, size=(100, 2))

    fields = {
        "pendulum sync potential": build_sync_shaping().potential,
        "pendulum full potential": build_full_shaping().potential,
        "linear diagonal potential": build_linear_example("a").build_nonlinearity().potential,
        "linear coupled potential": build_linear_example("b").build_nonlinearity().potential,
    }
    gradient_ok = True
    worst = 0.0
    for field in fields.values():
        report = gradient_check(field, probes)
        gradient_ok = gradient_ok and report.passed and report.worst_value <= 1e-5
        worst = max(worst, report.worst_value)

    plant, V = build_pendulum()
    candidates = []
    for builder in (build_sync_shaping, build_full_shaping):
        nl = builder()
        candidates.append((make_shaped_storage(V, nl.potential, plant.h, 4,
                                               h_jacobian=plant.h_jacobian),
                           ((-8.0, 8.0),) * 4, "pass"))
    sc_a = build_linear_example("a")
    plant_a = sc_a.build_plant()
    nl_a = sc_a.build_nonlinearity()
    candidates.append((make_shaped_storage(sc_a.build_storage(), nl_a.potential,
                                           plant_a.h, 2, h_jacobian=plant_a.h_jacobian),
                       ((-5.0, 5.0),) * 2, "pass"))
    from nishape import ScalarField
    candidates.append((ScalarField(2, lambda x: x[0] ** 2 - x[1] ** 2,
                                   lambda x: np.array([2 * x[0], -2 * x[1]])),
                       ((-5.0, 5.0),) * 2, "fail"))
    seed_stable = True
    for field, box, expected in candidates:
        verdicts = {check_positive_definite(field, box, n_samples=200, seed=s).verdict
                    for s in range(5)}
        seed_stable = seed_stable and verdicts == {expected}

    _criterion(11, "gradient consistency and seed-stable definiteness",
               gradient_ok and seed_stable,
               f"worst gradient deviation {worst:.2e}")
