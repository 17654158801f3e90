"""The in-house numerics (Jacobi eigenvalues, the Lyapunov Hurwitz test, RK4
and adaptive Simpson) against scipy as an independent oracle.  scipy is a
test-only dependency: the package itself needs numpy alone."""

import math

import numpy as np
import pytest

scipy_linalg = pytest.importorskip("scipy.linalg")
scipy_integrate = pytest.importorskip("scipy.integrate")

from nishape import (InputSignal, IntegratorConfig, adaptive_simpson,  # noqa: E402
                     build_full_shaping, build_pendulum, is_hurwitz,
                     make_closed_loop, simulate, sym_eigenvalues)


def test_sym_eigenvalues_match_scipy_eigvalsh():
    rng = np.random.default_rng(101)
    for k in range(200):
        n = int(rng.integers(1, 9))
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigs = rng.normal(size=n) * 10.0 ** rng.uniform(-6.0, 6.0)
        if k % 4 == 0:  # repeated and zero eigenvalues
            eigs = rng.choice([0.0, 1.0, -2.0], size=n)
        S = Q @ np.diag(eigs) @ Q.T
        S = 0.5 * (S + S.T)
        mine = sym_eigenvalues(S)
        reference = scipy_linalg.eigvalsh(S)
        assert np.max(np.abs(mine - reference)) <= 1e-12 * max(np.linalg.norm(S), 1e-300), k


def test_is_hurwitz_agrees_with_scipy_lyapunov_solution():
    rng = np.random.default_rng(102)
    verdicts = set()
    for k in range(120):
        n = int(rng.integers(1, 6))
        A = rng.normal(size=(n, n)) - rng.uniform(-1.0, 3.0) * np.eye(n)
        lam = np.linalg.eigvals(A)
        spectral_abscissa = float(np.max(lam.real))
        if abs(spectral_abscissa) < 1e-2 or np.min(np.abs(lam[:, None] + lam[None, :])) < 1e-2:
            continue  # too close to marginal (or to a singular Lyapunov operator) to judge
        P = scipy_linalg.solve_continuous_lyapunov(A.T, -np.eye(n))  # A^T P + P A = -I
        p_min = float(scipy_linalg.eigvalsh(0.5 * (P + P.T))[0])
        report = is_hurwitz(A)
        assert report.verdict == ("pass" if spectral_abscissa < 0.0 else "fail"), k
        assert report.worst_value == pytest.approx(p_min, rel=1e-9, abs=1e-12), k
        verdicts.add(report.verdict)
    assert verdicts == {"pass", "fail"}


def test_rk4_endpoint_matches_scipy_dop853():
    plant, _ = build_pendulum()
    closed = make_closed_loop(plant, build_full_shaping())
    x0 = np.array([6.0, 4.5, 0.0, 0.0])
    t_end = 2.0
    traj = simulate(closed, x0, InputSignal.zero(2), IntegratorConfig(step=1e-3, t_end=t_end))
    u0 = np.zeros(2)
    reference = scipy_integrate.solve_ivp(lambda t, x: closed.f(x, u0), (0.0, t_end), x0,
                                          method="DOP853", rtol=1e-12, atol=1e-12)
    assert reference.success
    assert traj.times[-1] == t_end
    assert np.max(np.abs(traj.states[-1] - reference.y[:, -1])) <= 1e-9


@pytest.mark.parametrize("f, a, b", [
    (math.sin, 0.0, math.pi),
    (math.exp, -1.0, 2.0),
    (lambda s: 1.0 / (1.0 + s * s), -5.0, 5.0),
    (lambda s: s ** 3 - s, 3.0, -2.0),
    (lambda s: -15.0 * math.tanh(3.0 * s), 0.0, 4.0),
    (lambda s: math.sqrt(abs(s)), -1.0, 1.0),
])
def test_adaptive_simpson_matches_scipy_quad(f, a, b):
    reference, error = scipy_integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-13)
    assert error <= 1e-11
    assert adaptive_simpson(f, a, b) == pytest.approx(reference, rel=0.0, abs=1e-10)
