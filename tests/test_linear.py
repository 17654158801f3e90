import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from nishape import linear, sysmodel
from nishape import (InputSignal, IntegratorConfig, LinearSystem,
                     SlopeBounds, SsniCertificate, StaticNonlinearity,
                     adaptive_simpson, check_minimal, check_positive_definite,
                     check_ssni, closed_loop_matrix, dc_gain, dey_condition,
                     dey_shaped_storage, is_hurwitz, load_certificate,
                     make_closed_loop, schur_equivalence, simulate,
                     sym_eigenvalues, to_nonlinear)


def _example_system():
    return LinearSystem(np.diag([-1.0, -2.0]), np.diag([1.0, 2.0]), np.eye(2))


def _example_cert():
    sys = _example_system()
    return sys, SsniCertificate(sys, np.eye(2))


def _random_certified_instance(rng):
    """Random (A, B, C, Y) satisfying the certificate equations by
    construction: Y = Q D Q^T > 0, A = -P Y^-1 with P > 0, B = -A Y C^T."""
    n = int(rng.integers(2, 5))
    p = int(rng.integers(1, n + 1))
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    Y = q1 @ np.diag(rng.uniform(0.3, 3.0, size=n)) @ q1.T
    Y = 0.5 * (Y + Y.T)
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    P = q2 @ np.diag(rng.uniform(0.2, 2.0, size=n)) @ q2.T
    P = 0.5 * (P + P.T)
    A = -P @ np.linalg.inv(Y)
    C = rng.normal(size=(p, n))
    B = -A @ Y @ C.T
    sys = LinearSystem(A, B, C)
    return sys, SsniCertificate(sys, Y)


# ---------------------------------------------------------------------------
# Symmetric eigenvalues


def test_sym_eigenvalues_basic_cases():
    assert np.allclose(sym_eigenvalues(np.diag([2.0, -1.0])), [-1.0, 2.0])
    # characteristic polynomial of [[2,-1],[-1,2]] gives 1 and 3
    assert np.allclose(sym_eigenvalues([[2.0, -1.0], [-1.0, 2.0]]), [1.0, 3.0], atol=1e-12)
    A = np.diag([-1.0, -2.0])
    assert np.allclose(sym_eigenvalues(2.0 * A), [-4.0, -2.0])


def test_sym_eigenvalues_match_lapack_on_random_matrices():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        S = rng.normal(size=(n, n))
        S = S + S.T
        mine = sym_eigenvalues(S)
        reference = np.linalg.eigvalsh(S)
        assert np.max(np.abs(mine - reference)) <= 1e-10 * (1.0 + np.linalg.norm(S))


def test_sym_eigenvalues_rejects_asymmetric_input():
    with pytest.raises(ValueError, match="symmetric"):
        sym_eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    # non-finite entries, or a norm that overflows (Jacobi would stop at once)
    for bad in (math.nan, math.inf, 1e200):
        for S in (np.array([[bad]]), np.array([[bad, 0.0], [0.0, 1.0]])):
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
                sym_eigenvalues(S)


def test_sym_eigenvalues_names_a_norm_that_overflows_on_finite_entries():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is reported, not warned about
        with pytest.raises(ValueError, match="finite but too large"):
            sym_eigenvalues(np.diag([1e300, 1e300]))
        with pytest.raises(ValueError, match="must be finite and symmetric"):
            sym_eigenvalues(np.diag([math.inf, 1.0]))


def test_margins_scale_a_matrix_whose_norm_overflows_by_a_power_of_two():
    rng = np.random.default_rng(11)
    for n in range(1, 6):  # a finite norm: the eigensolver's own bits
        S = rng.normal(size=(n, n))
        S = S + S.T
        assert linear._min_eigenvalue(S) == sym_eigenvalues(S)[0]
    # scaled by 2^-k and back: exact here, and infinite where the eigenvalue overflows
    assert linear._min_eigenvalue(np.diag([3e300, -1e300])) == -1e300
    assert linear._min_eigenvalue(np.array([[1e300, 1e299], [1e299, 1e300]])) == pytest.approx(9e299)
    assert linear._min_eigenvalue(np.full((2, 2), -1.7e308)) == -math.inf
    with pytest.raises(ValueError, match="must be finite"):
        linear._min_eigenvalue(np.diag([math.inf, 1e300]))


def _numpy_rotation_jacobi(S):
    """Reference: the same Jacobi rotations on a numpy array, each updating
    columns p and q, then rows p and q, as whole-vector operations."""
    S = np.asarray(S, dtype=float)
    fro = float(np.linalg.norm(S))
    n = S.shape[0]
    if n == 1:
        return np.array([S[0, 0]])
    A = 0.5 * (S + S.T)
    for _ in range(60):
        if float(np.linalg.norm(A - np.diag(np.diag(A)))) <= 1e-12 * fro:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = A[:, p].copy()
                col_q = A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                row_p = A[p, :].copy()
                row_q = A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
                A[p, q] = A[q, p] = 0.0
    else:
        raise RuntimeError("Jacobi iteration did not converge")
    return np.sort(np.diag(A).copy())


# The (0, 1) rotation divides 2e150 by 2e-300: tau overflows to -inf, and
# t = -0.0 makes it a rotation by the identity.  The 1e140 entries keep the
# off-diagonal norm above the stop test's 1e-12 * 1e150.
TAU_OVERFLOW = np.array([[1e150, 1e-300, 0.0], [1e-300, -1e150, 1e140], [0.0, 1e140, 0.0]])


def _symmetric_test_matrices(seed, count, sizes):
    """``count`` seeded symmetric matrices, n cycling through ``sizes``, at scales
    1e-150..1e150: random, with a zeroed off-diagonal row and column, diagonal, or
    with repeated eigenvalues, in runs of ``len(sizes)``."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = sizes[i % len(sizes)]
        scale = 10.0 ** rng.uniform(-150.0, 150.0)
        kind = (i // len(sizes)) % 4
        if kind == 3:  # repeated eigenvalues: Q diag(d) Q^T with a repeated d
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            d = rng.choice([-1.0, 0.5, 2.0], size=n)
            S = q @ np.diag(d) @ q.T * scale
        else:
            S = rng.normal(size=(n, n)) * scale
            if kind == 1:  # a zeroed off-diagonal row and column
                k = int(rng.integers(n))
                S[k, :k] = S[k, k + 1:] = S[:k, k] = S[k + 1:, k] = 0.0
            elif kind == 2:  # a diagonal input
                S = np.diag(np.diag(S))
        yield 0.5 * (S + S.T)


def _jacobi_test_matrices():
    """2,000 seeded symmetric matrices, n = 1..8 at scales 1e-150..1e150, then
    the tau overflow."""
    yield from _symmetric_test_matrices(20261018, 2000, range(1, 9))
    yield TAU_OVERFLOW


def test_sym_eigenvalues_match_the_numpy_rotations_bitwise():
    with pytest.warns(RuntimeWarning, match="overflow"):  # numpy scalars warn on tau
        _numpy_rotation_jacobi(TAU_OVERFLOW)
    count = 0
    for S in _jacobi_test_matrices():
        with np.errstate(over="ignore"):
            expected = _numpy_rotation_jacobi(S)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the float path warns about nothing
            assert sym_eigenvalues(S).tobytes() == expected.tobytes(), S
        count += 1
    assert count > 2000


def test_sym_eigenvalues_match_the_numpy_rotations_bitwise_past_n_8():
    sizes = set()
    for S in [*_symmetric_test_matrices(20261019, 96, range(9, 17)),
              *_symmetric_test_matrices(20261020, 1, [40])]:
        expected = _numpy_rotation_jacobi(S)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sym_eigenvalues(S).tobytes() == expected.tobytes(), S
        sizes.add(S.shape[0])
    assert sizes == {*range(9, 17), 40}


def test_sym_eigenvalues_of_an_empty_matrix_is_an_empty_vector():
    empty = np.zeros((0, 0))
    assert sym_eigenvalues(empty).shape == np.linalg.eigvalsh(empty).shape == (0,)
    assert sym_eigenvalues([[-0.0]]).tobytes() == np.array([-0.0]).tobytes()


def test_jacobi_sweep_is_compiled_once_per_size_and_not_at_import(monkeypatch):
    compiled = []
    monkeypatch.setattr(linear, "compile", lambda *args: compiled.append(args[1]) or compile(*args),
                        raising=False)
    linear._jacobi_sweep.cache_clear()
    rng = np.random.default_rng(5)
    for n in (5, 6, 5, 6, 5):
        S = rng.normal(size=(n, n))
        sym_eigenvalues(S + S.T)
    assert compiled == ["<Jacobi sweep on 5 x 5>", "<Jacobi sweep on 6 x 6>"]
    # the CLI's import (the benchmark's setup time) generates no sweep
    src = os.path.dirname(os.path.dirname(linear.__file__))
    probe = "import nishape.cli, nishape.linear as l; print(l._jacobi_sweep.cache_info().currsize)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.strip() == "0"


# ---------------------------------------------------------------------------
# Certificate checks


def test_check_ssni_example_margins():
    _, cert = _example_cert()
    report = check_ssni(cert)
    assert report.verdict == "pass"
    # worst: the largest eigenvalue of AY + YA^T; witness: the structure residual
    assert abs(report.worst_value - (-2.0)) <= 1e-9
    assert len(report.witness) == 1 and report.witness[0] <= 1e-12


def test_check_ssni_identity_case():
    sys = LinearSystem(-np.eye(2), np.eye(2), np.eye(2))
    report = check_ssni(SsniCertificate(sys, np.eye(2)))
    assert report.verdict == "pass"


def test_check_ssni_fails_on_wrong_structure():
    sys = LinearSystem(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2))
    report = check_ssni(SsniCertificate(sys, np.eye(2)))
    assert report.verdict == "fail"
    assert report.witness[0] > 0.1


def test_certificate_rejects_bad_Y():
    sys = _example_system()
    with pytest.raises(ValueError, match="symmetric"):
        SsniCertificate(sys, np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        SsniCertificate(sys, np.diag([1.0, -1.0]))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            SsniCertificate(sys, np.array([[1.0, 0.0], [0.0, bad]]))
    # 0.5 * (Y + Y^T) overflows at 1e308: Y is finite, and the error says its norm is the trouble
    one = LinearSystem([[-1.0]], [[1.0]], [[1.0]])
    for huge in (1e308, 1e300):
        with pytest.raises(ValueError, match="finite but too large"):
            SsniCertificate(one, [[huge]])


def _counted_eigensolves(monkeypatch):
    calls = []
    monkeypatch.setattr(linear, "sym_eigenvalues", lambda S: calls.append(1) or sym_eigenvalues(S))
    return calls


def test_positive_definite_gate_decides_as_jacobi_does(monkeypatch):
    # Y's Cholesky gate against Jacobi's verdict sym_eigenvalues(Y)[0] > TAU_PD: lambda_min
    # at TAU_PD (1 + delta) under a spectrum at a power-of-two scale, and random definite and
    # indefinite Y, n = 1..12; the gate must decide or leave the verdict to Jacobi, not change it
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    from nishape.sysmodel import TAU_PD

    calls = _counted_eigensolves(monkeypatch)
    outcomes = set()

    @st.composite
    def spectra(draw):
        n, kind = draw(st.integers(1, 12)), draw(st.sampled_from(["boundary", "spd", "indefinite"]))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        scale = 2.0 ** draw(st.integers(-40, 40))
        if kind == "boundary":
            delta = draw(st.sampled_from([0.0, 1e-3, -1e-3, 1e-9, -1e-9, 1e-13, -1e-13]))
            d = [TAU_PD * (1.0 + delta), *(TAU_PD + scale * rng.uniform(0.0, 1.0, n - 1))]
        elif kind == "spd":
            d = scale * rng.uniform(0.01, 1.0, n)
        else:
            d = scale * rng.uniform(-1.0, 1.0, n)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        Y = q @ np.diag(d) @ q.T
        return 0.5 * (Y + Y.T)

    @settings(max_examples=600, deadline=None, database=None, derandomize=True)
    @given(spectra())
    def check(Y):
        n = Y.shape[0]
        expected = sym_eigenvalues(Y)[0] > TAU_PD
        before = len(calls)
        try:
            SsniCertificate(LinearSystem(-np.eye(n), np.ones((n, 1)), np.ones((1, n))), Y)
            accepted = True
        except ValueError as exc:
            assert str(exc) == "Y must be positive definite", Y
            accepted = False
        assert accepted == expected, Y
        outcomes.add((accepted, len(calls) - before))

    check()
    # accepted by the gate, accepted and rejected by Jacobi: all three were reached
    assert outcomes == {(True, 0), (True, 1), (False, 1)}


def test_a_clearly_definite_Y_takes_no_eigensolve(monkeypatch):
    calls = _counted_eigensolves(monkeypatch)
    q, _ = np.linalg.qr(np.random.default_rng(8).normal(size=(5, 5)))
    system = LinearSystem(-np.eye(5), np.ones((5, 1)), np.ones((1, 5)))
    for d, count in (([0.5, 1.0, 1.5, 2.0, 3.0], 0), ([2e-9, 1.0, 1.5, 2.0, 3.0], 1)):
        Y = q @ np.diag(d) @ q.T
        SsniCertificate(system, 0.5 * (Y + Y.T))  # both definite; the second near TAU_PD = 1e-9
        assert len(calls) == count, d
        calls.clear()


def test_symmetric_part_halves_first_only_where_the_sum_overflows():
    rng = np.random.default_rng(17)
    for _ in range(50):  # no overflow: numpy's 0.5 * (X + X^T), bit for bit
        X = rng.normal(size=(4, 4)) * 10.0 ** rng.integers(-300, 300)
        assert linear._symmetric_part(X).tobytes() == (0.5 * (X + X.T)).tobytes()
    X = np.array([[-1e308, 1e308], [1e308, 3.0]])
    assert linear._symmetric_part(X).tolist() == [[-1e308, 1e308], [1e308, 3.0]]
    assert linear._min_eigenvalue(X) == pytest.approx(-1e308 * ((1 + 5 ** 0.5) / 2), rel=1e-12)
    with np.errstate(invalid="ignore"):  # a non-finite X keeps its non-finite symmetric part
        S = linear._symmetric_part(np.array([[math.inf, -math.inf], [math.inf, 0.0]]))
    assert math.isnan(S[0, 1]) and S[0, 0] == math.inf


# ---------------------------------------------------------------------------
# DC gain


def test_dc_gain_example_is_identity():
    sys, cert = _example_cert()
    # A^-1 = diag(-1, -0.5), so -C A^-1 B = I
    assert np.allclose(dc_gain(sys), np.eye(2), atol=1e-14)
    assert np.allclose(dc_gain(sys, cert), np.eye(2), atol=1e-14)


def test_dc_gain_zero_input_matrix():
    sys = LinearSystem(np.diag([-1.0, -2.0]), np.zeros((2, 2)), np.eye(2))
    assert np.allclose(dc_gain(sys), np.zeros((2, 2)))


def test_dc_gain_cross_check_fails_loudly():
    sys = _example_system()
    corrupted = SsniCertificate(sys, np.diag([1.0, 2.0]))
    with pytest.raises(ArithmeticError, match="cross-check"):
        dc_gain(sys, corrupted)


def test_dc_gain_singular_A():
    sys = LinearSystem(np.diag([0.0, -1.0]), np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match="singular"):
        dc_gain(sys)


# ---------------------------------------------------------------------------
# Slope-bound condition and Schur equivalence


def test_dey_condition_example():
    sys, cert = _example_cert()
    passing = dey_condition(sys, cert, SlopeBounds([0.5, 0.5]))
    assert passing.verdict == "pass"
    assert passing.worst_value == pytest.approx(1.0, abs=1e-9)
    assert passing.witness == ()
    failing = dey_condition(sys, cert, SlopeBounds([2.0, 2.0]))
    assert failing.verdict == "fail"
    assert failing.worst_value == pytest.approx(-0.5, abs=1e-9)


def test_dey_condition_trivial_for_zero_gain():
    sys = LinearSystem(np.diag([-1.0, -2.0]), np.zeros((2, 2)), np.eye(2))
    report = dey_condition(sys, None, SlopeBounds([10.0, 10.0]))
    assert report.verdict == "pass"


def test_schur_equivalence_example_margins():
    _, cert = _example_cert()
    both = schur_equivalence(cert, SlopeBounds([0.5, 0.5]))
    # witness: the (primal, dual) margins; worst: the smaller of them
    primal, dual = both.witness
    assert both.verdict == "pass" and primal > 0.0 and dual > 0.0
    assert primal == pytest.approx(1.0, abs=1e-12)
    assert dual == pytest.approx(0.5, abs=1e-12)
    assert both.worst_value == dual
    neither = schur_equivalence(cert, SlopeBounds([2.0, 2.0]))
    primal, dual = neither.witness
    assert neither.verdict == "pass" and primal < 0.0 and dual < 0.0
    assert neither.worst_value == min(primal, dual)


def test_schur_equivalence_random_instances_always_agree():
    rng = np.random.default_rng(17)
    for _ in range(100):
        _, cert = _random_certified_instance(rng)
        m = SlopeBounds(rng.uniform(0.05, 5.0, size=cert.sys.p))
        assert schur_equivalence(cert, m).verdict == "pass"


def test_schur_equivalence_property_across_seeds():
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for _ in range(170):
            _, cert = _random_certified_instance(rng)
            m = SlopeBounds(rng.uniform(0.05, 5.0, size=cert.sys.p))
            assert schur_equivalence(cert, m).verdict == "pass"


def test_slope_bounds_validation():
    with pytest.raises(ValueError):
        SlopeBounds([1.0, 0.0])
    with pytest.raises(ValueError):
        SlopeBounds([-1.0])


# ---------------------------------------------------------------------------
# Quadrature-shaped storage


def test_adaptive_simpson_matches_closed_forms():
    assert adaptive_simpson(lambda s: s * s, 0.0, 2.0) == pytest.approx(8.0 / 3.0, abs=1e-10)
    assert adaptive_simpson(lambda s: math.sin(s), 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)
    assert adaptive_simpson(lambda s: s, 1.0, -1.0) == pytest.approx(0.0, abs=1e-12)
    assert adaptive_simpson(lambda s: s, 0.5, 0.5) == 0.0


def test_dey_shaped_storage_linear_max_slope():
    _, cert = _example_cert()
    mu = (0.5, 0.5)
    phi = StaticNonlinearity(2, channels=(lambda s: mu[0] * s, lambda s: mu[1] * s))
    W = dey_shaped_storage(cert, phi)
    # closed form: W = x^T (Y^-1 - C^T M C) x / 2 = 0.25 |x|^2
    rng = np.random.default_rng(21)
    for _ in range(20):
        x = rng.uniform(-3.0, 3.0, size=2)
        assert W.value(x) == pytest.approx(0.25 * float(x @ x), abs=1e-9)


def test_dey_shaped_storage_zero_feedback():
    _, cert = _example_cert()
    phi = StaticNonlinearity(2, channels=(lambda s: 0.0, lambda s: 0.0))
    W = dey_shaped_storage(cert, phi)
    rng = np.random.default_rng(22)
    for _ in range(10):
        x = rng.uniform(-3.0, 3.0, size=2)
        assert W.value(x) == pytest.approx(0.5 * float(x @ x), abs=1e-10)


def test_dey_shaped_storage_tanh_matches_log_cosh():
    _, cert = _example_cert()
    mu = (0.7, 1.3)
    phi = StaticNonlinearity(2, channels=(lambda s: mu[0] * math.tanh(s),
                                          lambda s: mu[1] * math.tanh(s)))
    W = dey_shaped_storage(cert, phi)
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = rng.uniform(-3.0, 3.0, size=2)
        F_exact = sum(m * math.log(math.cosh(v)) for m, v in zip(mu, x))
        assert W.value(x) == pytest.approx(0.5 * float(x @ x) - F_exact, abs=1e-9)


class _FloatFormOnly(StaticNonlinearity):
    """A feedback whose numpy method must not be called: a composition reads
    the float form it stores."""

    def phi(self, y):
        raise AssertionError("the numpy method of phi was adapted again")


def test_dey_shaped_storage_matches_the_hand_derived_formulas():
    # oracle: the numpy composition W = x^T Y^-1 x / 2 - sum_i int_0^{(Cx)_i} phi_i
    # (the channel integrals folded left to right) and its chain-rule gradient
    # Y^-1 x - C^T phi(Cx), written out by hand; the float operations agree
    rng = np.random.default_rng(31)
    for _ in range(4):
        sys, cert = _random_certified_instance(rng)
        channels = tuple((lambda s, g=g: g * math.tanh(s))
                         for g in rng.uniform(0.2, 2.0, size=sys.p))
        W = dey_shaped_storage(cert, _FloatFormOnly(sys.p, channels=channels))
        assert W.has_analytic_gradient
        C = sys.C
        Yinv = np.linalg.solve(cert.Y, np.eye(sys.n))
        Yinv = 0.5 * (Yinv + Yinv.T)
        xs = rng.uniform(-3.0, 3.0, size=(8, sys.n))
        for x, g in zip(xs, W.gradients(xs)):
            y = C @ x
            F = 0.0
            for c, s in zip(channels, y):
                F += adaptive_simpson(c, 0.0, float(s))
            assert W.value(x) == 0.5 * float(x @ Yinv @ x) - F
            want = Yinv @ x - C.T @ np.array([c(s) for c, s in zip(channels, y)])
            assert np.array_equal(W.gradient(x), want)
            assert np.array_equal(g, want)


def test_dey_shaped_storage_requires_diagonal():
    _, cert = _example_cert()
    coupled = StaticNonlinearity(2, lambda y: np.array([y[1], y[0]]) * 0.0)
    with pytest.raises(ValueError, match="diagonal"):
        dey_shaped_storage(cert, coupled)


def test_certified_slope_bounded_feedback_gives_definite_storage():
    # cross-module property: a passing certificate plus a passing slope-bound
    # condition must give a positive definite shaped storage on [-10, 10]^n
    rng = np.random.default_rng(29)
    for trial in range(50):
        sys, cert = _random_certified_instance(rng)
        assert check_ssni(cert).verdict == "pass"
        gain = dc_gain(sys, cert)
        lam_max = float(sym_eigenvalues(0.5 * (gain + gain.T))[-1])
        mu = np.full(sys.p, 1.0 / (max(lam_max, 0.0) + rng.uniform(0.2, 1.0)))
        m = SlopeBounds(mu)
        assert dey_condition(sys, cert, m).verdict == "pass"
        channels = tuple((lambda s, c=0.9 * mi: c * math.tanh(s)) for mi in mu)
        W = dey_shaped_storage(cert, StaticNonlinearity(sys.p, channels=channels))
        box = [(-10.0, 10.0)] * sys.n
        report = check_positive_definite(W, box, n_samples=128, seed=trial)
        assert report.verdict == "pass"


def test_dey_shaped_storage_adds_the_channel_integrals_left_to_right():
    # integrals 1e16, 1.0 and -1e16 at y = (1, 1, 1): a left fold gives 0.0
    # (1e16 + 1.0 rounds to 1e16), a compensated sum would give 1.0
    sys = LinearSystem(-np.eye(3), np.eye(3), np.eye(3))
    channels = tuple((lambda s, g=g: g * s) for g in (2e16, 2.0, -2e16))
    assert [adaptive_simpson(c, 0.0, 1.0) for c in channels] == [1e16, 1.0, -1e16]
    W = dey_shaped_storage(SsniCertificate(sys, np.eye(3)),
                           StaticNonlinearity(3, channels=channels))
    assert W.value(np.ones(3)) == 1.5 - 0.0  # |x|^2 / 2 - F(Cx), with F(Cx) == 0.0


# ---------------------------------------------------------------------------
# Closed-loop matrix and Hurwitz test


def test_closed_loop_matrix_example():
    sys = _example_system()
    A_cl = closed_loop_matrix(sys, np.diag([0.2, -0.5]))
    expected = np.diag([-1.0, -2.0]) + np.diag([0.2, -1.0])
    assert np.array_equal(A_cl, expected)
    assert np.allclose(A_cl, np.diag([-0.8, -3.0]), atol=1e-15)
    assert np.array_equal(closed_loop_matrix(sys, np.zeros((2, 2))), sys.A)
    assert np.allclose(closed_loop_matrix(sys, np.eye(2)), np.zeros((2, 2)))


def test_is_hurwitz_verdicts():
    assert is_hurwitz(np.diag([-0.8, -3.0])).verdict == "pass"
    assert is_hurwitz(np.diag([1.0, -1.0])).verdict == "fail"
    marginal = is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert marginal.verdict == "indeterminate"


def test_analytic_storage_rate_matches_quadratic_form(linear_cases):
    # along the coupled-feedback trajectory the analytic rate of the shaped
    # storage equals (x^T Y^-1 - u^T C)(AY + YA^T)(Y^-1 x - C^T u) / 2
    from nishape import make_shaped_storage
    sc = linear_cases["b"]
    plant = sc.build_plant()
    nl = sc.build_nonlinearity()
    V = sc.build_storage()
    W = make_shaped_storage(V, nl.potential, plant.h, 2, h_jacobian=plant.h_jacobian)
    closed = make_closed_loop(plant, nl)
    traj = simulate(closed, (1.0, -2.0), InputSignal.zero(2),
                    IntegratorConfig(step=1e-3, t_end=2.0))
    A, B, C = sc.certificate.sys.A, sc.certificate.sys.B, sc.certificate.sys.C
    Y = sc.certificate.Y
    Yinv = np.linalg.inv(Y)
    L = A @ Y + Y @ A.T
    for k in range(0, traj.n_samples, 50):
        x = traj.states[k]
        u = np.asarray(nl.phi(C @ x), dtype=float)
        lhs = float(W.gradient(x) @ (A @ x + B @ u))
        g = Yinv @ x - C.T @ u
        rhs = 0.5 * float(g @ L @ g)
        assert abs(lhs - rhs) <= 1e-9


# ---------------------------------------------------------------------------
# Minimality


def test_check_minimal_example_and_failures():
    sys = _example_system()
    report = check_minimal(sys)
    assert report.verdict == "pass"
    # witness: the (controllability, observability) ranks; worst: the smaller
    assert (report.worst_value, report.witness) == (2.0, (2.0, 2.0))

    no_input = LinearSystem(np.diag([-1.0, -2.0]), np.zeros((2, 2)), np.eye(2))
    report = check_minimal(no_input)
    assert report.verdict == "fail" and (report.worst_value, report.witness) == (0.0, (0.0, 2.0))

    no_output = LinearSystem(np.diag([-1.0, -2.0]), np.eye(2), np.zeros((2, 2)))
    report = check_minimal(no_output)
    assert report.verdict == "fail" and (report.worst_value, report.witness) == (0.0, (2.0, 0.0))


def _exact_rank(rows) -> int:
    """Rank of an integer matrix by Gaussian elimination on fractions."""
    M = [[Fraction(int(v)) for v in row] for row in rows]
    rank = 0
    for col in range(len(M[0])):
        pivot = next((r for r in range(rank, len(M)) if M[r][col] != 0), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        for r in range(rank + 1, len(M)):
            factor = M[r][col] / M[rank][col]
            M[r] = [a - factor * b for a, b in zip(M[r], M[rank])]
        rank += 1
    return rank


def _integer_system(rng):
    """Integer (A, B, C) with entries in [-3, 3] and n <= 4: dense, sparse, or
    a diagonal A whose B has a zero row and whose C has a zero column."""
    n = int(rng.integers(1, 5))
    p = int(rng.integers(1, n + 1))
    kind = int(rng.integers(3))
    draw = lambda *shape: rng.integers(-3, 4, size=shape)
    A, B, C = draw(n, n), draw(n, p), draw(p, n)
    if kind == 1:  # mostly zeros: Krylov ranks of every size
        A, B, C = (M * (rng.random(M.shape) < 0.3) for M in (A, B, C))
    elif kind == 2:
        A = np.diag(draw(n))
        B[rng.integers(n)] = 0
        C[:, rng.integers(n)] = 0
    return A, B, C


def test_check_minimal_ranks_match_exact_rational_ranks_at_every_scale():
    # The Krylov matrices here are the exact-rational oracle; check_minimal forms no
    # power of A.  Scaling A by 2^k scales the j-th Krylov block by 2^(jk), which leaves
    # the exact rank alone; the blocks of 2^(-400) A or 2^400 A differ in size by
    # up to 2^1200, far beyond a relative pivot threshold.
    rng = np.random.default_rng(20260)
    seen = set()
    for _ in range(300):
        A, B, C = _integer_system(rng)
        n = A.shape[0]
        ctrb = np.hstack([np.linalg.matrix_power(A, j) @ B for j in range(n)])
        obsv = np.vstack([C @ np.linalg.matrix_power(A, j) for j in range(n)])
        exact = (_exact_rank(ctrb), _exact_rank(obsv.T))
        seen.add(exact == (n, n))
        for k in (-400, -20, 0, 20, 400):
            report = check_minimal(LinearSystem(np.ldexp(A.astype(float), k), B, C))
            assert report.witness == exact, (A.tolist(), B.tolist(), C.tolist(), k)
    assert seen == {True, False}


def test_check_minimal_does_not_depend_on_the_time_unit_of_A():
    C, Y = np.ones((1, 3)), np.eye(3)
    for c in (2.0 ** -400, 1e-6, 1.0, 1e6, 2.0 ** 400):
        A = c * np.diag([-1.0, -2.0, -3.0])
        report = check_minimal(LinearSystem(A, -A @ Y @ C.T, C))
        assert report.witness == (3, 3), c
        assert report.verdict == "pass", c
    # near the largest double, A B overflows unless A itself is scaled first
    A = 1.7e308 * np.array([[1.0, 1.0], [0.0, 1.0]])
    report = check_minimal(LinearSystem(A, [[3.0], [3.0]], [[1.0, 0.0]]))
    assert report.witness == (2, 2)


def test_check_minimal_passes_distinct_diagonal_systems_past_eight_states():
    # A = -diag(1..n), B = (1..n)^T, C = 1^T: distinct eigenvalues and no zero entry in
    # B or C.  Krylov matrices square the conditioning here and read 11/11 at n = 12
    for n in (*range(9, 17), 20, 40):
        A = -np.diag(np.arange(1.0, n + 1))
        report = check_minimal(LinearSystem(A, np.arange(1.0, n + 1)[:, None], np.ones((1, n))))
        assert (report.verdict, report.witness) == ("pass", (n, n)), n


def test_check_minimal_reads_the_exact_dimensions_of_hidden_modes():
    # a repeated eigenvalue with one input and one output hides one mode from each
    ones = np.ones((4, 1))
    report = check_minimal(LinearSystem(-np.diag([1.0, 2.0, 2.0, 3.0]), ones, ones.T))
    assert (report.verdict, report.worst_value, report.witness) == ("fail", 3, (3, 3))
    # three states that no output sees, rotated out of the coordinate axes
    n = 10
    Q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(n, n)))
    C = np.hstack([np.ones((1, 7)), np.zeros((1, 3))])
    report = check_minimal(LinearSystem(Q @ -np.diag(np.arange(1.0, n + 1)) @ Q.T,
                                        Q @ np.arange(1.0, n + 1)[:, None], C @ Q.T))
    assert (report.verdict, report.worst_value, report.witness) == ("fail", 7, (10, 7))


def _pbh_minimal(A, B, C) -> bool:
    """The PBH test: at every eigenvalue lambda of A, [A - lambda I, B] and
    [A^T - lambda I, C^T] have their smallest singular value above 1e-9 of the largest."""
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        for M, N in ((A, B), (A.T, C.T)):
            s = np.linalg.svd(np.hstack([M - lam * np.eye(n), N]), compute_uv=False)
            if not s[-1] > 1e-9 * s[0]:
                return False
    return True


def test_check_minimal_agrees_with_the_pbh_test_on_rotated_systems():
    # Gaussian systems at n = 9..16, minimal or with k modes hidden in a block
    # triangle, then rotated by a random orthogonal similarity
    rng = np.random.default_rng(20261)
    for n in range(9, 17):
        for kind in ("minimal", "uncontrollable", "unobservable"):
            p, k = int(rng.integers(1, 4)), int(rng.integers(1, n - 1))
            A, B, C = rng.normal(size=(n, n)), rng.normal(size=(n, p)), rng.normal(size=(p, n))
            if kind == "uncontrollable":  # x2' = A22 x2: no input reaches the last k states
                A[n - k:, :n - k] = 0.0
                B[n - k:] = 0.0
            elif kind == "unobservable":  # the last k states reach neither x1 nor y
                A[:n - k, n - k:] = 0.0
                C[:, n - k:] = 0.0
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            A, B, C = Q @ A @ Q.T, Q @ B, C @ Q.T
            report = check_minimal(LinearSystem(A, B, C))
            expected = {"minimal": (n, n), "uncontrollable": (n - k, n),
                        "unobservable": (n, n - k)}[kind]
            assert report.witness == expected, (n, kind)
            assert (report.verdict == "pass") == _pbh_minimal(A, B, C) == (kind == "minimal")


# ---------------------------------------------------------------------------
# Certificate files and wrapping


def test_load_certificate_roundtrip(tmp_path):
    path = tmp_path / "cert.json"
    payload = {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0, 0.0], [0.0, 2.0]],
               "C": [[1.0, 0.0], [0.0, 1.0]], "Y": [[1.0, 0.0], [0.0, 1.0]],
               "mu": [0.5, 0.5]}
    path.write_text(json.dumps(payload))
    sys, cert, slopes = load_certificate(path)
    assert check_ssni(cert).verdict == "pass"
    assert slopes is not None and np.allclose(slopes.mu, [0.5, 0.5])

    path.write_text(json.dumps({k: v for k, v in payload.items() if k != "Y"}))
    with pytest.raises(ValueError, match="Y"):
        load_certificate(path)
    for top in ([1, 2], [payload], "A", 3, None):
        path.write_text(json.dumps(top))
        with pytest.raises(ValueError, match="must be a JSON object"):
            load_certificate(path)
    for field, bad in (("A", {"x": 1.0}), ("mu", [{}]), ("Y", [[10 ** 400, 0], [0, 1]])):
        path.write_text(json.dumps(payload | {field: bad}))
        with pytest.raises(ValueError, match="arrays of numbers"):
            load_certificate(path)


def test_to_nonlinear_wraps_dynamics():
    sys = _example_system()
    wrapped = to_nonlinear(sys)
    rng = np.random.default_rng(31)
    x = rng.normal(size=2)
    u = rng.normal(size=2)
    assert np.allclose(wrapped.f(x, u), sys.A @ x + sys.B @ u)
    assert np.allclose(wrapped.h(x), sys.C @ x)
    assert np.allclose(wrapped.output_jacobian(x), sys.C)
