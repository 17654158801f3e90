"""Seeded SSNI certificate files for ``ni-shape certify-linear`` and an
independent numpy oracle for the verdicts the CLI should print.

A well-formed certificate satisfies the structure equations exactly by
construction: ``A = (S - P) Y^-1`` with ``S`` skew-symmetric and ``P > 0``
gives ``A Y + Y A^T = -2 P < 0``, and ``B = -A Y C^T``.  Slope bounds ``mu``
are drawn on either side of ``1 / lambda_max(C Y C^T)`` so that about half of
the slope-bound conditions fail.  A small fixed share of each pool is
degenerate: a singular ``A`` (documented outcome: exit 1) or ``mu`` of the
wrong length (documented outcome: exit 2).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

PAIRS = tuple((n, p) for n in range(2, 9) for p in range(1, n + 1))
N_SINGULAR = 2
N_BAD_MU = 2

# Tolerances from the documented certificate contract.
TAU_PD = 1e-9
TAU_ZERO = 1e-9
RANK_TOL = 1e-9
# A candidate is redrawn unless every verdict clears its threshold by this
# factor, so the expected verdict does not hinge on rounding.
CLEARANCE = 1e3


@dataclass(frozen=True)
class CertCase:
    label: str
    payload: dict
    kind: str                 # "pass", "fail", "singular-A" or "mu-length"
    expected_exit: int
    expected_checks: Optional[dict]   # check name -> "pass"/"fail"; None if degenerate

    @property
    def degenerate(self) -> bool:
        return self.expected_checks is None


def _random_spd(rng, n, lo, hi):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Y = Q @ np.diag(rng.uniform(lo, hi, n)) @ Q.T
    return 0.5 * (Y + Y.T)


def _krylov_ratio(M):
    s = np.linalg.svd(M, compute_uv=False)
    return float(s[-1] / s[0])


def oracle(payload: dict):
    """Expected ``(exit code, {check: verdict})`` from numpy's ``eigvalsh``,
    ``solve`` and SVD, independent of nishape's own linear algebra."""
    A = np.asarray(payload["A"], dtype=float)
    B = np.asarray(payload["B"], dtype=float)
    C = np.asarray(payload["C"], dtype=float)
    Y = np.asarray(payload["Y"], dtype=float)
    n, p = B.shape
    L = A @ Y + Y @ A.T
    ssni_ok = (np.linalg.eigvalsh(0.5 * (L + L.T))[-1] < -TAU_PD
               and np.max(np.abs(B + A @ Y @ C.T)) <= TAU_ZERO * (1.0 + np.max(np.abs(B))))
    ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
    obsv = np.vstack([C @ np.linalg.matrix_power(A, k) for k in range(n)])
    minimal_ok = _krylov_ratio(ctrb) > RANK_TOL and _krylov_ratio(obsv) > RANK_TOL
    checks = {"ssni-certificate": "pass" if ssni_ok else "fail",
              "minimal-realization": "pass" if minimal_ok else "fail"}
    if np.linalg.matrix_rank(A) < n:
        return 1, None                      # DC gain undefined: the check fails
    G0 = -C @ np.linalg.solve(A, B)
    G_cert = C @ Y @ C.T
    if np.max(np.abs(G0 - G_cert)) > 1e-9 * (1.0 + np.max(np.abs(G_cert))):
        return 1, None
    mu = payload.get("mu")
    if mu is not None:
        mu = np.asarray(mu, dtype=float)
        if mu.size != p:
            return 2, None                  # usage error
        dey = np.linalg.eigvalsh(np.diag(1.0 / mu) - 0.5 * (G0 + G0.T))[0]
        checks["slope-bound condition"] = "pass" if dey > TAU_PD else "fail"
        m1 = np.linalg.eigvalsh(np.diag(1.0 / mu) - G_cert)[0]
        m2 = np.linalg.eigvalsh(np.linalg.inv(Y) - C.T @ np.diag(mu) @ C)[0]
        checks["schur-complement agreement"] = "pass" if (m1 > 0) == (m2 > 0) else "fail"
    code = 0 if all(v == "pass" for v in checks.values()) else 1
    return code, checks


def _well_formed(rng, n, p, slopes_pass):
    """One certificate whose verdicts all clear their thresholds."""
    while True:
        Y = _random_spd(rng, n, 0.5, 2.0)
        S = rng.standard_normal((n, n))
        S = 0.5 * (S - S.T)
        P = _random_spd(rng, n, 0.5, 1.5)
        A = (S - P) @ np.linalg.inv(Y)
        C = rng.standard_normal((p, n))
        B = -A @ Y @ C.T
        G = C @ Y @ C.T
        lam = float(np.linalg.eigvalsh(G)[-1])
        factor = rng.uniform(0.5, 0.85) if slopes_pass else rng.uniform(1.2, 2.0)
        mu = factor / lam * rng.uniform(0.9, 1.1, p)
        ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
        obsv = np.vstack([C @ np.linalg.matrix_power(A, k) for k in range(n)])
        m2 = np.linalg.eigvalsh(np.linalg.inv(Y) - C.T @ np.diag(mu) @ C)[0]
        if (min(_krylov_ratio(ctrb), _krylov_ratio(obsv)) > CLEARANCE * RANK_TOL
                and abs(m2) > CLEARANCE * TAU_PD * np.max(np.abs(np.linalg.inv(Y)))):
            return {"A": A.tolist(), "B": B.tolist(), "C": C.tolist(),
                    "Y": Y.tolist(), "mu": mu.tolist()}


def certificate_pool(seed: int):
    """The seeded pool: one passing and one failing certificate per (n, p)
    pair with 2 <= n <= 8 and 1 <= p <= n, plus the degenerate share, in a
    seeded order."""
    rng = np.random.default_rng([seed, 0x5E7F])
    cases = []
    for n, p in PAIRS:
        for slopes_pass in (True, False):
            cases.append(("pass" if slopes_pass else "fail", _well_formed(rng, n, p, slopes_pass)))
    for i in range(N_SINGULAR + N_BAD_MU):
        n, p = PAIRS[int(rng.integers(len(PAIRS)))]
        payload = _well_formed(rng, n, p, True)
        if i < N_SINGULAR:
            A = np.array(payload["A"])
            A[-1, :] = 0.0
            A[:, -1] = 0.0
            payload["A"] = A.tolist()
            cases.append(("singular-A", payload))
        else:
            payload["mu"] = payload["mu"] + [payload["mu"][0]]
            cases.append(("mu-length", payload))
    order = rng.permutation(len(cases))
    pool = []
    for i, j in enumerate(order):
        kind, payload = cases[j]
        pool.append(CertCase(f"cert{i:03d}", payload, kind, *oracle(payload)))
    return pool


def write_pool(cases, directory) -> dict:
    """Write each case as ``<label>.json``; returns label -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for case in cases:
        path = os.path.join(directory, f"{case.label}.json")
        with open(path, "w") as fh:
            json.dump(case.payload, fh)
        paths[case.label] = path
    return paths
