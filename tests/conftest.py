import dataclasses
import math

import numpy as np
import pytest

from nishape import (HamiltonianSystem, NonlinearSystem, ScalarField, StaticNonlinearity,
                     build_linear_example, build_pendulum, get_scenario, halton_box_samples,
                     make_closed_loop, make_shaped_storage)


@pytest.fixture(scope="session")
def pendulum():
    """(plant, V) with the default parameters."""
    return build_pendulum()


@pytest.fixture(scope="session")
def linear_cases():
    return {"a": build_linear_example("a"), "b": build_linear_example("b")}


def make_rotation_hamiltonian(omega: float = 1.0, r: float = 1.0) -> HamiltonianSystem:
    """Planar rotation with quadratic energy, scalar output y = x1, and
    isotropic damping r (r = 0 gives the lossless case)."""
    J = np.array([[0.0, omega], [-omega, 0.0]])
    R = r * np.eye(2)
    H = ScalarField(2, lambda x: 0.5 * float(x @ x), lambda x: np.array(x, dtype=float))
    return HamiltonianSystem(2, 1, lambda x: J, lambda x: R, H,
                             lambda x: np.array([x[0]]),
                             grad_C_fn=lambda x: np.array([[1.0, 0.0]]))


def make_linear_gain_feedback(gain: float = -0.5) -> StaticNonlinearity:
    """Scalar feedback phi(y) = gain * y with potential gain * y^2 / 2."""
    F = ScalarField(1, lambda y: 0.5 * gain * float(y[0] ** 2),
                    lambda y: gain * np.asarray(y, dtype=float))
    return StaticNonlinearity(1, lambda y: gain * np.asarray(y, dtype=float), potential=F)


def g17_hard_values(rng) -> np.ndarray:
    """Doubles of both signs that test a 17-digit writer's exact path: uniform
    in every decade from 1e-8 to 1e18, 200 ulps either side of each 10**k for k
    in [-8, 18], the ties 1 + (2j + 1) 2**-17 of the 17th digit, 1e-6 (whose
    digits are 9.9999999999999995e-07), 1e16 - 2 and 1e17; then 5e-324, the
    zeros, the infinities and NaN, in random order."""
    decades = [rng.uniform(10.0 ** k, 10.0 ** (k + 1), 200) for k in range(-8, 18)]
    near = [(np.float64(10.0 ** k).view(np.int64) + np.arange(-200, 201)).view(np.float64)
            for k in range(-8, 19)]
    ties = 1.0 + (2 * np.arange(2000) + 1) * 2.0 ** -17
    finite = np.concatenate(decades + near + [ties, [1e-6, 1e16 - 2, 1e17, 5e-324, 0.0]])
    return rng.permutation(np.concatenate([finite, -finite, [np.inf, -np.inf, np.nan]]))


def with_storage(traj, field):
    """``traj`` with the storage channel ``field.values(traj.states)``, as
    ``run_scenario`` attaches it."""
    return dataclasses.replace(traj, storage=field.values(traj.states))


def sourceless(form):
    """The float form ``form`` without its source, so that a composition calls it."""
    return lambda *args: form(*args)


def fused_and_composed(name):
    """``[fused, composed]``: a pendulum scenario's (plant, V, closed loop, W) as the
    pipeline builds them, spliced from sources, and the same parts built from the
    same float forms with no source, which every composition and run calls."""
    sc = get_scenario(name)
    plant, V, nl = sc.build_plant(), sc.build_storage(), sc.build_nonlinearity()
    F = nl.potential
    twins = (NonlinearSystem.from_floats(plant.n_states, plant.n_io, sourceless(plant.f_floats),
                                         sourceless(plant.h_floats), h_jacobian=plant.h_jacobian),
             ScalarField.from_floats(V.dim, *map(sourceless, (V.value_floats, V.gradient_floats))),
             StaticNonlinearity.from_floats(nl.p, sourceless(nl.phi_floats), potential=(
                 ScalarField.from_floats(F.dim, *map(sourceless, (F.value_floats,
                                                                  F.gradient_floats))))))
    return [(p, v, make_closed_loop(p, n), make_shaped_storage(v, n.potential, p.h, p.n_states,
                                                               h_jacobian=p.h_jacobian))
            for p, v, n in ((plant, V, nl), twins)]


def probe_states(dim: int, seed: int) -> np.ndarray:
    """Halton states in (-8, 8)^dim, every sign pattern of a zero state, and Halton
    states with one entry set to inf, -inf, nan or +-1e308."""
    box = [(-8.0, 8.0)] * dim
    zeros = [[math.copysign(0.0, 1 - 2 * (k >> i & 1)) for i in range(dim)]
             for k in range(2 ** dim)]
    special = halton_box_samples(box, 80, seed + 1)
    rng = np.random.default_rng(seed)
    special[np.arange(80), rng.integers(0, dim, 80)] = rng.choice(
        [math.inf, -math.inf, math.nan, 1e308, -1e308], 80)
    return np.vstack([halton_box_samples(box, 200, seed), zeros, special])
