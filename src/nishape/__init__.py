"""Numerical toolkit for negative imaginary (NI) systems: Lur'e closures
with gradient feedback, shaped storage functions, dissipation and
absolute-stability certification, the linear certificate pipeline, and
deterministic simulation of the built-in scenarios."""

from .sysmodel import (Check, LinearSystem, NonlinearSystem, ScalarField,
                       StaticNonlinearity, HamiltonianSystem, float_form, gradient_check,
                       make_closed_loop, make_shaped_storage, zero_field,
                       TAU_GRAD, TAU_PD, TAU_ZERO)
from .sim import (InputSignal, IntegratorConfig, Trajectory, monitor_decay,
                  simulate, square_wave_value, write_trajectory_csv)
from .certify import (RateTable, check_equilibrium_uniqueness,
                      check_gradient_nonvanishing, check_positive_definite,
                      dissipation_from_rates, epsilon_from_rates, halton_box_samples,
                      hamiltonian_decay_identity, hidden_motion_from_rates,
                      rate_table, report_line, write_reports_csv)
from .linear import (SsniCertificate, SlopeBounds, adaptive_simpson,
                     check_minimal, check_ssni, closed_loop_matrix, dc_gain,
                     dey_condition, dey_shaped_storage, is_hurwitz, load_certificate,
                     schur_equivalence, sym_eigenvalues, to_nonlinear)
from .scenarios import (PendulumParams, ShapingParams, Scenario, ScenarioResult,
                        build_full_shaping, build_linear_example,
                        build_pendulum, build_sync_shaping,
                        export_potential_surface, get_scenario, run_scenario,
                        scenario_config, scenario_names,
                        synchronization_statistic)

__version__ = "0.1.0"
