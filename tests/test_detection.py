"""The verifier's detection matrix: which check catches which wrong solution.

Each mutant replaces one piece of the closed form inside ``operadic_lax``
(the aux flow or K(C)) and runs ``verify_lax_representation`` on the
canonical oscillator (q0 = 0, p0 = 2, omega = 1), c drawn from seed 0 as
the CLI draws it, tol = 1e-7, at three horizons:

* long    - one period, 2 pi, in 1e4 steps;
* short   - t_end = 1e-4 in 100 steps;
* vacuous - t_end = 1e-300 in 2 steps: the samples all round to one phase.

Each run asserts the exact set of failing checks, and a fifth column:
whether ``step_defect`` of the mutant's closed form exceeds the rounding
bound that the true closed form keeps (``max_step_defect_ratio`` > 1).

Two blind spots stand as measured, and are not hidden:

* at the short horizon, (D+, D-) turning at 3.0003 omega / 2 passes all
  four checks (the RK4 gap, 2.8e-8, is under tol); ``step_defect`` sees it;
* at the vacuous horizon every aux mutant passes all four checks, and
  ``step_defect`` reads 0: the grid never turns the phase.

``hamiltonian_drift`` integrates (q, p) only, so no mutant of mu moves it.
"""

import math
from dataclasses import astuple

import numpy as np
import pytest

from operadlax import (
    AuxValues,
    OscState,
    SolutionParams,
    aux_exact_flow,
    operadic_lax,
    verify_lax_representation,
)
from reference_rhs import max_step_defect_ratio, misrotated_flow, verify_sample_major

S0 = OscState(0.0, 2.0, 1.0)
C = np.random.default_rng(0).uniform(-1.0, 1.0, 8)
TOL = 1e-7
HORIZONS = {"long": (2 * math.pi, 10**4), "short": (1e-4, 100), "vacuous": (1e-300, 2)}
K_MATRIX = operadic_lax._k_matrix


def frozen_flow(a0: AuxValues, omega: float, t) -> AuxValues:
    """The seed at every time: aux frozen in t."""
    return AuxValues(*(x + 0.0 * np.asarray(t) for x in astuple(a0)))


def k_sign_flipped(c):
    """K(C) with the sign of its entry K[1, 0] (C1) flipped."""
    k, scale = K_MATRIX(c)
    k[1, 0] = -k[1, 0]
    return k, scale


# name: (aux flow, the function that forms K(C))
MUTANTS = {
    "none": (aux_exact_flow, K_MATRIX),
    "d-rate-3.0003": (misrotated_flow(3.0003), K_MATRIX),
    "d-rate-1": (misrotated_flow(1.0), K_MATRIX),
    "aux-frozen": (frozen_flow, K_MATRIX),
    "k10-sign": (aux_exact_flow, k_sign_flipped),
}

GAP, LAX, NORM = "closed_form_vs_rk4", "lax_equation_residual", "mu_norm_drift"
# mutant: {horizon: (the checks that fail, whether step_defect exceeds its bound)}
MATRIX = {
    "none": {"long": (set(), False), "short": (set(), False), "vacuous": (set(), False)},
    "d-rate-3.0003": {"long": ({GAP}, True), "short": (set(), True), "vacuous": (set(), False)},
    "d-rate-1": {"long": ({GAP}, True), "short": ({GAP}, True), "vacuous": (set(), False)},
    "aux-frozen": {"long": ({GAP}, True), "short": ({GAP}, True), "vacuous": (set(), False)},
    "k10-sign": {"long": ({GAP, LAX, NORM}, True), "short": ({GAP, LAX, NORM}, True),
                 "vacuous": ({LAX}, False)},
}


def patch(monkeypatch, mutant: str):
    """Put the mutant's aux flow and K(C) in ``operadic_lax``."""
    flow, k_matrix = MUTANTS[mutant]
    monkeypatch.setattr(operadic_lax, "aux_exact_flow", flow)
    monkeypatch.setattr(operadic_lax, "_k_matrix", k_matrix)
    return flow


def run(monkeypatch, mutant: str, horizon: str):
    """The mutant's verify checks by name, and its step-defect ratio."""
    flow = patch(monkeypatch, mutant)
    t_end, steps = HORIZONS[horizon]
    report = verify_lax_representation(SolutionParams(C), S0, t_end, steps, TOL)
    return {c.name: c for c in report.checks}, max_step_defect_ratio(S0, C, t_end, steps, flow)


@pytest.mark.parametrize("horizon", HORIZONS)
@pytest.mark.parametrize("mutant", MATRIX)
def test_detection_matrix(monkeypatch, mutant, horizon):
    checks, ratio = run(monkeypatch, mutant, horizon)
    failing, defect_caught = MATRIX[mutant][horizon]
    assert {name for name, c in checks.items() if not c.passed} == failing
    assert (ratio > 1.0) == defect_caught


def test_short_horizon_rate_mutant_passes_by_a_margin(monkeypatch):
    # the blind spot is not a near miss at the tolerance: the mutant's gap,
    # 2.8e-8, is about 1e6 times the true closed form's, and under tol / 2
    true_gap = run(monkeypatch, "none", "short")[0][GAP].max_residual
    checks, ratio = run(monkeypatch, "d-rate-3.0003", "short")
    assert 1e5 * true_gap < checks[GAP].max_residual <= TOL / 2
    assert ratio >= 1e3


@pytest.mark.parametrize("horizon", HORIZONS)
@pytest.mark.parametrize("mutant", MATRIX)
def test_detection_reports_match_the_sample_major_verifier(monkeypatch, mutant, horizon):
    # the mutants reach both verifiers through the same two names
    patch(monkeypatch, mutant)
    args = SolutionParams(C), S0, *HORIZONS[horizon], TOL
    assert verify_lax_representation(*args).to_json() == verify_sample_major(*args).to_json()
