"""Structure-constant evolution: RHS routes, closed form, reduction identity,
and the end-to-end verification pipeline."""

import math
import os
import random
import re
import subprocess
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

from operadlax import (
    COMPONENT_NAMES,
    AuxValues,
    IntegrationError,
    Operation,
    OscState,
    SolutionParams,
    StructureConstants2,
    aux_algebraic,
    aux_exact_flow,
    aux_generator,
    closed_form_mu,
    closed_form_path,
    energy,
    hamilton_generator,
    lax_generator,
    lax_rhs_index,
    m_matrix,
    operadic_lax,
    rk4_linear_path,
    sample_rows,
    step_defect,
    verify_lax_representation,
)
from exact_algebra import A2, R2, fraction_matmul, fraction_rank, k_columns
from reference_rhs import (
    aux_generator_reference,
    aux_rhs,
    closed_form_reference,
    g_values,
    lax_generator_reference,
    lax_rhs_bracket,
    lax_rhs_explicit,
    misrotated_flow,
    verify_sample_major,
)

CANONICAL = OscState(0.0, 2.0, 1.0)
EPS = np.finfo(float).eps


def named(values):
    return dict(zip(COMPONENT_NAMES, np.asarray(values).reshape(8)))


def params_unit(beta):
    c = np.zeros(8)
    c[beta] = 1.0
    return SolutionParams(c)


def test_component_order_is_row_major():
    assert COMPONENT_NAMES == (
        "mu111", "mu112", "mu121", "mu122", "mu211", "mu212", "mu221", "mu222",
    )
    sc = StructureConstants2(np.arange(8.0))
    op = sc.to_operation()
    assert op.coeffs[0, 0, 0] == 0.0  # mu111
    assert op.coeffs[0, 0, 1] == 1.0  # mu112
    assert op.coeffs[1, 0, 0] == 4.0  # mu211


def test_structure_constants_roundtrip_exact():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(8)
    back = StructureConstants2.from_operation(StructureConstants2(vals).to_operation())
    np.testing.assert_array_equal(back.values, vals)


def test_structure_constants_validation():
    with pytest.raises(ValueError, match="8"):
        StructureConstants2(np.zeros(7))
    with pytest.raises(ValueError, match="non-finite"):
        StructureConstants2([1, 2, 3, 4, 5, 6, 7, math.inf])
    with pytest.raises(ValueError, match="binary"):
        StructureConstants2.from_operation(Operation(2, 1, np.zeros(4)))


def test_m_matrix():
    np.testing.assert_array_equal(m_matrix(2.0).coeffs, [[0, -1], [1, 0]])
    np.testing.assert_array_equal(m_matrix(1.0).coeffs, [[0, -0.5], [0.5, 0]])
    m = m_matrix(0.73).coeffs
    np.testing.assert_array_equal(m + m.T, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        m_matrix(0.0)


def test_lax_rhs_bracket_structure_example():
    mu = StructureConstants2([1, 0, 0, 0, 0, 0, 0, 0])
    m = Operation(2, 1, [0, -1, 1, 0])
    got = named(lax_rhs_bracket(mu.to_operation(), m).coeffs)
    assert got == {**{k: 0.0 for k in COMPONENT_NAMES},
                   "mu211": 1.0, "mu112": 1.0, "mu121": 1.0}


def test_lax_rhs_bracket_zero_and_linear():
    m = m_matrix(1.3)
    zero = StructureConstants2(np.zeros(8)).to_operation()
    assert not lax_rhs_bracket(zero, m).coeffs.any()
    rng = np.random.default_rng(1)
    mu = rng.standard_normal(8)
    one = lax_rhs_bracket(StructureConstants2(mu).to_operation(), m).coeffs
    three = lax_rhs_bracket(StructureConstants2(3 * mu).to_operation(), m).coeffs
    np.testing.assert_allclose(three, 3 * one, atol=1e-15)


def test_lax_rhs_index_matches_hand_expansion():
    mu = np.zeros((2, 2, 2))
    mu[0, 0, 0] = 1.0
    m = np.array([[0.0, -1.0], [1.0, 0.0]])
    got = named(lax_rhs_index(mu, m))
    assert got == {**{k: 0.0 for k in COMPONENT_NAMES},
                   "mu211": 1.0, "mu112": 1.0, "mu121": 1.0}
    assert not lax_rhs_index(np.zeros((2, 2, 2)), m).any()
    assert not lax_rhs_index(mu, np.zeros((2, 2))).any()


@pytest.mark.parametrize("m", [1.0, np.zeros(2), np.zeros((2, 3)), np.zeros((3, 3))])
def test_lax_rhs_index_refuses_a_misshaped_m(m):
    with pytest.raises(ValueError, match=r"^shape mismatch: mu \(2, 2, 2\), m "):
        lax_rhs_index(np.zeros((2, 2, 2)), m)


def test_lax_rhs_index_dim3():
    # the index route works beyond dim 2; cross-check against the bracket
    rng = np.random.default_rng(2)
    mu = rng.standard_normal((3, 3, 3))
    m = rng.standard_normal((3, 3))
    got = lax_rhs_index(mu, m)
    want = lax_rhs_bracket(
        Operation(3, 2, mu), Operation(3, 1, m)
    ).coeffs
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_lax_rhs_index_basis_matrix_matches_batched():
    # verify_lax_representation applies the index formula to the eight basis
    # tensors once and then the resulting 8x8 matrix to every sample
    rng = np.random.default_rng(20)
    mu = rng.standard_normal((400, 8)) * 10.0 ** rng.uniform(-3, 3, (400, 1))
    for omega in (0.1, 1.0, 30.0):
        m = m_matrix(omega).coeffs
        ad_m = lax_rhs_index(np.eye(8).reshape(8, 2, 2, 2), m).reshape(8, 8)
        batched = lax_rhs_index(mu.reshape(-1, 2, 2, 2), m).reshape(-1, 8)
        scale = omega * np.abs(mu).max(axis=1)
        assert (np.abs(mu @ ad_m - batched).max(axis=1) <= 1e-14 * scale).all()


def test_generators_keep_the_reference_bits():
    # omega/2 times a constant pattern: the same bytes, signed zeros and
    # memory layout included, as building each generator from M = m_matrix
    omegas = 10.0 ** np.random.default_rng(21).uniform(-300, 300, 2000)
    for omega in [*omegas.tolist(), 1.0, 2.0, 0.1, 30.0]:
        for got, want in ((lax_generator(omega), lax_generator_reference(omega)),
                          (aux_generator(omega), aux_generator_reference(omega))):
            assert got.tobytes() == want.tobytes()
            assert got.strides == want.strides


@pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("generator", [lax_generator, aux_generator])
def test_generators_refuse_bad_omega(generator, omega):
    with pytest.raises(ValueError, match="omega"):
        generator(omega)


def test_lax_rhs_explicit_example():
    mu = StructureConstants2([1, 0, 0, 0, 0, 0, 0, 0])
    got = named(lax_rhs_explicit(mu, 2.0).values)
    assert got["mu111"] == 0.0 and got["mu211"] == 1.0
    assert got["mu112"] == 1.0 and got["mu121"] == 1.0
    assert all(got[k] == 0.0 for k in ("mu122", "mu212", "mu221", "mu222"))


def test_lax_rhs_explicit_zero_and_linearity():
    zero = StructureConstants2(np.zeros(8))
    assert not lax_rhs_explicit(zero, 1.0).values.any()
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal(2)
    x, y = rng.standard_normal((2, 8))
    lhs = lax_rhs_explicit(StructureConstants2(a * x + b * y), 1.7).values
    rhs = a * lax_rhs_explicit(StructureConstants2(x), 1.7).values \
        + b * lax_rhs_explicit(StructureConstants2(y), 1.7).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_three_rhs_routes_agree():
    rng = np.random.default_rng(4)
    for _ in range(100):
        mu = rng.uniform(-1, 1, 8)
        for omega in (0.5, 1.0, 2.0):
            r_explicit = lax_rhs_explicit(StructureConstants2(mu), omega).values
            r_index = lax_rhs_index(mu.reshape(2, 2, 2), m_matrix(omega).coeffs).reshape(8)
            r_bracket = lax_rhs_bracket(
                StructureConstants2(mu).to_operation(), m_matrix(omega)
            ).coeffs.reshape(8)
            np.testing.assert_allclose(r_explicit, r_index, atol=1e-14)
            np.testing.assert_allclose(r_explicit, r_bracket, atol=1e-14)


def test_closed_form_zero_params():
    assert not closed_form_mu(AuxValues(1, 2, 3, 4), SolutionParams(np.zeros(8))).values.any()


def test_closed_form_first_parameter():
    got = named(closed_form_mu(AuxValues(2, 0, 4, 0), params_unit(0)).values)
    assert got == {**{k: 0.0 for k in COMPONENT_NAMES}, "mu112": 2.0, "mu121": -2.0}


def test_closed_form_last_parameter():
    got = named(closed_form_mu(AuxValues(2, 0, 4, 0), params_unit(7)).values)
    want = {"mu111": 4.0, "mu112": 0.0, "mu121": 0.0, "mu122": -4.0,
            "mu211": 0.0, "mu212": -4.0, "mu221": -4.0, "mu222": 0.0}
    assert got == want


def test_closed_form_mu_of_rates_same_linear_map():
    rng = np.random.default_rng(5)
    zero_rates = AuxValues(0, 0, 0, 0)
    assert not closed_form_mu(zero_rates, SolutionParams(rng.uniform(-1, 1, 8))).values.any()


def test_closed_form_mu_of_rates_fifth_parameter_column():
    got = named(closed_form_mu(AuxValues(0, 1, 0, 0), params_unit(4)).values)
    assert got == {**{k: 0.0 for k in COMPONENT_NAMES}, "mu111": 1.0, "mu212": 1.0}


def test_closed_form_linear_in_params_and_aux():
    rng = np.random.default_rng(6)
    aux = AuxValues(*rng.uniform(-2, 2, 4))
    c1, c2 = rng.uniform(-1, 1, (2, 8))
    summed = closed_form_mu(aux, SolutionParams(c1 + c2)).values
    np.testing.assert_allclose(
        summed,
        closed_form_mu(aux, SolutionParams(c1)).values
        + closed_form_mu(aux, SolutionParams(c2)).values,
        atol=1e-14,
    )


def closed_form_bound(aux, c):
    """A few eps times sum|C| * sum|a| per sample: each component is a sum of
    at most eight of the products C_i a_j, rounded in either order."""
    a = np.abs(np.array([aux.a_plus, aux.a_minus, aux.d_plus, aux.d_minus])).sum(axis=0)
    products = a[..., None] * np.abs(c)  # summed as products: finite at |C| = 1e308
    return 4.0 * np.finfo(float).eps * products.sum(axis=-1, keepdims=True)


def test_closed_form_matches_reference_across_scales():
    rng = np.random.default_rng(30)
    ts = np.linspace(0.0, 40.0, 401)
    for _ in range(200):
        c = rng.uniform(-1, 1, 8) * 10.0 ** rng.uniform(-150, 150)
        a0 = AuxValues(*(rng.uniform(-1, 1, 4) * 10.0 ** rng.uniform(-150, 150)))
        got = closed_form_mu(a0, SolutionParams(c)).values
        assert np.all(np.abs(got - closed_form_reference(a0, c)) <= closed_form_bound(a0, c))
        omega = float(10.0 ** rng.uniform(-1, 1))
        aux = aux_exact_flow(a0, omega, ts)
        path = closed_form_path(aux, c)
        assert path.shape == (len(ts), 8)
        assert np.all(np.abs(path - closed_form_reference(aux, c)) <= closed_form_bound(aux, c))


@pytest.mark.parametrize("c, message", [
    ([1.0] * 7, "solution parameters needs 8 entries, got 7"),
    ([math.nan] * 8, "non-finite entry in solution parameters"),
], ids=["seven-entries", "nan-entries"])
def test_closed_form_path_checks_its_input(c, message):
    aux = aux_exact_flow(aux_algebraic(CANONICAL), 1.0, np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValueError, match=message):
        closed_form_path(aux, c)


def test_closed_form_exact_on_small_integers():
    rng = np.random.default_rng(31)
    for _ in range(200):
        c = rng.integers(-64, 65, 8).astype(float)
        a0 = AuxValues(*rng.integers(-64, 65, 4).astype(float))
        want = closed_form_reference(a0, c)
        np.testing.assert_array_equal(closed_form_mu(a0, SolutionParams(c)).values, want)
        aux = AuxValues(*rng.integers(-64, 65, (4, 30)).astype(float))
        np.testing.assert_array_equal(
            closed_form_path(aux, c), closed_form_reference(aux, c)
        )
        flow = aux_exact_flow(a0, 1.0, np.zeros(1))
        np.testing.assert_array_equal(closed_form_path(flow, c), want[None])


def test_closed_form_keeps_subnormal_parameters():
    # a lone subnormal C times a large aux is one rounded product either way
    for tiny in (5e-324, -3e-320, 2.0**-1022):
        for beta in range(8):
            c = np.zeros(8)
            c[beta] = tiny
            a0 = AuxValues(1e300, -3e299, 2e250, 7e299)
            got = closed_form_mu(a0, SolutionParams(c)).values
            np.testing.assert_array_equal(got, closed_form_reference(a0, c))
            assert np.count_nonzero(got) >= 2


def test_closed_form_finite_where_the_sums_are():
    # each product C_i a_j is about 1e305, but K(C)'s sums of three C's
    # would overflow if K were formed at full scale
    c = np.full(8, 1e308)
    za = 1e-3 * (0.8 - 0.6j)
    zd = za**3 / 2
    a0 = AuxValues(za.real, za.imag, zd.real, zd.imag)
    ts = np.linspace(0.0, 20.0, 201)
    aux = aux_exact_flow(a0, 1.3, ts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = closed_form_mu(a0, SolutionParams(c)).values
        path = closed_form_path(aux, c)
    for value, a in ((got, a0), (path, aux)):
        want = closed_form_reference(a, c)
        assert np.isfinite(want).all() and np.isfinite(value).all()
        assert np.all(np.abs(value - want) <= closed_form_bound(a, c))


def test_g_values_on_flow_vanish():
    a0 = aux_algebraic(CANONICAL)
    for t in np.linspace(0, 10, 17):
        at = aux_exact_flow(a0, 1.0, float(t))
        g = g_values(at, aux_rhs(at, 1.0), 1.0)
        assert max(abs(g.a_plus), abs(g.a_minus), abs(g.d_plus), abs(g.d_minus)) < 1e-14


def test_reduced_residuals_zero_inputs():
    rng = np.random.default_rng(7)
    zero_g = AuxValues(0, 0, 0, 0)
    assert not closed_form_mu(zero_g, SolutionParams(rng.uniform(-1, 1, 8))).values.any()
    some_g = AuxValues(*rng.uniform(-1, 1, 4))
    assert not closed_form_mu(some_g, SolutionParams(np.zeros(8))).values.any()


def lax_ode_residual(aux, aux_dot, params, omega):
    """Direct residual of the eight evolution equations for the closed form."""
    return (
        closed_form_mu(aux_dot, params).values
        - lax_rhs_explicit(closed_form_mu(aux, params), omega).values
    )


def test_reduction_identity_off_shell():
    # identity between the direct ODE residual and the G-contraction,
    # for arbitrary (aux, aux_dot) pairs that lie on no trajectory
    rng = np.random.default_rng(8)
    for _ in range(100):
        aux = AuxValues(*rng.uniform(-2, 2, 4))
        aux_dot = AuxValues(*rng.uniform(-2, 2, 4))
        params = SolutionParams(rng.uniform(-1, 1, 8))
        omega = float(rng.uniform(0.3, 2.5))
        direct = lax_ode_residual(aux, aux_dot, params, omega)
        predicted = closed_form_mu(g_values(aux, aux_dot, omega), params).values
        np.testing.assert_allclose(direct, predicted, atol=1e-12)


def test_reduction_pattern_derived_per_parameter():
    # derive the alpha <-> component correspondence programmatically: the
    # residual is linear in the parameters, so probing with unit vectors
    # recovers each parameter's G-coefficients; they must match the family
    # evaluated at the G's.
    rng = np.random.default_rng(9)
    aux = AuxValues(*rng.uniform(-2, 2, 4))
    aux_dot = AuxValues(*rng.uniform(-2, 2, 4))
    omega = 1.3
    g = g_values(aux, aux_dot, omega)
    for beta in range(8):
        direct = lax_ode_residual(aux, aux_dot, params_unit(beta), omega)
        predicted = closed_form_mu(g, params_unit(beta)).values
        np.testing.assert_allclose(direct, predicted, atol=1e-13)


def test_on_shell_residual_vanishes():
    rng = np.random.default_rng(10)
    for s0 in (CANONICAL, OscState(1.3, -0.4, 0.7)):
        a0 = aux_algebraic(s0)
        params = SolutionParams(rng.uniform(-1, 1, 8))
        for t in np.linspace(0, 4 * math.pi, 23):
            at = aux_exact_flow(a0, s0.omega, float(t))
            resid = lax_ode_residual(at, aux_rhs(at, s0.omega), params, s0.omega)
            assert np.abs(resid).max() <= 1e-10


def test_closed_form_intertwines_lax_and_rotation_generators_exactly():
    # A(2) K(C) = K(C) R(2) in exact arithmetic: with a' = R a, the family
    # mu = K(C) a then obeys mu' = K(C) R a = A mu, which is what
    # verify's lax_equation_residual compares in floating point
    rng = np.random.default_rng(16)
    cs = [np.eye(8)[i] for i in range(8)] + [rng.integers(-9, 10, 8) for _ in range(20)]
    for c in cs:
        k = k_columns(c)
        assert fraction_matmul(A2, k) == fraction_matmul(k, R2)


def test_intertwiner_null_space_is_the_family():
    # X -> A X - X R on 8x4 matrices has an 8-dimensional null space, and
    # the eight K(e_i) span it: every solution of the form K a is a member
    # of the family
    images = []
    for e in np.eye(32):
        x = [[Fraction(v) for v in row] for row in e.reshape(8, 4)]
        ax, xr = fraction_matmul(A2, x), fraction_matmul(x, R2)
        images.append([p - q for row_p, row_q in zip(ax, xr) for p, q in zip(row_p, row_q)])
    assert 32 - fraction_rank(images) == 8
    family = [[v for row in k_columns(np.eye(8)[i]) for v in row] for i in range(8)]
    assert fraction_rank(family) == 8


def test_verify_lax_check_cannot_see_a_wrong_rotation_law(monkeypatch):
    """A closed form along a wrong aux flow: (D+, D-) at 1.0001 * 3 omega / 2.

    closed_form_vs_rk4 catches it, since RK4 integrates the Lax equation
    itself from the t = 0 value.  lax_equation_residual compares K(C) R a
    with A K(C) a on the same samples, so it checks A K(C) = K(C) R, not
    the time dependence of a, and stays at rounding.
    """
    monkeypatch.setattr(operadic_lax, "aux_exact_flow", misrotated_flow(1.0001 * 3.0))
    params = SolutionParams(np.random.default_rng(17).uniform(-1, 1, 8))
    rep = verify_lax_representation(params, CANONICAL, 2 * math.pi, 10**4, 1e-7)
    checks = {c.name: c for c in rep.checks}
    # the true flow's gap on this grid is 2.0e-12; the wrong one's, 9.4e-4
    assert not checks["closed_form_vs_rk4"].passed
    assert checks["closed_form_vs_rk4"].max_residual > 1e-4
    assert checks["lax_equation_residual"].max_residual <= 1e-14


@pytest.mark.parametrize("s0, periods", [
    (OscState(0.3, 0.7, 20.0), 5),  # a finite-difference step of 1e-4 gave 6.2e-4
    (OscState(0.0, 2000.0, 1.0), 1),  # |mu| about 1e5; a step of 1e-4 gave 4.7e-4
], ids=["omega-20", "p0-2000"])
def test_verify_lax_residual_needs_no_step(s0, periods):
    # the exact derivative leaves only rounding at high frequency and at
    # large amplitude; only the Lax check's verdict is asserted here
    params = SolutionParams(np.random.default_rng(18).uniform(-1, 1, 8))
    t_end = periods * 2 * math.pi / s0.omega
    rep = verify_lax_representation(params, s0, t_end, 10**4, 1e-7)
    lax = {c.name: c for c in rep.checks}["lax_equation_residual"]
    assert lax.max_residual <= 1e-7 and lax.passed


@pytest.mark.parametrize("mu", [np.ones((5, 4)), np.ones((5, 8, 1)), np.ones(8), [1.0, 2.0, 3.0]])
def test_step_defect_needs_rows_of_eight(mu):
    with pytest.raises(ValueError, match=r"needs mu shaped \(samples, 8\), got \("):
        step_defect(mu, 1.3, 0.1)


def test_step_defect_takes_a_list_of_rows():
    mu = np.random.default_rng(8).standard_normal((5, 8))
    assert step_defect(mu.tolist(), 1.3, 0.1).tobytes() == step_defect(mu, 1.3, 0.1).tobytes()


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
def test_step_defect_needs_a_finite_step(h):
    # refused before any arithmetic: no RuntimeWarning and no NaN rows
    with pytest.raises(ValueError, match="h must be finite"):
        step_defect(np.ones((5, 8)), 1.3, h)


@pytest.mark.parametrize("omega", [0.0, -1.0])
def test_step_defect_needs_a_positive_omega(omega):
    with pytest.raises(ValueError, match="omega must be positive and finite"):
        step_defect(np.ones((5, 8)), omega, 0.1)


def test_step_defect_scales_past_overflowing_squares():
    # 2**600 scales every entry exactly; the squares in the norm (past 2**1200)
    # overflow, so the rows are recomputed from their scaled entries
    mu = np.random.default_rng(9).standard_normal((50, 8))
    want = 2.0**600 * step_defect(mu, 1.3, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = step_defect(2.0**600 * mu, 1.3, 0.01)
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_propagator_is_the_exponential_of_the_lax_generator():
    linalg = pytest.importorskip("scipy.linalg")
    for omega, h in [(1.0, 0.01), (1.3, 0.1), (20.0, 0.05), (0.7, 2.0), (3.0, -0.4)]:
        want = linalg.expm(h * lax_generator(omega))
        assert np.abs(operadic_lax._propagator(omega, h) - want).max() <= 8 * EPS


def test_propagator_is_a_one_parameter_group_of_rotations():
    propagator = operadic_lax._propagator
    np.testing.assert_array_equal(propagator(1.3, 0.0), np.eye(8))
    rng = np.random.default_rng(27)
    for _ in range(50):
        omega, (h1, h2) = 10 ** rng.uniform(-1, 1), rng.uniform(-3, 3, 2)
        e1, e2 = propagator(omega, h1), propagator(omega, h2)
        # the phases omega h / 2 are rounded apart and together
        bound = 8 * EPS * (1.0 + omega * (abs(h1) + abs(h2)))
        assert np.abs(e1 @ e2 - propagator(omega, h1 + h2)).max() <= bound
        assert np.abs(e1 @ e1.T - np.eye(8)).max() <= 8 * EPS


def test_propagator_powers_follow_the_closed_form():
    # E(h)^n mu0 is mu at t = n h: the propagator carries the family's flow
    s0, h, n = OscState(0.4, -1.1, 1.3), 0.01, 1000
    c = np.random.default_rng(28).uniform(-1, 1, 8)
    mu = closed_form_path(aux_exact_flow(aux_algebraic(s0), s0.omega, h * np.arange(n + 1)), c)
    e = operadic_lax._propagator(s0.omega, h)
    rows = [mu[0]]
    for _ in range(n):
        rows.append(e @ rows[-1])
    assert np.abs(np.array(rows) - mu).max() <= 8 * EPS * n * np.abs(mu).max()


def test_verify_zero_params_mu_checks_exact():
    rep = verify_lax_representation(
        SolutionParams(np.zeros(8)), CANONICAL, 2 * math.pi, 10 ** 3, 1e-10
    )
    by_name = {c.name: c for c in rep.checks}
    assert by_name["closed_form_vs_rk4"].max_residual == 0.0
    assert by_name["lax_equation_residual"].max_residual == 0.0
    assert by_name["mu_norm_drift"].max_residual == 0.0
    assert rep.all_passed()


def verify_reference(params, s0, t_end, steps):
    """The four max residuals of ``verify_lax_representation`` from fresh
    (d, N) component rows, every one scanned for non-finite states by
    ``rk4_linear_path`` or left unscanned (finite inputs only)."""
    omega = s0.omega
    ts = np.linspace(0.0, t_end, steps + 1)
    rows = operadic_lax._aux_rows(aux_exact_flow(aux_algebraic(s0), omega, ts))
    k, scale = operadic_lax._k_matrix(params.values)
    mu_cf = operadic_lax._times_k(k, scale, rows)
    _, mu_rk4 = rk4_linear_path(lax_generator(omega), mu_cf[:, 0], t_end, steps)
    dmu = (operadic_lax._times_k(k @ aux_generator(omega), scale, rows)
           - lax_generator(omega) @ mu_cf)
    norms = operadic_lax._sample_norms(mu_cf)
    _, qp = rk4_linear_path(hamilton_generator(omega), [s0.q, s0.p], t_end, steps)
    energies = energy(qp[:, 0], qp[:, 1], omega)
    return [np.max(np.abs(mu_rk4.T - mu_cf)), np.max(operadic_lax._sample_norms(dmu)),
            np.max(np.abs(norms - norms[0])), np.max(np.abs(energies - energies[0]))]


def oscillator_args(rng, steps):
    """Arguments of ``verify_lax_representation``: a random oscillator and
    C, over 1 to 10 whole periods."""
    omega = 10 ** rng.uniform(-1, 1.5)
    amplitude, phase = 10 ** rng.uniform(-2, 2), rng.uniform(0, 2 * math.pi)
    s0 = OscState(amplitude * math.sin(phase) / omega, amplitude * math.cos(phase), omega)
    params = SolutionParams(rng.uniform(-1, 1, 8))
    t_end = int(rng.integers(1, 11)) * 2 * math.pi / omega
    return params, s0, t_end, steps, 1e-7


@pytest.mark.parametrize("steps", [2, 3, 1000, 4642])
def test_verify_keeps_the_fresh_array_bits(steps):
    # the checks share buffers and scan only on failure: the same bits
    rng = np.random.default_rng(steps)
    for _ in range(4):
        args = oscillator_args(rng, steps)
        got = [c.max_residual for c in verify_lax_representation(*args).checks]
        want = verify_reference(*args[:4])
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_verify_reports_an_overflowing_energy_drift():
    # at omega h = 250 the RK4 run of (q, p) grows about 1e8-fold a step:
    # finite over 20 steps, but its energies overflow, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_lax_representation(
            SolutionParams(np.zeros(8)), OscState(0.0, 2.0, 1000.0), 5.0, 20, 1e-7
        )
    drift = {c.name: c for c in rep.checks}["hamiltonian_drift"]
    assert drift.max_residual == math.inf and not drift.passed


def test_verify_reads_numpy_int_fields_as_their_python_ints():
    # omega^2 = 1.6e19 overflows int64: the np.int64 state must not run on
    # a wrapped generator
    args = SolutionParams([0.1] * 8), 1e-9, 50, 1e-7
    got = verify_lax_representation(args[0], OscState(np.int64(1), np.int64(2),
                                                      np.int64(4 * 10**9)), *args[1:], seed=1)
    want = verify_lax_representation(args[0], OscState(1, 2, 4 * 10**9), *args[1:], seed=1)
    assert got.to_json() == want.to_json()


def test_verify_single_parameter_canonical():
    rep = verify_lax_representation(
        params_unit(0), CANONICAL, 2 * math.pi, 10 ** 4, 1e-7
    )
    by_name = {c.name: c.max_residual for c in rep.checks}
    assert rep.all_passed()
    assert by_name["closed_form_vs_rk4"] <= 1e-8


def test_verify_random_params_canonical():
    rng = np.random.default_rng(11)
    rep = verify_lax_representation(
        SolutionParams(rng.uniform(-1, 1, 8)), CANONICAL, 2 * math.pi, 10 ** 4, 1e-6
    )
    assert rep.all_passed()


def test_verify_superposition_of_parameters():
    rng = np.random.default_rng(12)
    c1, c2 = rng.uniform(-1, 1, (2, 8))
    kwargs = dict(s0=CANONICAL, t_end=2 * math.pi, steps=2000, tol=1e-3)
    gap = {
        key: {c.name: c.max_residual for c in verify_lax_representation(
            SolutionParams(vals), **kwargs).checks}["closed_form_vs_rk4"]
        for key, vals in [("a", c1), ("b", c2), ("ab", c1 + c2)]
    }
    assert gap["ab"] <= gap["a"] + gap["b"] + 1e-12


def test_verify_validates_inputs():
    with pytest.raises(ValueError, match="steps"):
        verify_lax_representation(params_unit(0), CANONICAL, 1.0, 1, 1e-6)
    with pytest.raises(ValueError, match="tol"):
        verify_lax_representation(params_unit(0), CANONICAL, 1.0, 10, -1.0)


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_verify_refuses_bad_t_end(t_end):
    # a non-finite horizon is bad input, not a numerical blow-up, and a zero
    # one would pass every check vacuously
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^t_end must be positive, got {t_end}$"):
            verify_lax_representation(params_unit(0), CANONICAL, t_end, 10, 1e-6)


def test_sample_rows_refuses_an_unknown_integrator():
    for integrator in ("euler", "RK4", "", None):
        with pytest.raises(ValueError, match=rf"^integrator must be exact or rk4, got {integrator!r}$"):
            sample_rows(params_unit(0), CANONICAL, 1.0, 10, integrator)


@pytest.mark.parametrize("t_end, steps, message", [
    (1.0, 1, "steps must be >= 2, got 1"),
    (1.0, -3, "steps must be >= 2, got -3"),
    (math.nan, 10, "t_end must be positive, got nan"),
    (math.inf, 10, "t_end must be positive, got inf"),
    (0.0, 10, "t_end must be positive, got 0.0"),
    (-1.0, 10, "t_end must be positive, got -1.0"),
    (5e-324, 2, "step t_end / steps must be positive, got 5e-324 / 2"),
])
def test_sample_rows_refuses_the_grids_verify_refuses(t_end, steps, message):
    # one grid check serves both: the same input, the same message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for integrator in ("exact", "rk4"):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                sample_rows(params_unit(0), CANONICAL, t_end, steps, integrator)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_lax_representation(params_unit(0), CANONICAL, t_end, steps, 1e-6)


def test_verify_report_structure():
    rep = verify_lax_representation(
        params_unit(2), CANONICAL, math.pi, 100, 1e-3, seed=42
    )
    d = rep.to_dict()
    assert [c["name"] for c in d["checks"]] == [
        "closed_form_vs_rk4", "lax_equation_residual", "mu_norm_drift",
        "hamiltonian_drift",
    ]
    assert all(set(c) == {"name", "max_residual", "tolerance", "pass"} for c in d["checks"])
    assert d["config"]["seed"] == 42
    assert d["config"]["c"] == [0, 0, 1, 0, 0, 0, 0, 0]
    assert d["config"]["omega"] == 1.0 and d["config"]["steps"] == 100


def outcome(args):
    """What ``verify_lax_representation(*args)`` gives: each check with its
    floats as hex, and the config, or the error's type and message."""
    try:
        rep = verify_lax_representation(*args)
    except (IntegrationError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return [(c.name, c.max_residual.hex(), c.tolerance.hex(), c.passed)
            for c in rep.checks], rep.config


def in_fresh_thread(fn, *args):
    """fn(*args) on a new thread."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn(*args)))
    thread.start()
    thread.join()
    return result[0]


# d(mu)/dt and [M, mu] overflow past a finite closed form: an
# IntegrationError after the closed form and the RK4 gap (tests/test_cli.py)
OVERFLOWING_DERIVATIVE = (SolutionParams([1e307] * 8), OscState(0.0, 1e-4, 1000.0),
                          0.00628, 1000, 1e-7)
# the RK4 run of mu turns non-finite at omega h = 250: its gap's scan raises
NON_FINITE_GAP = (SolutionParams(np.linspace(-1, 1, 8)), OscState(0.0, 2.0, 1000.0),
                  10.0, 40, 1e-7)
# the (q, p) rows stay finite but their energies overflow: scanned, reported
OVERFLOWING_ENERGY = (SolutionParams(np.zeros(8)), OscState(0.0, 2.0, 1000.0), 5.0, 20, 1e-7)


def drawn(seed, *steps):
    """``oscillator_args`` at each step count, from one generator."""
    rng = np.random.default_rng(seed)
    return [oscillator_args(rng, n) for n in steps]


def reuse_sequence():
    """9261, 10, 5000 and 9261 steps, with a call that fails partway
    through, a gap scan that raises and an overflow reported between."""
    a, b, c, d = drawn(1, 9261, 10, 5000, 9261)
    return [a, OVERFLOWING_DERIVATIVE, b, NON_FINITE_GAP, c, OVERFLOWING_ENERGY, d]


def test_verify_workspace_reuse_is_invisible():
    # verify keeps no state between calls: one thread runs the sequence,
    # and each outcome is that of the same call alone on a fresh thread
    sequence = reuse_sequence()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = [outcome(args) for args in sequence]
        want = [in_fresh_thread(outcome, args) for args in sequence]
    assert got == want
    assert got[1] == ("IntegrationError",
                      "lax_equation_residual: non-finite value at sample 0 (t = 0)")
    assert got[3][0] == "IntegrationError" and got[3][1].startswith("closed_form_vs_rk4: ")
    assert got[5][0][3][1] == math.inf.hex()


def test_verify_leaves_held_arrays_alone():
    params, s0, t_end, steps, tol = oscillator_args(np.random.default_rng(5), 9261)
    omega = s0.omega
    ts, mu_rk4 = rk4_linear_path(lax_generator(omega), [1, 0, 0, 0, 0, 0, 0, 1], t_end, steps)
    mu_cf = closed_form_path(aux_exact_flow(aux_algebraic(s0), omega, ts), params.values)
    residual = step_defect(mu_cf, omega, t_end / steps)
    held = [ts, mu_rk4, mu_cf, residual]
    copies = [a.copy() for a in held]
    for n in (steps, 5000, 10):
        verify_lax_representation(params, s0, t_end, n, tol)
    assert [a.tobytes() for a in held] == [a.tobytes() for a in copies]


def test_verify_threads_keep_their_own_workspace():
    # verify keeps no state across threads: four threads running the same
    # configs in different orders at once each get what one call alone gets
    configs = reuse_sequence() + drawn(6, 1080, 2712, 7943, 3)
    order = list(range(len(configs)))
    # four mixes of the same configs, each run three times over
    mixes = [3 * m for m in (order, order[::-1], order[1::2] + order[::2], order[3:] + order[:3])]
    barrier = threading.Barrier(len(mixes))
    results = [None] * len(mixes)

    def run(i):
        barrier.wait()
        results[i] = [outcome(configs[j]) for j in mixes[i]]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        alone = [outcome(args) for args in configs]
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(mixes))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert results == [[alone[j] for j in mix] for mix in mixes]


def report_text(verify, args):
    """The report's JSON text, or the error's type and message."""
    try:
        return verify(*args).to_json()
    except (IntegrationError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def benchmark_like(seed, count):
    """Verify arguments drawn as the benchmark draws its configs: omega in
    [0.1, 30], amplitude sqrt(2H) in [1e-2, 1e2] at any phase, 1 to 10
    periods, C in [-1, 1]^8, here with steps log-uniform in [2, 1e4]."""
    rng = random.Random(seed)
    configs = []
    for _ in range(count):
        omega = 0.1 * 300.0 ** rng.random()
        amplitude, phase = 1e-2 * 1e4 ** rng.random(), rng.uniform(0.0, 2.0 * math.pi)
        s0 = OscState(amplitude * math.sin(phase) / omega, amplitude * math.cos(phase), omega)
        c = SolutionParams([rng.uniform(-1.0, 1.0) for _ in range(8)])
        t_end = rng.randint(1, 10) * 2.0 * math.pi / omega
        configs.append((c, s0, t_end, round(2 * 5000 ** rng.random()), 1e-7, seed))
    return configs


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_reports_match_the_sample_major_verifier(seed):
    for args in benchmark_like(seed, 10):
        assert report_text(verify_lax_representation, args) == report_text(
            verify_sample_major, args)


def test_verify_overflows_match_the_sample_major_verifier():
    # large C and p0 reach the rescaled norms, Infinity and every error path
    rng = np.random.default_rng(30)
    configs = [OVERFLOWING_DERIVATIVE, NON_FINITE_GAP, OVERFLOWING_ENERGY,
               (SolutionParams(np.zeros(8)), OscState(0.0, 2.0, 1000.0), 1e3, 20, 1e-7)]
    for amplitude in (1e200, 1e300, 1.7e308):
        for s0 in (CANONICAL, OscState(0.0, 1e30, 1.0), OscState(1e-3, 1e30, 1e3)):
            c = SolutionParams(amplitude * rng.uniform(-1.0, 1.0, 8))
            configs += [(c, s0, 2 * math.pi, 1000, 1e-7), (c, s0, 1e3, 20, 1e-7)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        texts = [report_text(verify_lax_representation, args) for args in configs]
        assert texts == [report_text(verify_sample_major, args) for args in configs]
    assert any("Infinity" in text for text in texts)
    stages = {text.split(":")[1].strip() for text in texts if text.startswith("Integration")}
    assert stages == {"closed_form", "closed_form_vs_rk4", "lax_equation_residual",
                      "hamiltonian_drift"}


# Faults are counted in a fresh interpreter, warmed up by one cycle of the
# benchmark's 15 step counts in rising order: how many pages a call maps
# depends on what earlier arrays left the allocator with (after one
# 20000-step call, say, none of verify's arrays fault even without reuse).
WARM_FAULTS = """
import math, resource
import numpy as np
from operadlax import OscState, SolutionParams, verify_lax_representation
def call(steps):
    verify_lax_representation(SolutionParams(np.random.default_rng(15).uniform(-1, 1, 8)),
                              OscState(0.4, -1.2, 1.7), 10 * math.pi / 1.7, steps, 1e-7)
for i in range(15):
    call(round(1000 * 10 ** ((i + 0.5) / 15)))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    call(9261)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


def test_verify_warm_call_maps_no_fresh_pages():
    # guards the one-block layout of verify's per-call arrays: a warm
    # 9261-step call takes 39.8 minor page faults with one fresh block,
    # and 547-565 with four separate arrays
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(operadic_lax.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", WARM_FAULTS], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert float(proc.stdout) < 100
