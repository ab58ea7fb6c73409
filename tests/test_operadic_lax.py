"""Structure-constant evolution: RHS routes, closed form, reduction identity,
and the end-to-end verification pipeline."""

import math
import warnings

import numpy as np
import pytest

from operadlax import (
    COMPONENT_NAMES,
    AuxValues,
    BranchLocusError,
    Operation,
    OscState,
    SolutionParams,
    StructureConstants2,
    aux_algebraic,
    aux_exact_flow,
    classical_lax_residual,
    closed_form_mu,
    g_residuals,
    g_residuals_along,
    g_values,
    grid_lax_residual,
    hamiltonian,
    lax_rhs_index,
    m_matrix,
    pde_residual,
    verify_lax_representation,
)
from reference_rhs import aux_rhs, lax_rhs_bracket, lax_rhs_explicit

CANONICAL = OscState(0.0, 2.0, 1.0)


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


def test_grid_lax_residual_scales_past_overflowing_squares():
    # 2**600 scales every entry exactly; the squares in the norm (past 2**1200)
    # overflow, so the rows are recomputed from their scaled entries
    mu = np.random.default_rng(9).standard_normal((50, 8))
    want = 2.0**600 * grid_lax_residual(mu, 0.01, 1.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = grid_lax_residual(2.0**600 * mu, 0.01, 1.3)
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_verify_zero_params_mu_checks_exact():
    rep = verify_lax_representation(
        SolutionParams(np.zeros(8)), CANONICAL, 2 * math.pi, 10 ** 3, 1e-10
    )
    by_name = {c.name: c for c in rep.checks}
    assert by_name["closed_form_vs_rk4"].max_residual == 0.0
    assert by_name["lax_equation_residual"].max_residual == 0.0
    assert by_name["mu_norm_drift"].max_residual == 0.0
    assert rep.all_passed()


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


def test_pde_residual_zero_params():
    assert pde_residual(SolutionParams(np.zeros(8)), OscState(1, 1, 1.0)) == 0.0


def test_pde_residual_seventh_parameter():
    r = pde_residual(params_unit(6), OscState(1, 1, 1.0), 1e-5)
    assert r <= 1e-6


def test_pde_residual_second_order_in_h():
    s = OscState(1, 1, 1.0)
    params = params_unit(6)
    r1 = pde_residual(params, s, 2e-3)
    r2 = pde_residual(params, s, 1e-3)
    assert 3.5 < r1 / r2 < 4.5


def test_pde_residual_random_interior_states():
    rng = np.random.default_rng(13)
    count = 0
    while count < 50:
        q, p = rng.uniform(-2, 2, 2)
        s = OscState(float(q), float(p), 1.0)
        if hamiltonian(s) < 0.05 or abs(aux_algebraic(s).a_plus) < 0.3:
            continue
        count += 1
        params = SolutionParams(rng.uniform(-1, 1, 8))
        assert pde_residual(params, s, 1e-5) <= 1e-6


def test_pde_residual_refuses_branch_locus():
    with pytest.raises(BranchLocusError, match="branch"):
        pde_residual(params_unit(6), OscState(0.0, -1.0, 1.0))


def test_pde_residual_norm_does_not_overflow():
    # |mu| is about 1e200, so the norm's squares overflow; scaling by a
    # power of two keeps every other step exact
    s = OscState(0.3, 1.1, 1.0)
    big = 2.0 ** 664
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = pde_residual(SolutionParams([big] * 8), s)
    assert r == pytest.approx(big * pde_residual(SolutionParams(np.ones(8)), s), rel=1e-15)


STEP_CHECKED = {
    "verify_lax_representation": lambda h: verify_lax_representation(
        SolutionParams(np.ones(8)), CANONICAL, 1.0, 10, 1e-6, h_fd=h
    ),
    "pde_residual": lambda h: pde_residual(SolutionParams(np.ones(8)), CANONICAL, h),
    "classical_lax_residual": lambda h: classical_lax_residual(CANONICAL, 0.5, h),
    "g_residuals": lambda h: g_residuals(CANONICAL, 0.5, h),
    "g_residuals_along": lambda h: g_residuals_along(
        lambda t: aux_exact_flow(aux_algebraic(CANONICAL), 1.0, t), 1.0, 0.5, h
    ),
}


@pytest.mark.parametrize("h_fd", [0.0, -1e-4, math.nan, math.inf])
@pytest.mark.parametrize("name", list(STEP_CHECKED))
def test_finite_difference_step_must_be_positive(name, h_fd):
    with pytest.raises(ValueError, match="h_fd"):
        STEP_CHECKED[name](h_fd)
