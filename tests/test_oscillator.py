"""Oscillator flow, Lax matrices, auxiliary functions and their evolution laws."""

import math
import re
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from operadlax import (
    AuxValues,
    IntegrationError,
    OscState,
    StructureConstants2,
    aux_algebraic,
    aux_exact_flow,
    aux_generator,
    closed_form_path,
    exact_flow,
    hamilton_generator,
    hamiltonian,
    lax_generator,
    lax_matrices,
    m_matrix,
    rk4_linear_path,
    rk4_path,
)
from operadlax.oscillator import _rk4_linear_rows
from exact_algebra import OMEGAS, chain_jacobians, rational_points, rotation_chain
from reference_rhs import (
    _explicit_rhs,
    assert_within_ulps,
    aux_rhs,
    g_values,
    hamilton_rhs,
    lax_rhs_bracket,
    lax_rhs_explicit,
    rk4_linear_rows_loop,
)


def rk4_integrate(s0, t_end, steps):
    """RK4 trajectory of Hamilton's equations; list of (t, OscState) samples."""
    ts, ys = rk4_linear_path(hamilton_generator(s0.omega), [s0.q, s0.p], t_end, steps)
    return [
        (float(t), OscState(float(q), float(p), s0.omega))
        for t, (q, p) in zip(ts, ys)
    ]


def test_hamiltonian_values():
    assert hamiltonian(OscState(0, 0, 1.0)) == 0.0
    assert hamiltonian(OscState(1, 0, 2.0)) == 2.0
    assert hamiltonian(OscState(0, 2, 1.0)) == 2.0


def test_hamilton_rhs_values():
    assert hamilton_rhs(OscState(0, 0, 1.0)) == (0.0, 0.0)
    assert hamilton_rhs(OscState(1, 0, 2.0)) == (0.0, -4.0)
    assert hamilton_rhs(OscState(0, 3, 1.0)) == (3.0, 0.0)


def test_osc_state_validation():
    with pytest.raises(ValueError):
        OscState(0, 0, 0.0)
    with pytest.raises(ValueError):
        OscState(math.nan, 0, 1.0)
    # finite inputs whose energy is not a finite double: p^2 overflows, and
    # omega^2 q^2 is inf * 0 = nan
    for q, p, omega in ((0.0, 1e200, 1.0), (0.0, 2.0, 1.7e308)):
        with pytest.raises(ValueError, match=re.escape(f"(q, p, omega) = ({q}, {p}, {omega})")):
            OscState(q, p, omega)


def test_exact_flow_examples():
    s0 = OscState(1, 0, 1.0)
    assert exact_flow(s0, 0.0) == s0
    s = exact_flow(s0, math.pi / 2)
    assert abs(s.q) < 1e-12 and abs(s.p + 1) < 1e-12
    # omega = 2 makes t = pi one full period, so the state returns
    s = exact_flow(OscState(0, 2, 2.0), math.pi)
    assert abs(s.q) < 1e-12 and abs(s.p - 2) < 1e-12
    # half period at omega = 1 flips the momentum
    s = exact_flow(OscState(0, 2, 1.0), math.pi)
    assert abs(s.q) < 1e-12 and abs(s.p + 2) < 1e-12


def test_exact_flow_against_rk4_oracle():
    s0 = OscState(1, 0, 1.0)
    t = math.pi / 2
    steps = int(math.ceil(t / 1e-4))
    final = rk4_integrate(s0, t, steps)[-1][1]
    want = exact_flow(s0, t)
    assert abs(final.q - want.q) < 1e-10 and abs(final.p - want.p) < 1e-10


def test_exact_flow_conserves_energy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        s0 = OscState(*rng.uniform(-2, 2, 2), float(rng.uniform(0.3, 3)))
        h0 = hamiltonian(s0)
        t = float(rng.uniform(0, 20))
        assert hamiltonian(exact_flow(s0, t)) == pytest.approx(h0, abs=1e-12 * (1 + h0))


def test_rk4_zero_state_stays_zero():
    for _, s in rk4_integrate(OscState(0, 0, 1.0), 5.0, 50):
        assert s.q == 0.0 and s.p == 0.0


def test_rk4_returns_to_start_after_period():
    traj = rk4_integrate(OscState(1, 0, 1.0), 2 * math.pi, 10 ** 4)
    assert traj[0][0] == 0.0
    t_final, s_final = traj[-1]
    assert t_final == pytest.approx(2 * math.pi, rel=1e-15)
    assert abs(s_final.q - 1) < 1e-10 and abs(s_final.p) < 1e-10


def test_rk4_fourth_order_convergence():
    s0 = OscState(1, 0, 1.0)

    def max_err(steps):
        return max(
            max(abs(s.q - exact_flow(s0, t).q), abs(s.p - exact_flow(s0, t).p))
            for t, s in rk4_integrate(s0, 2 * math.pi, steps)
        )

    ratio = max_err(1000) / max_err(2000)
    assert 13.0 < ratio < 19.0


def test_rk4_energy_drift_over_period():
    s0 = OscState(0, 2, 1.0)
    h0 = hamiltonian(s0)
    drift = max(abs(hamiltonian(s) - h0) for _, s in rk4_integrate(s0, 2 * math.pi, 10 ** 4))
    assert drift <= 1e-10


def test_rk4_path_blowup_reports_step():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError, match="step"):
            rk4_path(lambda y: y * y, np.array([1.0]), 1e6, 10)


@pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf])
def test_aux_generator_rejects_bad_omega(omega):
    # g_values applies the generator, so it refuses too
    a = AuxValues(1.0, -0.5, 0.25, 2.0)
    for call in (lambda: aux_generator(omega), lambda: g_values(a, a, omega)):
        with pytest.raises(ValueError, match="omega"):
            call()


@pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf])
def test_hamilton_generator_rejects_bad_omega(omega):
    with pytest.raises(ValueError, match="omega"):
        hamilton_generator(omega)


def test_hamilton_generator_matches_rhs():
    s = OscState(0.7, -1.3, 2.5)
    np.testing.assert_array_equal(hamilton_generator(2.5) @ [s.q, s.p], hamilton_rhs(s))
    # the aux and mu generators match their laws as well
    rng = np.random.default_rng(121)
    for omega in (1e-3, 0.37, 1.0, 2.5, 40.0, 1e3):
        a = AuxValues(*rng.standard_normal(4))
        np.testing.assert_array_equal(
            aux_generator(omega) @ astuple(a), astuple(aux_rhs(a, omega))
        )
        np.testing.assert_array_equal(
            lax_generator(omega), _explicit_rhs(np.eye(8), omega).T
        )
        for mu in rng.standard_normal((5, 8)):
            want = lax_rhs_bracket(
                StructureConstants2(mu).to_operation(), m_matrix(omega)
            ).coeffs.reshape(8)
            got = mu @ lax_generator(omega).T
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("steps", [1, 2, 3, 7, 1000, 10007])
def test_rk4_linear_path_matches_loop(steps):
    # same method as the step-by-step loop; only the rounding differs
    rng = np.random.default_rng(steps)
    for dim in (2, 4, 8, "mu"):
        omega = float(10.0 ** rng.uniform(-1.0, math.log10(30.0)))
        if dim == "mu":
            # generator of the eight explicit Lax ODEs, column by column
            a = np.array([lax_rhs_explicit(StructureConstants2(e), omega).values
                          for e in np.eye(8)]).T
        else:
            # a rotation generator plus a small non-normal part
            b = rng.standard_normal((dim, dim))
            a = omega * ((b - b.T) / np.linalg.norm(b - b.T, 2)
                         + 0.05 * rng.standard_normal((dim, dim)) / dim)
        y0 = rng.standard_normal(len(a))
        t_end = float(rng.uniform(0.5, 10.0)) * 2.0 * math.pi / omega
        ts_ref, ys_ref = rk4_path(lambda y: a @ y, y0, t_end, steps)
        ts, ys = rk4_linear_path(a, y0, t_end, steps)
        np.testing.assert_array_equal(ts, ts_ref)
        assert ys.shape == ys_ref.shape == (steps + 1, len(a))
        np.testing.assert_array_equal(ys[0], y0)
        assert np.abs(ys - ys_ref).max() <= 1e-11 * np.abs(ys_ref).max()


def test_rk4_linear_path_validates_inputs():
    a = hamilton_generator(1.0)
    with pytest.raises(ValueError, match="steps"):
        rk4_linear_path(a, [1.0, 0.0], 1.0, 0)
    for t_end in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="t_end"):
            rk4_linear_path(a, [1.0, 0.0], t_end, 10)


def test_rk4_linear_path_zero_seed_stays_exactly_zero():
    a = np.array([[0.0, 1.0, 0.5], [-9.0, 0.0, 2.0], [0.3, -4.0, 0.0]])
    _, ys = rk4_linear_path(a, np.zeros(3), 50.0, 10007)
    assert not ys.any()


@pytest.mark.parametrize(
    "y0, t_end, steps, step",
    [
        # the first powers of P overflow long before the tiny state does
        ((1e-250, 0.0), 600.0, 200, 66),
        ((1e-300, 1e-300), 60.0, 300, 159),
        ((1.0, 0.0), 600.0, 200, 36),
    ],
)
def test_rk4_linear_path_blowup_step_matches_loop(y0, t_end, steps, step):
    # omega = 100 makes every step unstable (h omega >= 20)
    a = hamilton_generator(100.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError, match=f"at step {step} "):
            rk4_path(lambda y: a @ y, y0, t_end, steps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match=f"at step {step} "):
            rk4_linear_path(a, y0, t_end, steps)


def first_nonfinite_rung(a, h):
    """The least j with a non-finite P^(2^j), P the RK4 step matrix of h a."""
    j = 0
    with np.errstate(over="ignore", invalid="ignore"):
        p = sum(np.linalg.matrix_power(h * a, k) / math.factorial(k) for k in range(5))
        while np.isfinite(p).all():
            p, j = p @ p, j + 1
    return j


@pytest.mark.parametrize("steps", [1, 2, 3, 4, 7, 8, 9, 1023, 1024, 1025, 10007])
def test_rk4_linear_rows_match_the_per_square_scan_loop(steps):
    # verify's two runs at the middle of the benchmark's draw: bit for bit
    omega, q0, p0 = 1.7, 0.4, -1.2
    s0 = OscState(q0, p0, omega)
    mu0 = closed_form_path(aux_algebraic(s0), np.random.default_rng(15).uniform(-1.0, 1.0, 8))
    t_end = 5 * 2.0 * math.pi / omega
    for a, y0 in ((lax_generator(omega), mu0), (hamilton_generator(omega), [q0, p0])):
        want = rk4_linear_rows_loop(a, y0, t_end, steps)
        assert _rk4_linear_rows(a, y0, t_end, steps).T.tobytes() == want.tobytes()


@pytest.mark.parametrize("rung", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("steps", [40, 1025])
def test_rk4_linear_rows_match_the_loop_when_a_square_overflows(rung, steps):
    # P's entries near (h omega)^4 / 24: the rung-th square is the first to
    # overflow (P itself at rung 0); the NaN and inf positions count too
    a = hamilton_generator(1.0)
    h = 1e80 if rung == 0 else (24.0 * 10.0 ** (231.0 / 2 ** (rung - 1))) ** 0.25
    assert first_nonfinite_rung(a, h) == rung
    for y0 in ((1e-300, 1e-300), (1.0, 0.0), (0.0, 0.0)):
        want = rk4_linear_rows_loop(a, y0, h * steps, steps)
        assert _rk4_linear_rows(a, y0, h * steps, steps).T.tobytes() == want.tobytes()


def test_lax_matrices_example():
    L, M = lax_matrices(OscState(1, 2, 3.0))
    np.testing.assert_array_equal(L.coeffs, [[2.0, 3.0], [3.0, -2.0]])
    np.testing.assert_array_equal(M.coeffs, [[0.0, -1.5], [1.5, 0.0]])
    L0, M0 = lax_matrices(OscState(0, 0, 1.0))
    assert not L0.coeffs.any()
    np.testing.assert_array_equal(M0.coeffs, [[0.0, -0.5], [0.5, 0.0]])


def test_lax_matrix_shape_invariants():
    rng = np.random.default_rng(1)
    for _ in range(30):
        s = OscState(*rng.uniform(-3, 3, 2), float(rng.uniform(0.2, 4)))
        L, M = lax_matrices(s)
        assert np.trace(L.coeffs) == 0.0
        np.testing.assert_array_equal(L.coeffs, L.coeffs.T)
        np.testing.assert_array_equal(M.coeffs + M.coeffs.T, np.zeros((2, 2)))
        # isospectrality witness
        assert np.trace(L.coeffs @ L.coeffs) == pytest.approx(
            4 * hamiltonian(s), rel=1e-12, abs=1e-15
        )


def classical_intertwining(omega):
    """(J·H, ad_M·J): J maps (q, p) to L's four entries, H is Hamilton's
    generator and ad_M = kron(M, I) - kron(I, Mᵀ) acts on L row by row."""
    j = np.column_stack([lax_matrices(OscState(q, p, omega))[0].coeffs.ravel()
                         for q, p in ((1.0, 0.0), (0.0, 1.0))])
    m = m_matrix(omega).coeffs
    ad_m = np.kron(m, np.eye(2)) - np.kron(np.eye(2), m.T)
    return j @ hamilton_generator(omega), ad_m @ j


def test_classical_lax_pair_intertwines_exactly():
    # J·H = ad_M·J is the classical Lax equation dL/dt = [M, L] for all (q, p)
    jh, ad_j = classical_intertwining(2.0)
    assert jh.shape == ad_j.shape == (4, 2)
    assert np.array_equal(jh, np.round(jh)) and np.array_equal(ad_j, np.round(ad_j))
    np.testing.assert_array_equal(jh, ad_j)
    assert jh.any()
    rng = np.random.default_rng(5)
    for omega in 10.0 ** rng.uniform(-3, 3, 50):
        jh, ad_j = classical_intertwining(float(omega))
        scale = max(omega, omega * omega)
        np.testing.assert_allclose(jh, ad_j, rtol=0, atol=4 * np.finfo(float).eps * scale)


def test_aux_algebraic_examples():
    a = aux_algebraic(OscState(0, 2, 1.0))
    assert (a.a_plus, a.a_minus, a.d_plus, a.d_minus) == (2.0, 0.0, 4.0, 0.0)
    a = aux_algebraic(OscState(2, 0, 1.0))
    rt2 = math.sqrt(2)
    assert a.a_plus == pytest.approx(rt2, rel=1e-14)
    assert a.a_minus == pytest.approx(rt2, rel=1e-14)
    assert a.d_plus == pytest.approx(-2 * rt2, rel=1e-13)
    assert a.d_minus == pytest.approx(2 * rt2, rel=1e-13)
    assert aux_algebraic(OscState(0, 0, 3.0)) == AuxValues(0, 0, 0, 0)


def check_defining_relations(a, s, tol=1e-10):
    h = hamiltonian(s)
    rt = math.sqrt(2 * h)
    scale = 1.0 + rt
    assert abs(a.a_plus ** 2 + a.a_minus ** 2 - 2 * rt) <= tol * scale
    assert abs(a.a_plus ** 2 - a.a_minus ** 2 - 2 * s.p) <= tol * scale
    assert abs(a.a_plus * a.a_minus - s.omega * s.q) <= tol * scale


def test_aux_algebraic_defining_relations_random():
    rng = np.random.default_rng(2)
    for _ in range(200):
        s = OscState(*rng.uniform(-3, 3, 2), float(rng.uniform(0.2, 4)))
        check_defining_relations(aux_algebraic(s), s)


def test_aux_algebraic_branch_switch_region():
    # near p = -sqrt(2H), where A+ falls to 0, the relations hold as elsewhere
    for q in (1e-14, -1e-14, 0.0, 1e-9):
        s = OscState(q, -2.0, 1.0)
        check_defining_relations(aux_algebraic(s), s)


@pytest.mark.parametrize("q, p", [(0.0, 1e-30), (0.0, 3e24), (0.0, 1e30), (0.0, 1e150),
                                  (1e14, 1e30)])
def test_aux_algebraic_holds_at_extreme_momenta(q, p):
    # p >= 0 far from amplitude 1, where A+ = sqrt(2 p) and sqrt(2H) lie
    # decades apart; the relations hold relative to 2 sqrt(2H)
    s = OscState(q, p, 1.0)
    a = aux_algebraic(s)
    assert all(math.isfinite(x) for x in astuple(a))
    scale = 2.0 * math.sqrt(2.0 * hamiltonian(s))
    eps = np.finfo(float).eps
    assert abs(a.a_plus ** 2 + a.a_minus ** 2 - scale) <= 4 * eps * scale
    assert abs(a.a_plus ** 2 - a.a_minus ** 2 - 2 * p) <= 4 * eps * scale
    assert abs(a.a_plus * a.a_minus - s.omega * q) <= 4 * eps * scale


@pytest.mark.parametrize("q", [-1e-14, -1e-9, -1e-7, 0.0, -0.0])
def test_aux_algebraic_is_principal_near_its_cut(q):
    # just below the cut q = 0, p < 0: A+ is tiny and positive, A- near -2;
    # on the cut, at either signed zero q, A+ is 0 and A- is +2
    a = aux_algebraic(OscState(q, -2.0, 1.0))
    if q == 0.0:
        assert a.a_plus == 0.0 and a.a_minus > 0.0
    else:
        assert a.a_plus >= 0.0 and a.a_minus < 0.0
    assert_within_ulps(a, q, -2.0, 1.0)


@pytest.mark.parametrize("q, p", [(1.0, -1e4), (1e-3, -1.0), (1e5, -1e10), (0.3, -1.2)])
def test_aux_algebraic_is_accurate_for_negative_momentum(q, p):
    # sqrt(rt + p) cancels here; the seed takes sqrt(rt - p) instead
    assert_within_ulps(aux_algebraic(OscState(q, p, 1.0)), q, p, 1.0)


def test_aux_cubic_identity():
    # D+ + i D- = (A+ + i A-)^3 / 2, pointwise and along the flow
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = OscState(*rng.uniform(-3, 3, 2), float(rng.uniform(0.2, 4)))
        a = aux_algebraic(s)
        if rng.uniform() < 0.5:
            a = aux_exact_flow(a, s.omega, float(rng.uniform(0, 20)))
        zd = a.d_plus + 1j * a.d_minus
        za = a.a_plus + 1j * a.a_minus
        assert abs(zd - 0.5 * za ** 3) <= 1e-12 * (1 + abs(zd))


def test_aux_flow_keeps_cubic_identity_to_rounding():
    # (D+, D-) turn by the cube of (A+, A-)'s rotation, so D = A^3 / 2 holds
    # to a few ulps of |D| however many periods 4 pi / omega have passed
    rng = np.random.default_rng(12)
    for _ in range(10):
        s = OscState(*rng.uniform(-3, 3, 2), float(10.0 ** rng.uniform(-1, 1)))
        ts = np.linspace(0.0, 1e3 * 4.0 * math.pi / s.omega, 20001)
        a = aux_exact_flow(aux_algebraic(s), s.omega, ts)
        za, zd = a.a_plus + 1j * a.a_minus, a.d_plus + 1j * a.d_minus
        assert np.all(np.abs(zd - za * za * za / 2) <= 4e-15 * np.abs(zd))


def test_aux_exact_flow_examples():
    a0 = AuxValues(2, 0, 4, 0)
    assert aux_exact_flow(a0, 1.0, 0.0) == a0
    a = aux_exact_flow(a0, 1.0, math.pi)
    assert abs(a.a_plus) < 1e-12 and abs(a.a_minus - 2) < 1e-12
    assert abs(a.d_plus) < 1e-12 and abs(a.d_minus + 4) < 1e-12


def test_aux_exact_flow_against_rk4_oracle():
    a0 = AuxValues(2, 0, 4, 0)
    omega, t = 1.0, math.pi

    def rhs(y):
        r = aux_rhs(AuxValues(*y), omega)
        return np.array([r.a_plus, r.a_minus, r.d_plus, r.d_minus])

    _, ys = rk4_path(rhs, [a0.a_plus, a0.a_minus, a0.d_plus, a0.d_minus], t, 20000)
    want = aux_exact_flow(a0, omega, t)
    np.testing.assert_allclose(
        ys[-1], [want.a_plus, want.a_minus, want.d_plus, want.d_minus], atol=1e-10
    )


def test_aux_flow_preserves_quadratic_invariants():
    rng = np.random.default_rng(4)
    a0 = AuxValues(*rng.uniform(-2, 2, 4))
    ra0 = a0.a_plus ** 2 + a0.a_minus ** 2
    rd0 = a0.d_plus ** 2 + a0.d_minus ** 2
    for t in np.linspace(0, 30, 40):
        a = aux_exact_flow(a0, 0.7, float(t))
        assert a.a_plus ** 2 + a.a_minus ** 2 == pytest.approx(ra0, rel=1e-13)
        assert a.d_plus ** 2 + a.d_minus ** 2 == pytest.approx(rd0, rel=1e-13)


def test_transported_relations_follow_the_flow():
    # relations transported by the rotation track the exact (q, p) trajectory
    rng = np.random.default_rng(5)
    for _ in range(20):
        s0 = OscState(*rng.uniform(-2, 2, 2), float(rng.uniform(0.3, 3)))
        a0 = aux_algebraic(s0)
        rt = math.sqrt(2 * hamiltonian(s0))
        for t in rng.uniform(0, 15, 5):
            a = aux_exact_flow(a0, s0.omega, float(t))
            s = exact_flow(s0, float(t))
            scale = 1.0 + rt
            assert abs(a.a_plus ** 2 + a.a_minus ** 2 - 2 * rt) <= 1e-10 * scale
            assert abs(a.a_plus ** 2 - a.a_minus ** 2 - 2 * s.p) <= 1e-10 * scale
            assert abs(a.a_plus * a.a_minus - s.omega * s.q) <= 1e-10 * scale


def test_cubic_norm_conservation():
    # D+^2 + D-^2 = 2 (2H)^(3/2), from ((A+^2 + A-^2)^3) / 4
    rng = np.random.default_rng(6)
    for _ in range(100):
        s = OscState(*rng.uniform(-2, 2, 2), float(rng.uniform(0.3, 3)))
        a = aux_algebraic(s)
        want = 2.0 * (2 * hamiltonian(s)) ** 1.5
        assert a.d_plus ** 2 + a.d_minus ** 2 == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_rotation_laws_are_hamiltons_flow_exactly():
    # (A+ + i A-)^2 = 2 (p + i omega q): the Jacobian of (A+, A-) -> (q, p)
    # takes the rate aux_generator gives (A+, A-) to hamilton_generator's,
    # and that of (A+, A-) -> (D+, D-) takes it to aux_generator's (D+, D-)
    # rows.  That Jacobian's determinant, -(A+^2 + A-^2) / omega, is nonzero,
    # so Hamilton's flow allows no other rate; with A K(C) = K(C) R this is
    # the transport equation X(mu) = [M, mu] on phase space
    points = rational_points(seed=21)
    for omega in OMEGAS:
        for ap, am in points:
            assert rotation_chain(omega, ap, am) == [0, 0, 0, 0]
            _, ((j00, j01), (j10, j11)), _ = chain_jacobians(omega, ap, am)
            assert j00 * j11 - j01 * j10 == -(ap * ap + am * am) / omega != 0
