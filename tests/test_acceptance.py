"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from operadlax import (
    AuxValues,
    Operation,
    OscState,
    SolutionParams,
    StructureConstants2,
    aux_algebraic,
    aux_exact_flow,
    bracket,
    cli,
    closed_form_mu,
    composition_relation_residual,
    energy,
    frobenius_norm,
    hamilton_generator,
    jacobi_residual,
    lax_matrices,
    lax_rhs_index,
    m_matrix,
    rk4_linear_path,
    unit_residual,
    verify_lax_representation,
)
from operadlax.operadic_lax import closed_form_path
from exact_algebra import (
    OMEGAS,
    hamilton_field,
    rational_points,
    rotation_chain,
    transport_residual,
)
from reference_rhs import aux_rhs, g_values, lax_rhs_bracket, lax_rhs_explicit

CANONICAL = OscState(0.0, 2.0, 1.0)
TWO_PI = 2.0 * math.pi


def report(number, name, ok):
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def rand_op(rng, d, n):
    return Operation(d, n, rng.standard_normal((d,) * (n + 1)))


def test_criterion_1_operad_axioms():
    """Composition relations (all three cases), unit, antisymmetry, Jacobi."""
    rng = np.random.default_rng(101)
    case_counts = {1: 0, 2: 0, 3: 0}
    ok = True
    for _ in range(150):
        d = int(rng.integers(1, 4))
        h, f, g = (rand_op(rng, d, int(rng.integers(1, 4))) for _ in range(3))
        tol = 1e-12 * (1 + frobenius_norm(h) * frobenius_norm(f) * frobenius_norm(g))
        for i in range(h.degree):
            for j in range(h.reduced_degree + f.reduced_degree + 1):
                if j <= i - 1:
                    case = 1
                elif j <= i + f.reduced_degree:
                    case = 2
                else:
                    case = 3
                case_counts[case] += 1
                ok = ok and composition_relation_residual(h, f, g, i, j) <= tol

        ok = ok and unit_residual(h) <= 1e-12 * (1 + frobenius_norm(h))

        s = -1.0 if (f.reduced_degree * g.reduced_degree) % 2 else 1.0
        anti = np.linalg.norm(bracket(f, g).coeffs + s * bracket(g, f).coeffs)
        ok = ok and anti == 0.0

        jtol = 1e-12 * (1 + frobenius_norm(f) * frobenius_norm(g) * frobenius_norm(h))
        ok = ok and jacobi_residual(f, g, h) <= jtol
    ok = ok and all(count >= 100 for count in case_counts.values())
    report(1, "operad axioms", ok)


def test_criterion_2_rhs_route_equivalence():
    """Explicit, index, and bracket right-hand sides agree to 1e-14."""
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        mu = rng.uniform(-1, 1, 8)
        for omega in (0.5, 1.0, 2.0):
            r_expl = lax_rhs_explicit(StructureConstants2(mu), omega).values
            r_idx = lax_rhs_index(mu.reshape(2, 2, 2), m_matrix(omega).coeffs).reshape(8)
            r_brk = lax_rhs_bracket(
                StructureConstants2(mu).to_operation(), m_matrix(omega)
            ).coeffs.reshape(8)
            worst = max(
                worst,
                float(np.abs(r_expl - r_idx).max()),
                float(np.abs(r_expl - r_brk).max()),
                float(np.abs(r_idx - r_brk).max()),
            )
    report(2, "rhs route equivalence", worst <= 1e-14)


def test_criterion_3_closed_form_representation():
    """Closed form vs RK4 gap <= 1e-8; Lax-equation residual <= 1e-6."""
    rng = np.random.default_rng(103)
    worst_gap, worst_lax = 0.0, 0.0
    for _ in range(20):
        params = SolutionParams(rng.uniform(-1, 1, 8))
        rep = verify_lax_representation(params, CANONICAL, TWO_PI, 10 ** 4, 1e-6)
        values = {c.name: c.max_residual for c in rep.checks}
        worst_gap = max(worst_gap, values["closed_form_vs_rk4"])
        worst_lax = max(worst_lax, values["lax_equation_residual"])
    report(3, "closed-form representation", worst_gap <= 1e-8 and worst_lax <= 1e-6)


def test_criterion_4_reduction_identity():
    """Off-shell residual equals the G-contraction; on-shell it vanishes."""
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(100):
        aux = AuxValues(*rng.uniform(-2, 2, 4))
        aux_dot = AuxValues(*rng.uniform(-2, 2, 4))
        params = SolutionParams(rng.uniform(-1, 1, 8))
        omega = float(rng.uniform(0.3, 2.5))
        direct = (
            closed_form_mu(aux_dot, params).values
            - lax_rhs_explicit(closed_form_mu(aux, params), omega).values
        )
        predicted = closed_form_mu(g_values(aux, aux_dot, omega), params).values
        ok = ok and np.abs(direct - predicted).max() <= 1e-12
    a0 = aux_algebraic(CANONICAL)
    for t in np.linspace(0.0, 2 * TWO_PI, 40):
        at = aux_exact_flow(a0, 1.0, float(t))
        params = SolutionParams(rng.uniform(-1, 1, 8))
        direct = (
            closed_form_mu(aux_rhs(at, 1.0), params).values
            - lax_rhs_explicit(closed_form_mu(at, params), 1.0).values
        )
        ok = ok and np.abs(direct).max() <= 1e-10
    report(4, "reduction identity", ok)


def detour(omega):
    """Hamilton's field with dp/dt shifted by 1/10."""
    hamilton = hamilton_field(omega)
    return lambda q, p: [x + y for x, y in zip(hamilton(q, p), (0, Fraction(1, 10)))]


def test_criterion_5_rotation_law_equivalence():
    """The rotation laws are Hamilton's flow through the aux map, exactly,
    and another vector field leaves a nonzero residual."""
    points = rational_points(seed=105)
    ok = all(not any(rotation_chain(w, ap, am)) for w in OMEGAS for ap, am in points)
    ok = ok and all(any(rotation_chain(w, ap, am, detour(w))) for w in OMEGAS for ap, am in points)
    report(5, "rotation-law equivalence", ok)


def test_criterion_6_conservation_suite():
    ok = True
    # energy drift of RK4 over one period
    h0 = energy(CANONICAL.q, CANONICAL.p, CANONICAL.omega)
    _, qp = rk4_linear_path(hamilton_generator(1.0), [CANONICAL.q, CANONICAL.p], TWO_PI, 10 ** 4)
    drift = max(abs(energy(float(q), float(p), 1.0) - h0) for q, p in qp)
    ok = ok and drift <= 1e-10
    # algebraic relations and the cubic invariant, pointwise on random states
    rng = np.random.default_rng(106)
    for _ in range(200):
        s = OscState(*rng.uniform(-2, 2, 2), float(rng.uniform(0.3, 3)))
        a = aux_algebraic(s)
        rt = math.sqrt(2 * energy(s.q, s.p, s.omega))
        scale = 1.0 + rt
        ok = ok and abs(a.a_plus ** 2 + a.a_minus ** 2 - 2 * rt) <= 1e-10 * scale
        ok = ok and abs(a.a_plus * a.a_minus - s.omega * s.q) <= 1e-10 * scale
        ok = ok and abs(a.a_plus ** 2 - a.a_minus ** 2 - 2 * s.p) <= 1e-10 * scale
        want = 2.0 * (2 * energy(s.q, s.p, s.omega)) ** 1.5
        ok = ok and abs(a.d_plus ** 2 + a.d_minus ** 2 - want) <= 1e-9 * (1 + want)
        trl2 = float(np.trace(lax_matrices(s)[0].coeffs @ lax_matrices(s)[0].coeffs))
        h = energy(s.q, s.p, s.omega)
        ok = ok and abs(trl2 - 4 * h) <= 1e-12 * (1 + 4 * h)
    # Frobenius norm of the closed-form trajectory is constant
    params = SolutionParams(rng.uniform(-1, 1, 8))
    ts = np.linspace(0.0, TWO_PI, 2001)
    mu = closed_form_path(aux_exact_flow(aux_algebraic(CANONICAL), 1.0, ts), params.values)
    norms = np.linalg.norm(mu, axis=1)
    ok = ok and np.abs(norms - norms[0]).max() <= 1e-8
    report(6, "conservation suite", ok)


def test_criterion_7_transport_equation():
    """X(mu) = [M, mu] exactly for the closed form along Hamilton's field X,
    and not along a detour."""
    rng = np.random.default_rng(107)
    ok = True
    for omega in OMEGAS:
        for ap, am in rational_points(seed=107):
            c = rng.integers(-9, 10, 8)
            ok = ok and not any(transport_residual(omega, ap, am, c))
            ok = ok and any(transport_residual(omega, ap, am, c, detour(omega)))
    report(7, "transport equation", ok)


def test_criterion_8_cli_contract(tmp_path, capsys):
    ok = True
    header = (
        "t,q,p,H,Aplus,Aminus,Dplus,Dminus,"
        "mu111,mu112,mu121,mu122,mu211,mu212,mu221,mu222,lax_residual"
    )
    # determinism and exact header for file output
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "omega": 1.0, "q0": 0.0, "p0": 2.0, "t_end": 3.0, "steps": 60, "seed": 3,
    }))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    ok = ok and cli.main(["simulate", "--config", str(sim_cfg), "--out", str(out_a)]) == 0
    ok = ok and cli.main(["simulate", "--config", str(sim_cfg), "--out", str(out_b)]) == 0
    ok = ok and out_a.read_bytes() == out_b.read_bytes()
    ok = ok and out_a.read_text().split("\n", 1)[0] == header

    # golden configs exercising the three exit codes
    golden = {
        "pass.json": {"omega": 1.0, "q0": 0.0, "p0": 2.0, "t_end": TWO_PI,
                      "steps": 10000, "tol": 1e-7, "seed": 2026},
        "fail.json": {"omega": 1.0, "q0": 0.0, "p0": 2.0, "t_end": TWO_PI,
                      "steps": 2000, "tol": 1e-30, "seed": 2026},
        "bad.json": {"omega": 1.0, "q0": 0.0, "p0": 2.0, "t_end": TWO_PI,
                     "steps": 1, "tol": 1e-7, "seed": 2026},
    }
    for name, cfg in golden.items():
        (tmp_path / name).write_text(json.dumps(cfg))
    codes = [cli.main(["verify", str(tmp_path / name)]) for name in golden]
    capsys.readouterr()
    ok = ok and codes == [0, 1, 2]

    # axioms determinism, byte for byte
    argv = ["axioms", "--trials", "2", "--seed", "7"]
    code1 = cli.main(argv)
    text1 = capsys.readouterr().out
    code2 = cli.main(argv)
    text2 = capsys.readouterr().out
    ok = ok and code1 == code2 == 0 and text1 == text2
    report(8, "cli contract", ok)
