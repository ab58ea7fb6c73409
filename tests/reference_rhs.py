"""Hand-expanded right-hand sides of the package's laws: the tests' oracles.

The package computes every law through its generator matrix
(``hamilton_generator``, ``aux_generator``, ``lax_generator``).  The forms
below write the same laws out by hand, independently of those matrices, so
that the tests can compare the generators against them.

* ``hamilton_rhs``  - Hamilton's equations, (p, -omega^2 q);
* ``aux_rhs``       - the rotation laws of (A+, A-, D+, D-);
* ``g_values``      - their residuals a_dot - R a for any (values, rates)
  pair, with R = ``aux_generator(omega)``;
* ``misrotated_flow`` - an aux flow that breaks the (D+, D-) law, for the
  mutant checks;
* ``_explicit_rhs`` and ``lax_rhs_explicit`` - the eight expanded ODEs of
  the operadic Lax equation d(mu)/dt = [M, mu] in dim 2;
* ``lax_rhs_bracket`` - [M, mu] through the abstract Gerstenhaber bracket;
* ``closed_form_reference`` - the closed-form family mu = K(C) a as eight
  sums of products C_i a_j, which the package forms as one matrix product;
* ``lax_generator_reference`` and ``aux_generator_reference`` - the two
  generators built from M = ``m_matrix(omega)`` on each call, the routes the
  package's constant patterns scaled by omega/2 replace bit for bit;
* ``aux_reference`` and ``assert_within_ulps`` - the principal aux seed
  (A+, A-) to 60 digits, and the ulp bound ``aux_algebraic`` is held to.
"""

import math
from dataclasses import astuple
from decimal import Decimal, localcontext

import numpy as np

from operadlax import (
    AuxValues,
    Operation,
    OscState,
    StructureConstants2,
    aux_generator,
    bracket,
    lax_rhs_index,
    m_matrix,
)
from operadlax.oscillator import _check_omega


def hamilton_rhs(s: OscState) -> tuple[float, float]:
    """(dq/dt, dp/dt) = (p, -omega^2 q)."""
    return (s.p, -s.omega * s.omega * s.q)


def aux_rhs(a: AuxValues, omega: float) -> AuxValues:
    """Exact time rates under the rotation laws: dA+- = -+(w/2) A-+, etc."""
    w = 0.5 * omega
    return AuxValues(
        -w * a.a_minus, w * a.a_plus, -3.0 * w * a.d_minus, 3.0 * w * a.d_plus
    )


def g_values(aux: AuxValues, aux_dot: AuxValues, omega: float) -> AuxValues:
    """Rotation-law residuals (G(A)+, G(A)-, G(D)+, G(D)-) of an arbitrary
    (values, rates) pair: aux_dot - R aux, with R = ``aux_generator(omega)``."""
    return AuxValues(
        *np.subtract(astuple(aux_dot), aux_generator(omega) @ astuple(aux))
    )


def misrotated_flow(d_rate: float):
    """``aux_exact_flow`` with (D+, D-) turning at d_rate * omega / 2 in
    place of 3 omega / 2: a wrong solution, to stand in for the flow."""
    def flow(a0: AuxValues, omega: float, t) -> AuxValues:
        x, y = 0.5 * omega * t, 0.5 * d_rate * omega * t
        c1, s1, c3, s3 = np.cos(x), np.sin(x), np.cos(y), np.sin(y)
        return AuxValues(a0.a_plus * c1 - a0.a_minus * s1, a0.a_minus * c1 + a0.a_plus * s1,
                         a0.d_plus * c3 - a0.d_minus * s3, a0.d_minus * c3 + a0.d_plus * s3)
    return flow


def lax_rhs_bracket(mu: Operation, m: Operation) -> Operation:
    """[M, mu] via the abstract Gerstenhaber bracket.

    Equals M(xy) - (Mx)y - x(My) on elements, since |M| = 0 makes the
    graded commutator an ordinary one.
    """
    return bracket(m, mu)


def _explicit_rhs(mu: np.ndarray, omega: float) -> np.ndarray:
    """The eight expanded ODE right-hand sides; mu is (..., 8)."""
    mu = np.asarray(mu, dtype=float)
    w = 0.5 * omega
    m111, m112, m121, m122, m211, m212, m221, m222 = np.moveaxis(mu, -1, 0)
    return np.stack(
        [
            -w * (m211 + m121 + m112),
            -w * (m212 + m122 - m111),
            -w * (m221 - m111 + m122),
            -w * (m222 - m112 - m121),
            w * (m111 - m221 - m212),
            w * (m112 - m222 + m211),
            w * (m121 + m211 - m222),
            w * (m122 + m212 + m221),
        ],
        axis=-1,
    )


def lax_rhs_explicit(mu: StructureConstants2, omega: float) -> StructureConstants2:
    """[M, mu] written out componentwise for dim 2.

    An independent route to the same right-hand side as ``lax_rhs_bracket``
    and ``lax_rhs_index``; the triple agreement is asserted by the tests.
    """
    _check_omega(omega)
    return StructureConstants2(_explicit_rhs(mu.values, omega))


def closed_form_reference(aux: AuxValues, c) -> np.ndarray:
    """The eight closed-form components, each a sum of products C_i a_j
    evaluated left to right; broadcasts over array aux values."""
    ap, am, dp, dm = aux.a_plus, aux.a_minus, aux.d_plus, aux.d_minus
    c1, c2, c3, c4, c5, c6, c7, c8 = c
    return np.stack(
        [
            c5 * am + c6 * ap + c7 * dm + c8 * dp,
            c1 * ap + c2 * am - c7 * dp + c8 * dm,
            -c1 * ap - c2 * am - c3 * ap - c4 * am - c5 * ap + c6 * am - c7 * dp + c8 * dm,
            -c3 * am + c4 * ap - c7 * dm - c8 * dp,
            c3 * ap + c4 * am - c7 * dp + c8 * dm,
            c1 * am - c2 * ap + c3 * am - c4 * ap + c5 * am + c6 * ap - c7 * dm - c8 * dp,
            -c1 * am + c2 * ap - c7 * dm - c8 * dp,
            -c5 * ap + c6 * am + c7 * dp - c8 * dm,
        ],
        axis=-1,
    )


def lax_generator_reference(omega: float) -> np.ndarray:
    """``lax_rhs_index`` on the eight basis tensors with M = ``m_matrix(omega)``."""
    basis = np.eye(8).reshape(8, 2, 2, 2)
    return lax_rhs_index(basis, m_matrix(omega).coeffs).reshape(8, 8).T


def aux_generator_reference(omega: float) -> np.ndarray:
    """M and 3 M on the diagonal: ``np.kron(diag(1, 3), M)``."""
    return np.kron(np.diag([1.0, 3.0]), m_matrix(omega).coeffs)


def aux_reference(q, p, omega):
    """(A+, A-) of the principal root sqrt(2 (p + i omega q)) to 60 digits,
    rounded once.  The larger of |A+| and |A-| is sqrt(rt + |p|), with
    rt = sqrt(2H), and the other is omega q over it: no digit cancels, at
    any ratio of p to omega q."""
    with localcontext() as ctx:
        ctx.prec = 60
        wq, p = Decimal(omega) * Decimal(q), Decimal(p)
        big = ((p * p + wq * wq).sqrt() + abs(p)).sqrt()
        if p >= 0:
            return float(big), float(wq / big)
        big = -big if wq < 0 else big  # A- takes the sign of omega q
        return float(wq / big), float(big)


def assert_within_ulps(a, q, p, omega, ulps=4):
    want = aux_reference(q, p, omega)
    for got, ref in zip((a.a_plus, a.a_minus), want):
        assert abs(got - ref) <= ulps * math.ulp(ref), (q, p, omega, got, ref)
