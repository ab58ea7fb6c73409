"""Hand-expanded right-hand sides of the package's laws: the tests' oracles.

The package computes every law through its generator matrix
(``hamilton_generator``, ``aux_generator``, ``lax_generator``).  The forms
below write the same laws out by hand, independently of those matrices, so
that the tests can compare the generators against them.

* ``hamilton_rhs``  - Hamilton's equations, (p, -omega^2 q);
* ``aux_rhs``       - the rotation laws of (A+, A-, D+, D-);
* ``_explicit_rhs`` and ``lax_rhs_explicit`` - the eight expanded ODEs of
  the operadic Lax equation d(mu)/dt = [M, mu] in dim 2;
* ``lax_rhs_bracket`` - [M, mu] through the abstract Gerstenhaber bracket.
"""

import numpy as np

from operadlax import AuxValues, Operation, OscState, StructureConstants2, bracket
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
