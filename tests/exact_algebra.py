"""Exact (``Fraction``) algebra behind the tests' proofs of the paper's laws.

Every law the package computes is polynomial, and at the omegas used here
the generators' floats are exact, so these identities hold with no
tolerance:

* ``fraction_matmul``, ``matvec`` and ``fraction_rank`` - products and
  rank of matrices of fractions;
* ``k_columns`` - K(C), read from the package's closed form;
* ``A2`` and ``R2`` - the Lax and rotation-law generators at omega = 2;
* ``rotation_chain`` - the rotation laws as Hamilton's flow seen through
  the aux map: its residuals at one point (A+, A-);
* ``transport_residual`` - X(mu) - [M, mu] for the closed form at one
  point, X a vector field on (q, p);
* ``OMEGAS`` and ``rational_points`` - where the last two are checked.
"""

from fractions import Fraction

import numpy as np

from operadlax import (
    AuxValues,
    SolutionParams,
    aux_generator,
    closed_form_mu,
    hamilton_generator,
    lax_generator,
)

# omega/2 and omega^2 are exact floats at these omegas, and, multiplied by
# omega, both sides of each chain identity are polynomials of degree <= 2
# in omega (the generators are omega/2 times a constant pattern and
# [[0, 1], [-omega^2, 0]]): three omegas cover every omega
OMEGAS = (Fraction(1, 2), Fraction(2), Fraction(3))


def fractions(matrix) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in np.asarray(matrix, dtype=float).tolist()]


def k_columns(c) -> list[list[Fraction]]:
    """K(C) as exact fractions, column j being the family at a = e_j."""
    params = SolutionParams(c)
    cols = [closed_form_mu(AuxValues(*np.eye(4)[j]), params).values for j in range(4)]
    return [[Fraction(cols[j][i]) for j in range(4)] for i in range(8)]


def fraction_matmul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def fraction_rank(rows) -> int:
    """Rank by Gauss-Jordan elimination in exact arithmetic."""
    rows, rank = [list(r) for r in rows], 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# at omega = 2 both generators have small integer entries, so their floats
# are exact; both are linear in omega, so an identity at 2 holds at every omega
A2 = fractions(lax_generator(2.0))
R2 = fractions(aux_generator(2.0))


def matvec(m, v) -> list[Fraction]:
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def rational_points(seed: int) -> list[tuple[Fraction, Fraction]]:
    """56 points (A+, A-): a 4 x 4 grid (a polynomial of degree <= 3 in each
    variable that vanishes on it is zero), then 40 random nonzero ones."""
    grid = [Fraction(-3, 2), Fraction(-1, 3), Fraction(1, 2), Fraction(2)]
    rng = np.random.default_rng(seed)
    points = [(x, y) for x in grid for y in grid]
    while len(points) < 56:
        num, den = rng.integers(-40, 41, 2), rng.integers(1, 13, 2)
        if num.any():
            points.append((Fraction(int(num[0]), int(den[0])), Fraction(int(num[1]), int(den[1]))))
    return points


def hamilton_field(omega: Fraction):
    """(q, p) -> hamilton_generator(omega) (q, p), exactly."""
    h = fractions(hamilton_generator(float(omega)))
    return lambda q, p: matvec(h, [q, p])


def aux_point(ap: Fraction, am: Fraction) -> list[Fraction]:
    """(A+, A-, D+, D-) with D+ + i D- = (A+ + i A-)^3 / 2."""
    return [ap, am, ap * (ap * ap - 3 * am * am) / 2, am * (3 * ap * ap - am * am) / 2]


def chain_jacobians(omega: Fraction, ap: Fraction, am: Fraction):
    """(q, p) = (A+ A- / omega, (A+^2 - A-^2) / 2), so that (A+ + i A-)^2 =
    2 (p + i omega q), and the Jacobians of (A+, A-) -> (q, p) and of
    (A+, A-) -> (D+, D-), the latter multiplication by 3 (A+ + i A-)^2 / 2."""
    q, p = ap * am / omega, (ap * ap - am * am) / 2
    j_qp = [[am / omega, ap / omega], [ap, -am]]
    re, im = 3 * (ap * ap - am * am) / 2, 3 * ap * am
    return (q, p), j_qp, [[re, -im], [im, re]]


def rotation_chain(omega: Fraction, ap: Fraction, am: Fraction, field=None) -> list[Fraction]:
    """The rate r = aux_generator(omega) a gives a = (A+, A-, D+, D-) at
    (A+, A-), pushed through the Jacobians: J_qp r[:2] - field(q, p) and
    J_D r[:2] - r[2:], with Hamilton's field by default.  Both vanish iff
    the rotation laws are Hamilton's flow seen through the aux map."""
    field = field or hamilton_field(omega)
    (q, p), j_qp, j_d = chain_jacobians(omega, ap, am)
    rate = matvec(fractions(aux_generator(float(omega))), aux_point(ap, am))
    return ([x - y for x, y in zip(matvec(j_qp, rate[:2]), field(q, p))]
            + [x - y for x, y in zip(matvec(j_d, rate[:2]), rate[2:])])


def transport_residual(omega: Fraction, ap: Fraction, am: Fraction, c, field=None):
    """X(mu) - [M, mu] for the closed form mu = K(C) a at (A+, A-), with X
    the field on (q, p) (Hamilton's by default): X moves (A+, A-) by the
    solution of J_qp X(A) = X(q, p), (D+, D-) by J_D X(A), and [M, mu] is
    lax_generator(omega) mu."""
    field = field or hamilton_field(omega)
    (q, p), ((j00, j01), (j10, j11)), j_d = chain_jacobians(omega, ap, am)
    fq, fp = field(q, p)
    det = j00 * j11 - j01 * j10  # -(A+^2 + A-^2) / omega: nonzero off the origin
    x_a = [(j11 * fq - j01 * fp) / det, (j00 * fp - j10 * fq) / det]
    k = k_columns(c)
    x_mu = matvec(k, x_a + matvec(j_d, x_a))
    bracket = matvec(fractions(lax_generator(float(omega))), matvec(k, aux_point(ap, am)))
    return [x - y for x, y in zip(x_mu, bracket)]
