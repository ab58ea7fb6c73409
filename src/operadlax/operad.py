"""Partial/total compositions and Gerstenhaber brackets of multilinear operations.

The endomorphism operad on V = R^d: degree-n part is the space of
multilinear maps V^(n) -> V.  Partial composition plugs g into input slot
i of f (slots are 0-based, 0 <= i <= |f|) with the sign (-1)^(i*|g|),
where |f| = degree - 1 is the reduced degree:

    (f o_i g)(x_1, ..) = (-1)^(i|g|) f(x_1, .., x_i, g(..), .., x_{m+n-1})

Total composition sums the partial ones, f • g = sum_i f o_i g, and the
Gerstenhaber bracket is the graded commutator

    [f, g] = f • g - (-1)^(|f||g|) g • f.

Every axiom of the composition calculus (the three associativity-relation
cases, the unit laws, graded antisymmetry, the graded Jacobi identity) is
exposed here as a numerically checkable residual rather than assumed.  All
signs are computed by integer parity, never floating-point powers.
"""

from __future__ import annotations

import functools

import numpy as np

from .multilinear import Operation, identity_op, linear_comb

__all__ = [
    "partial_compose",
    "total_compose",
    "bracket",
    "composition_relation_residual",
    "unit_residual",
    "antisymmetry_residual",
    "jacobi_residual",
]


def _sign(k: int) -> int:
    return -1 if k & 1 else 1


def partial_compose(f: Operation, g: Operation, i: int) -> Operation:
    """f o_i g: contract g into input slot i of f, sign (-1)^(i*|g|)."""
    if f.dim != g.dim:
        raise ValueError(f"dim mismatch: {f.dim} vs {g.dim}")
    if not 0 <= i <= f.reduced_degree:
        raise ValueError(
            f"slot {i} out of range 0..{f.reduced_degree} for a degree-"
            f"{f.degree} operation"
        )
    m, n, d = f.degree, g.degree, f.dim
    # The one np.dot call that numpy's tensor contraction over axes
    # ([i + 1], [0]) makes, on the same transposed and reshaped operands, so
    # the same bytes without its Python-level argument handling.  Overflow
    # is reported by the finite check in _trusted.
    perm_f, perm_out = _perms(m, n, i)
    with np.errstate(over="ignore", invalid="ignore"):
        res = np.dot(f.coeffs.transpose(perm_f).reshape(-1, d), g.coeffs.reshape(d, -1))
    # The product's axes are f's kept axes then g's inputs; slot g's in at i + 1.
    res = res.reshape((d,) * (m + n)).transpose(perm_out)
    if _sign(i * g.reduced_degree) < 0:
        res = np.negative(res, order="C")
    else:
        res = np.ascontiguousarray(res)
    return Operation._trusted(d, m + n - 1, res)


@functools.lru_cache(maxsize=None)
def _perms(m: int, n: int, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis permutations of partial_compose for degrees m, n and slot i:
    f's input axis i + 1 moved last, and the product's axes reordered so
    that g's n inputs sit at i + 1."""
    perm_f = (*range(i + 1), *range(i + 2, m + 1), i + 1)
    perm_out = (*range(i + 1), *range(m, m + n), *range(i + 1, m))
    return perm_f, perm_out


def total_compose(f: Operation, g: Operation) -> Operation:
    """f • g = sum of f o_i g over all slots i = 0..|f|."""
    if f.dim != g.dim:
        raise ValueError(f"dim mismatch: {f.dim} vs {g.dim}")
    acc = partial_compose(f, g, 0).coeffs.copy()
    # an overflowing sum is reported by the finite check in _trusted
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, f.degree):
            acc += partial_compose(f, g, i).coeffs
    return Operation._trusted(f.dim, f.degree + g.degree - 1, acc)


def bracket(f: Operation, g: Operation) -> Operation:
    """Gerstenhaber bracket [f, g] = f • g - (-1)^(|f||g|) g • f.

    For degree-1 operations this is the ordinary matrix commutator.
    """
    s = _sign(f.reduced_degree * g.reduced_degree)
    return linear_comb(1.0, total_compose(f, g), -float(s), total_compose(g, f))


def composition_relation_residual(
    h: Operation, f: Operation, g: Operation, i: int, j: int
) -> float:
    """Frobenius norm of LHS - RHS of the composition relation for (i, j).

    The relation rewrites (h o_i f) o_j g according to which slot range j
    falls in:

        j <= i - 1:          (-1)^(|f||g|) (h o_j g) o_{i+|g|} f
        i <= j <= i + |f|:   h o_i (f o_{j-i} g)
        i + deg f <= j:      (-1)^(|f||g|) (h o_{j-|f|} g) o_i f

    Zero (up to rounding) in the endomorphism operad.
    """
    hr, fr, gr = h.reduced_degree, f.reduced_degree, g.reduced_degree
    if not 0 <= i <= hr:
        raise ValueError(f"i = {i} outside slot range 0..{hr} of h")
    if not 0 <= j <= hr + fr:
        raise ValueError(
            f"j = {j} outside all case ranges: 0..{i - 1}, {i}..{i + fr}, "
            f"{i + fr + 1}..{hr + fr}"
        )
    lhs = partial_compose(partial_compose(h, f, i), g, j)
    if j <= i - 1:
        rhs = partial_compose(partial_compose(h, g, j), f, i + gr)
        s = _sign(fr * gr)
    elif j <= i + fr:
        rhs = partial_compose(h, partial_compose(f, g, j - i), i)
        s = 1
    else:
        rhs = partial_compose(partial_compose(h, g, j - fr), f, i)
        s = _sign(fr * gr)
    return float(np.linalg.norm(lhs.coeffs - s * rhs.coeffs))


def unit_residual(f: Operation) -> float:
    """max(||id o_0 f - f||, ||f o_i id - f|| for all i); exactly 0 here."""
    ident = identity_op(f.dim)
    worst = float(np.linalg.norm(partial_compose(ident, f, 0).coeffs - f.coeffs))
    for i in range(f.degree):
        r = float(np.linalg.norm(partial_compose(f, ident, i).coeffs - f.coeffs))
        worst = max(worst, r)
    return worst


def antisymmetry_residual(f: Operation, g: Operation) -> float:
    """Frobenius norm of [f, g] + (-1)^(|f||g|) [g, f]; exactly 0 here."""
    s = _sign(f.reduced_degree * g.reduced_degree)
    return float(np.linalg.norm(bracket(f, g).coeffs + s * bracket(g, f).coeffs))


def jacobi_residual(f: Operation, g: Operation, h: Operation) -> float:
    """Frobenius norm of the signed cyclic sum of double brackets.

    (-1)^(|f||h|) [[f,g],h] + (-1)^(|g||f|) [[g,h],f] + (-1)^(|h||g|) [[h,f],g]
    vanishes identically (graded Jacobi identity); the returned residual is
    pure rounding noise.
    """
    fr, gr, hr = f.reduced_degree, g.reduced_degree, h.reduced_degree
    total = (
        _sign(fr * hr) * bracket(bracket(f, g), h).coeffs
        + _sign(gr * fr) * bracket(bracket(g, h), f).coeffs
        + _sign(hr * gr) * bracket(bracket(h, f), g).coeffs
    )
    return float(np.linalg.norm(total))
