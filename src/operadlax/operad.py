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

All compositions run in one private kernel on raw coefficient tensors.  A
public function does its kernel work under one ``np.errstate`` and checks
finiteness once, on its result or on the residual before the norm: every
operand entry multiplies into some output entry and inf * 0 is NaN, so a
non-finite intermediate always reaches that final tensor.
"""

from __future__ import annotations

import functools

import numpy as np

from .multilinear import Operation, _check_finite, _norm

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


def _compose(fc: np.ndarray, gc: np.ndarray, i: int) -> np.ndarray:
    """f o_i g on coefficient tensors, as a fresh C-contiguous array: the one
    np.dot call that numpy's tensor contraction over axes ([i + 1], [0])
    makes, on the same operands, without its Python-level argument handling."""
    d, m, n = fc.shape[0], fc.ndim - 1, gc.ndim - 1
    if gc.shape[0] != d:
        raise ValueError(f"dim mismatch: {d} vs {gc.shape[0]}")
    perm_f, perm_out = _perms(m, n, i)
    res = np.dot(fc.transpose(perm_f).reshape(-1, d), gc.reshape(d, -1))
    # The product's axes are f's kept axes then g's inputs; slot g's in at i + 1.
    res = res.reshape((d,) * (m + n)).transpose(perm_out)
    if _sign(i * (n - 1)) < 0:
        return np.negative(res, order="C")
    return np.ascontiguousarray(res)


@functools.lru_cache(maxsize=None)
def _perms(m: int, n: int, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis permutations of _compose for degrees m, n and slot i:
    f's input axis i + 1 moved last, and the product's axes reordered so
    that g's n inputs sit at i + 1."""
    perm_f = (*range(i + 1), *range(i + 2, m + 1), i + 1)
    perm_out = (*range(i + 1), *range(m, m + n), *range(i + 1, m))
    return perm_f, perm_out


def _total(fc: np.ndarray, gc: np.ndarray) -> np.ndarray:
    acc = _compose(fc, gc, 0)
    for i in range(1, fc.ndim - 1):
        acc += _compose(fc, gc, i)
    return acc


def _bracket(fc: np.ndarray, gc: np.ndarray) -> np.ndarray:
    s = _sign((fc.ndim - 2) * (gc.ndim - 2))
    return 1.0 * _total(fc, gc) + -float(s) * _total(gc, fc)  # linear_comb's expression


def partial_compose(f: Operation, g: Operation, i: int) -> Operation:
    """f o_i g: contract g into input slot i of f, sign (-1)^(i*|g|)."""
    if not 0 <= i <= f.reduced_degree:
        raise ValueError(
            f"slot {i} out of range 0..{f.reduced_degree} for a degree-"
            f"{f.degree} operation"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        res = _compose(f.coeffs, g.coeffs, i)
    return Operation(f.dim, f.degree + g.degree - 1, res)


def total_compose(f: Operation, g: Operation) -> Operation:
    """f • g = sum of f o_i g over all slots i = 0..|f|."""
    with np.errstate(over="ignore", invalid="ignore"):
        res = _total(f.coeffs, g.coeffs)
    return Operation(f.dim, f.degree + g.degree - 1, res)


def bracket(f: Operation, g: Operation) -> Operation:
    """Gerstenhaber bracket [f, g] = f • g - (-1)^(|f||g|) g • f.

    For degree-1 operations this is the ordinary matrix commutator.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        res = _bracket(f.coeffs, g.coeffs)
    return Operation(f.dim, f.degree + g.degree - 1, res)


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
    hc, fc, gc = h.coeffs, f.coeffs, g.coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = _compose(_compose(hc, fc, i), gc, j)
        if j <= i - 1:
            rhs = _compose(_compose(hc, gc, j), fc, i + gr)
            s = _sign(fr * gr)
        elif j <= i + fr:
            rhs = _compose(hc, _compose(fc, gc, j - i), i)
            s = 1
        else:
            rhs = _compose(_compose(hc, gc, j - fr), fc, i)
            s = _sign(fr * gr)
        return float(_norm(_check_finite(lhs - s * rhs)))


def unit_residual(f: Operation) -> float:
    """max(||id o_0 f - f||, ||f o_i id - f|| for all i); exactly 0 here."""
    fc, ident = f.coeffs, np.eye(f.dim)
    # compositions with the identity are exact, so nothing here can overflow
    diffs = [_compose(ident, fc, 0)] + [_compose(fc, ident, i) for i in range(f.degree)]
    return max(float(_norm(r - fc)) for r in diffs)


def antisymmetry_residual(f: Operation, g: Operation) -> float:
    """Frobenius norm of [f, g] + (-1)^(|f||g|) [g, f]; exactly 0 here."""
    s = _sign(f.reduced_degree * g.reduced_degree)
    with np.errstate(over="ignore", invalid="ignore"):
        res = _bracket(f.coeffs, g.coeffs) + s * _bracket(g.coeffs, f.coeffs)
        return float(_norm(_check_finite(res)))


def jacobi_residual(f: Operation, g: Operation, h: Operation) -> float:
    """Frobenius norm of the signed cyclic sum of double brackets.

    (-1)^(|f||h|) [[f,g],h] + (-1)^(|g||f|) [[g,h],f] + (-1)^(|h||g|) [[h,f],g]
    vanishes identically (graded Jacobi identity); the returned residual is
    pure rounding noise.
    """
    fr, gr, hr = f.reduced_degree, g.reduced_degree, h.reduced_degree
    fc, gc, hc = f.coeffs, g.coeffs, h.coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        res = (
            _sign(fr * hr) * _bracket(_bracket(fc, gc), hc)
            + _sign(gr * fr) * _bracket(_bracket(gc, hc), fc)
            + _sign(hr * gr) * _bracket(_bracket(hc, fc), gc)
        )
        return float(_norm(_check_finite(res)))
