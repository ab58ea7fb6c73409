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
signs are computed by integer parity, never floating-point powers, and
applied by negation or subtraction, so the kernel runs unchanged on integer
tensors.

All compositions run in one private kernel on flattened coefficient
tensors.  It composes a stack of left operands, at every slot of a range,
with one right operand (or a stack of equal-degree ones) in one matrix
product.  A cached index plan per (d, degree) gathers the left operands'
entries, slot axis last, into rows of length d: the operand layout of a
tensor contraction over that axis.  A cached plan per (d, degrees) then
takes each output entry from the product, at every size.  Every output
entry is therefore the same length-d dot product of the same operands as a
one-composition call makes, and the signs are applied to the placed
blocks.

The composition relation is written once, in ``_relation_residuals``,
which takes the grid of (i, j) in chunks: the whole grid of a triple, or
the one-cell chunk of a one-pair call.  Every axiom residual reduces
through ``_residual_norms``: a batched dot of each residual row with
itself.  A public function does its kernel work under one ``np.errstate``
and checks finiteness once, on its result or on each residual before the
norm: every operand entry multiplies into some output entry and
inf * 0 is NaN, so a non-finite intermediate always reaches that final
tensor.
"""

from __future__ import annotations

import math

import numpy as np

from .multilinear import Operation, _check_finite, _is_int, _norm

__all__ = [
    "partial_compose",
    "total_compose",
    "bracket",
    "composition_relation_residual",
    "composition_relation_residuals",
    "unit_residual",
    "antisymmetry_residual",
    "jacobi_residual",
]

# index plans, built on first use and kept: slot rows per (d, degree),
# placements per (d, left degree, right degree), and the relation grid's
# right-hand-side rows per chunk of the grid
_SLOT_ROWS: dict[tuple[int, ...], np.ndarray] = {}
_PLACEMENTS: dict[tuple[int, ...], np.ndarray] = {}
_RELATION_ROWS: dict[tuple[int, ...], np.ndarray] = {}

# the most entries of the arrays that one chunk of the relation grid makes
_CHUNK_SIZE = 16384


def _sign(k: int) -> int:
    return -1 if k & 1 else 1


def _odd_slots_negated(n: int) -> bool:
    """Whether the sign (-1)^(i|y|) of o_i with a degree-n right operand y
    is -1 at the odd slots i (it is +1 at the even ones)."""
    return _sign(n - 1) < 0


def _frozen(plan: list) -> np.ndarray:
    plan = np.array(plan)
    plan.setflags(write=False)
    return plan


def _slot_rows(d: int, m: int) -> np.ndarray:
    """Per slot i, the flat positions of a degree-m tensor's entries with
    input axis i + 1 moved last: shape (m, d^(m+1))."""
    plan = _SLOT_ROWS.get((d, m))
    if plan is None:
        flat = np.arange(d ** (m + 1)).reshape((d,) * (m + 1))
        plan = _SLOT_ROWS[d, m] = _frozen([np.moveaxis(flat, i + 1, -1).ravel() for i in range(m)])
    return plan


def _placements(d: int, m: int, n: int) -> np.ndarray:
    """Per slot i, the position in the product of all m slots, shaped
    (m, d^m, d^n), of each entry of the composed tensor, whose right
    operand's inputs go between the left's first i + 1 axes and the rest:
    shape (m, d^(m+n))."""
    plan = _PLACEMENTS.get((d, m, n))
    if plan is None:
        cols = d ** n
        flat = np.arange(m * d ** (m + n)).reshape(m, -1, cols)
        plan = _PLACEMENTS[d, m, n] = _frozen(
            [flat[i].reshape(d ** (i + 1), -1, cols).transpose(0, 2, 1).ravel() for i in range(m)])
    return plan


def _rows(x: np.ndarray, d: int, m: int, slots: range | None = None) -> np.ndarray:
    """The stack x of flattened degree-m tensors, shaped (B, d^(m+1)), with
    input axis i + 1 of each moved last and split off, for every slot i in
    ``slots`` (all by default): (B * S * d^m, d)."""
    plan = _slot_rows(d, m)
    if slots is not None and len(slots) < m:
        plan = plan[slots.start:slots.stop]
    return x.take(plan, axis=1).reshape(-1, d)


def _product(rows: np.ndarray, right: np.ndarray) -> np.ndarray:
    # numpy's dot of two (1, 1) arrays is one multiplication, which keeps the
    # sign of a zero product; a BLAS call on more rows adds it to +0.0
    return rows * right if len(right) == 1 else rows.dot(right)


def _placed(rows: np.ndarray, y: np.ndarray, d: int, m: int, n: int, slots: range) -> np.ndarray:
    """x_b o_i y_k without its sign, from the rows of the degree-m left
    operands x_b at the slots i and the stack y of flattened degree-n
    tensors, shaped (K, d^(n+1)): (K * B, S, d^(m+n)), k outer."""
    K = len(y)
    right = y.reshape(d, -1) if K == 1 else y.reshape(K, d, -1).transpose(1, 0, 2).reshape(d, -1)
    prod = _product(rows, right)
    if K > 1:
        prod = prod.reshape(-1, K, d ** n).transpose(1, 0, 2)
    plan = _placements(d, m, n)
    if len(slots) < m:
        plan = plan[slots.start:slots.stop] - slots.start * d ** (m + n)
    return prod.reshape(-1, plan.size).take(plan, axis=1)


def _signed(out: np.ndarray, n: int, slots: range, s: int = 1) -> np.ndarray:
    """``out`` from ``_placed``, each slot i multiplied in place by the sign
    s (-1)^(i|y|) for a degree-n right operand y."""
    if _odd_slots_negated(n):
        negated = out[:, (slots.start + (s > 0)) % 2::2]
    elif s < 0:
        negated = out
    else:
        return out
    np.negative(negated, out=negated)
    return out


def _compose(x: np.ndarray, y: np.ndarray, d: int, m: int, n: int, slots: range | None = None,
             s: int = 1) -> np.ndarray:
    """s x_b o_i y_k for the stacks x of degree-m and y of degree-n
    flattened tensors and every slot i in ``slots`` (all by default):
    (K * B, S, d^(m+n)), k outer."""
    slots = range(m) if slots is None else slots
    return _signed(_placed(_rows(x, d, m, slots), y, d, m, n, slots), n, slots, s)


def _total(rows: np.ndarray, y: np.ndarray, d: int, m: int, n: int) -> np.ndarray:
    """x • y from the rows of one degree-m tensor x and one flattened
    degree-n tensor y: the partial compositions summed in slot order."""
    parts = _product(rows, y.reshape(d, -1)).take(_placements(d, m, n))
    negated, acc = _odd_slots_negated(n), parts[0]
    for i in range(1, m):
        acc = acc - parts[i] if negated and i & 1 else acc + parts[i]
    return acc


def _graded_difference(a: np.ndarray, b: np.ndarray, s: int) -> np.ndarray:
    """a - s b for a sign s."""
    return a - b if s > 0 else a + b


def _bracket(x, xrows, y, yrows, d: int, m: int, n: int) -> np.ndarray:
    """[x, y] from the flattened entries and the rows of a degree-m x and
    a degree-n y."""
    fg, gf = _total(xrows, y, d, m, n), _total(yrows, x, d, n, m)
    return _graded_difference(fg, gf, _sign((m - 1) * (n - 1)))


def _relation_parts(fm: int, i0: int, i1: int, j0: int, j1: int) -> tuple[range, range, range]:
    """The right-hand sides that the chunk i0 <= i < i1, j0 <= j < j1 of
    the relation grid composes: the b of (h o_b g) o_x f with x = i + |g|
    (first case), the k of h o_i (f o_k g), and the b of (h o_b g) o_x f
    with x = i (third case)."""
    return (range(j0, max(min(j1, i1 - 1), j0)),
            range(max(j0 - i1 + 1, 0), min(j1 - i0, fm)),
            range(max(j0 - fm + 1, i0 + 1), max(j1 - fm + 1, i0 + 1)))


def _relation_rows(fm: int, i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
    """For each (i, j) of the chunk, in loop order, the row of its
    right-hand side among the chunk's stacked (h o_b g) o_x f of the first
    case, b outer, then h o_i (f o_k g), k outer, then (h o_b g) o_x f of
    the third case.  For a chunk of one row i that stack is in loop order."""
    key = (fm, i0, i1, j0, j1)
    plan = _RELATION_ROWS.get(key)
    if plan is None:
        first, mid, third = _relation_parts(*key)
        n, rows = i1 - i0, []
        for i in range(i0, i1):
            for j in range(j0, j1):
                if j < i:
                    row = j - first.start
                elif j < i + fm:
                    row = len(first) + j - i - mid.start
                else:
                    row = len(first) + len(mid) + j - fm + 1 - third.start
                rows.append(row * n + i - i0)
        plan = _RELATION_ROWS[key] = _frozen(rows)
    return plan


def _relation_chunks(d: int, hm: int, fm: int, gm: int) -> list[tuple[int, int, int, int]]:
    """The relation grid as chunks (i0, i1, j0, j1) of whole rows i that
    keep each chunk's arrays under ``_CHUNK_SIZE`` entries, or of parts of
    one row where a row is larger."""
    width, size = hm + fm - 1, d ** (hm + fm + gm - 1)
    if width * size <= _CHUNK_SIZE:
        step = _CHUNK_SIZE // (width * size)
        return [(i, min(i + step, hm), 0, width) for i in range(0, hm, step)]
    step = max(1, _CHUNK_SIZE // size)
    return [(i, i + 1, j, min(j + step, width)) for i in range(hm) for j in range(0, width, step)]


def _relation_residuals(h, f, g, d: int, hm: int, fm: int, gm: int,
                        chunks: list[tuple[int, int, int, int]] | None = None):
    """LHS - RHS of the composition relation of the flattened degree-hm,
    fm and gm tensors h, f and g: for each chunk (i0, i1, j0, j1) of
    ``chunks`` (by default the whole grid, from ``_relation_chunks``), its
    residual tensors, one per row, (i, j) in loop order."""
    every, width, hsize, size = range(hm), hm + fm - 1, d ** hm, d ** (hm + fm + gm - 1)
    hrows = _rows(h, d, hm)
    hof = _signed(_placed(hrows, f, d, hm, fm, every), fm, every)[0]
    fog = _compose(f, g, d, fm, gm)[0]
    if hm > 1:  # the first and third cases compose h o_b g with f
        hog = _signed(_placed(hrows, g, d, hm, gm, every), gm, every)[0]
    s = _sign((fm - 1) * (gm - 1))
    for i0, i1, j0, j1 in chunks or _relation_chunks(d, hm, fm, gm):
        first, mid, third = _relation_parts(fm, i0, i1, j0, j1)
        part = range(i0, i1)
        rhs = []
        if first:
            shifted = range(i0 + gm - 1, i1 + gm - 1)
            rhs.append(_compose(hog[first.start:first.stop], f, d, hm + gm - 1, fm, shifted, s))
        if mid:
            rows = hrows[i0 * hsize:i1 * hsize]
            rhs.append(_signed(_placed(rows, fog[mid.start:mid.stop], d, hm, fm + gm - 1, part),
                               fm + gm - 1, part))
        if third:
            rhs.append(_compose(hog[third.start:third.stop], f, d, hm + gm - 1, fm, part, s))
        rhs = np.concatenate(rhs).reshape(-1, size) if len(rhs) > 1 else rhs[0].reshape(-1, size)
        if i1 - i0 > 1:  # one row's right-hand sides are stacked in loop order
            rhs = rhs[_relation_rows(fm, i0, i1, j0, j1)]
        yield _compose(hof[i0:i1], g, d, width, gm, range(j0, j1)).reshape(-1, size) - rhs


def _jacobi(f: np.ndarray, g: np.ndarray, h: np.ndarray, d: int, fm: int, gm: int, hm: int):
    """The signed cyclic sum of double brackets of flattened degree-fm, gm
    and hm tensors."""
    ops = [(x, _rows(x, d, m), m) for x, m in ((f, fm), (g, gm), (h, hm))]
    terms = []
    for (x, xr, xm), (y, yr, ym), (z, zr, zm) in (ops, ops[1:] + ops[:1], ops[2:] + ops[:2]):
        inner, im = _bracket(x, xr, y, yr, d, xm, ym)[None], xm + ym - 1
        outer = _bracket(inner, _rows(inner, d, im), z, zr, d, im, zm)
        terms.append(_sign((xm - 1) * (zm - 1)) * outer)
    return terms[0] + terms[1] + terms[2]


def _residual_norms(res: np.ndarray) -> list[float]:
    """``float(_norm(r))`` for each row r of ``res`` after its finite check:
    a row's dot product with itself is finite only if its entries are, and
    its square root is the norm unless the squares overflowed."""
    # numpy's dot of each row with itself, the dot that np.linalg.norm takes
    squares = np.matmul(res[:, None, :], res[:, :, None]).ravel().tolist()
    return [math.sqrt(sq) if math.isfinite(sq) else float(_norm(_check_finite(res[k])))
            for k, sq in enumerate(squares)]


def _dim(*ops: Operation) -> int:
    """The common dim of the operations."""
    for op in ops[1:]:
        if op.dim != ops[0].dim:
            raise ValueError(f"dim mismatch: {ops[0].dim} vs {op.dim}")
    return ops[0].dim


def _check_slot(name: str, k) -> None:
    if not _is_int(k):
        raise ValueError(f"{name} must be an integer, got {k!r}")


def _flat(op: Operation) -> np.ndarray:
    return op.coeffs.reshape(1, -1)


def _composed(res: np.ndarray, f: Operation, g: Operation) -> Operation:
    degree = f.degree + g.degree - 1
    return Operation(f.dim, degree, res.reshape((f.dim,) * (degree + 1)))


def partial_compose(f: Operation, g: Operation, i: int) -> Operation:
    """f o_i g: contract g into input slot i of f, sign (-1)^(i*|g|)."""
    _check_slot("slot", i)
    if not 0 <= i <= f.reduced_degree:
        raise ValueError(
            f"slot {i} out of range 0..{f.reduced_degree} for a degree-"
            f"{f.degree} operation"
        )
    d = _dim(f, g)
    with np.errstate(over="ignore", invalid="ignore"):
        res = _compose(_flat(f), _flat(g), d, f.degree, g.degree, range(i, i + 1))
    return _composed(res, f, g)


def total_compose(f: Operation, g: Operation) -> Operation:
    """f • g = sum of f o_i g over all slots i = 0..|f|."""
    d, x = _dim(f, g), _flat(f)
    with np.errstate(over="ignore", invalid="ignore"):
        res = _total(_rows(x, d, f.degree), _flat(g), d, f.degree, g.degree)
    return _composed(res, f, g)


def bracket(f: Operation, g: Operation) -> Operation:
    """Gerstenhaber bracket [f, g] = f • g - (-1)^(|f||g|) g • f.

    For degree-1 operations this is the ordinary matrix commutator.
    """
    d, x, y = _dim(f, g), _flat(f), _flat(g)
    with np.errstate(over="ignore", invalid="ignore"):
        res = _bracket(x, _rows(x, d, f.degree), y, _rows(y, d, g.degree), d, f.degree, g.degree)
    return _composed(res, f, g)


def composition_relation_residual(
    h: Operation, f: Operation, g: Operation, i: int, j: int
) -> float:
    """Frobenius norm of LHS - RHS of the composition relation for (i, j).

    The relation rewrites (h o_i f) o_j g according to which slot range j
    falls in:

        j <= i - 1:          (-1)^(|f||g|) (h o_j g) o_{i+|g|} f
        i <= j <= i + |f|:   h o_i (f o_{j-i} g)
        i + deg f <= j:      (-1)^(|f||g|) (h o_{j-|f|} g) o_i f

    Zero (up to rounding) in the endomorphism operad.  This is the cell
    (i, j) of ``composition_relation_residuals``, from the same kernel.
    """
    _check_slot("i", i)
    _check_slot("j", j)
    hr, fr = h.reduced_degree, f.reduced_degree
    if not 0 <= i <= hr:
        raise ValueError(f"i = {i} outside slot range 0..{hr} of h")
    if not 0 <= j <= hr + fr:
        raise ValueError(
            f"j = {j} outside all case ranges: 0..{i - 1}, {i}..{i + fr}, "
            f"{i + fr + 1}..{hr + fr}"
        )
    d = _dim(h, f, g)
    with np.errstate(over="ignore", invalid="ignore"):
        (res,) = _relation_residuals(_flat(h), _flat(f), _flat(g), d, h.degree, f.degree,
                                     g.degree, [(i, i + 1, j, j + 1)])
        return _residual_norms(res)[0]


def composition_relation_residuals(h: Operation, f: Operation, g: Operation) -> list[float]:
    """``composition_relation_residual(h, f, g, i, j)`` for every i in
    0..|h| and j in 0..|h| + |f|, i outer: the whole relation grid of a
    triple from a few stacked products.  An overflow raises the error of
    the first (i, j) in that order whose residual has a non-finite entry."""
    d, hm, fm, gm = _dim(h, f, g), h.degree, f.degree, g.degree
    with np.errstate(over="ignore", invalid="ignore"):
        chunks = _relation_residuals(_flat(h), _flat(f), _flat(g), d, hm, fm, gm)
        return [norm for res in chunks for norm in _residual_norms(res)]


def unit_residual(f: Operation) -> float:
    """max(||id o_0 f - f||, ||f o_i id - f|| for all i); exactly 0 here."""
    d, x, ident = f.dim, _flat(f), np.eye(f.dim).reshape(1, -1)
    # compositions with the identity are exact, so nothing here can overflow
    composed = np.concatenate((_compose(ident, x, d, 1, f.degree)[0],
                               _compose(x, ident, d, f.degree, 1)[0]))
    return max(_residual_norms(composed - x))


def antisymmetry_residual(f: Operation, g: Operation) -> float:
    """Frobenius norm of [f, g] + (-1)^(|f||g|) [g, f]: 0.0 for any finite
    operands, rounding being sign-symmetric, so it cannot catch a dropped sign
    (``jacobi_residual`` and test_kernel_residuals_vanish_exactly_on_integers do)."""
    d, m, n, x, y = _dim(f, g), f.degree, g.degree, _flat(f), _flat(g)
    s = _sign(f.reduced_degree * g.reduced_degree)
    with np.errstate(over="ignore", invalid="ignore"):
        fg, gf = _total(_rows(x, d, m), y, d, m, n), _total(_rows(y, d, n), x, d, n, m)
        res = _graded_difference(fg, gf, s) + s * _graded_difference(gf, fg, s)
        return _residual_norms(res.reshape(1, -1))[0]


def jacobi_residual(f: Operation, g: Operation, h: Operation) -> float:
    """Frobenius norm of the signed cyclic sum of double brackets.

    (-1)^(|f||h|) [[f,g],h] + (-1)^(|g||f|) [[g,h],f] + (-1)^(|h||g|) [[h,f],g]
    vanishes identically (graded Jacobi identity); the returned residual is
    pure rounding noise.
    """
    d = _dim(f, g, h)
    with np.errstate(over="ignore", invalid="ignore"):
        res = _jacobi(_flat(f), _flat(g), _flat(h), d, f.degree, g.degree, h.degree)
        return _residual_norms(res.reshape(1, -1))[0]
