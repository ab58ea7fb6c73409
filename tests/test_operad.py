"""Composition calculus: partial/total compositions, brackets, axiom residuals.

The independent oracle here composes operations by evaluating them on every
basis tuple (pure ``evaluate`` calls plus explicit loops), never through the
tensor-contraction path under test.  The bytes of the kernel are pinned
against its former ``np.tensordot`` + ``np.moveaxis`` form, kept below.
"""

import itertools
import warnings

import numpy as np
import pytest

from operadlax import (
    Operation,
    antisymmetry_residual,
    bracket,
    composition_relation_residual,
    composition_relation_residuals,
    evaluate,
    frobenius_norm,
    identity_op,
    jacobi_residual,
    linear_comb,
    operad,
    partial_compose,
    total_compose,
    unit_residual,
)
from reference_rhs import lax_rhs_bracket

MU111 = Operation(2, 2, [1, 0, 0, 0, 0, 0, 0, 0])
ROT = Operation(2, 1, [0, -1, 1, 0])  # Me1 = e2, Me2 = -e1


def compose_by_evaluation(f, g, slot):
    """Brute-force f o_slot g: evaluate on all basis tuples."""
    d, deg = f.dim, f.degree + g.degree - 1
    basis = np.eye(d)
    out = np.zeros((d,) * (deg + 1))
    sign = -1.0 if (slot * g.reduced_degree) % 2 else 1.0
    for idx in itertools.product(range(d), repeat=deg):
        args = [basis[j] for j in idx]
        inner = evaluate(g, args[slot : slot + g.degree])
        outer = args[:slot] + [inner] + args[slot + g.degree :]
        out[(slice(None),) + idx] = sign * evaluate(f, outer)
    return out


def random_op(rng, d, n):
    return Operation(d, n, rng.standard_normal((d,) * (n + 1)))


def test_partial_compose_degree1_is_matrix_product():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 3, 3))
    fa, fb = Operation(3, 1, a), Operation(3, 1, b)
    np.testing.assert_allclose(partial_compose(fa, fb, 0).coeffs, a @ b, atol=1e-15)


def test_partial_compose_matches_evaluation_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        nf = int(rng.integers(1, 4))
        ng = int(rng.integers(1, 4))
        f, g = random_op(rng, d, nf), random_op(rng, d, ng)
        i = int(rng.integers(0, nf))
        got = partial_compose(f, g, i)
        assert got.degree == nf + ng - 1
        want = compose_by_evaluation(f, g, i)
        np.testing.assert_allclose(got.coeffs, want, atol=1e-13 * (1 + np.abs(want).max()))


def test_partial_compose_structure_example():
    # frozen from compose_by_evaluation on all four basis pairs
    lo = partial_compose(MU111, ROT, 0)
    np.testing.assert_array_equal(lo.coeffs, compose_by_evaluation(MU111, ROT, 0))
    np.testing.assert_array_equal(lo.coeffs.ravel(), [0, 0, -1, 0, 0, 0, 0, 0])
    hi = partial_compose(MU111, ROT, 1)
    np.testing.assert_array_equal(hi.coeffs, compose_by_evaluation(MU111, ROT, 1))
    np.testing.assert_array_equal(hi.coeffs.ravel(), [0, -1, 0, 0, 0, 0, 0, 0])


def test_partial_compose_validations():
    with pytest.raises(ValueError, match="slot"):
        partial_compose(MU111, ROT, 2)
    for slot in (0.5, 1.0, "1", None):
        with pytest.raises(ValueError, match=r"^slot must be an integer, got "):
            partial_compose(MU111, ROT, slot)
    # numpy integers are slots
    assert (partial_compose(MU111, ROT, np.int64(1)).coeffs.tobytes()
            == partial_compose(MU111, ROT, 1).coeffs.tobytes())
    with pytest.raises(ValueError, match="dim"):
        partial_compose(MU111, identity_op(3), 0)
    # the kernel checks dims itself: the residuals never build an Operation
    other = identity_op(3)
    for call in (
        lambda: total_compose(MU111, other),
        lambda: bracket(MU111, other),
        lambda: composition_relation_residual(MU111, ROT, other, 0, 0),
        lambda: antisymmetry_residual(other, ROT),
        lambda: jacobi_residual(ROT, MU111, other),
        lambda: lax_rhs_bracket(MU111, other),
    ):
        with pytest.raises(ValueError, match=r"^dim mismatch: [23] vs [23]$"):
            call()


def tensordot_compose(f, g, i):
    """Reference f o_i g: the former kernel, np.tensordot then np.moveaxis."""
    m, n = f.degree, g.degree
    res = np.tensordot(f.coeffs, g.coeffs, axes=([i + 1], [0]))
    res = np.moveaxis(res, range(m, m + n), range(i + 1, i + 1 + n))
    if (i * g.reduced_degree) % 2:
        res = -res
    return res


def tensordot_total(f, g):
    acc = tensordot_compose(f, g, 0).copy()
    for i in range(1, f.degree):
        acc += tensordot_compose(f, g, i)
    return acc


def tensordot_bracket(f, g):
    s = -1.0 if (f.reduced_degree * g.reduced_degree) % 2 else 1.0
    return 1.0 * tensordot_total(f, g) + -s * tensordot_total(g, f)


def kernel_case_op(rng, d, n):
    """Random coefficients at one scale in [1e-150, 1e150], about a quarter
    of them replaced by 0.0 or -0.0 (so that results hold signed zeros)."""
    coeffs = rng.standard_normal((d,) * (n + 1)) * 10.0 ** rng.uniform(-150, 150)
    zeros = rng.random(coeffs.shape) < 0.25
    coeffs[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    return Operation(d, n, coeffs)


def assert_kernel_result(op, want):
    assert op.coeffs.tobytes() == want.tobytes()
    assert op.coeffs.shape == want.shape
    assert op.coeffs.flags.c_contiguous
    assert not op.coeffs.flags.writeable


def test_kernel_bytes_match_tensordot_reference():
    rng = np.random.default_rng(20)
    for _ in range(300):
        d = int(rng.integers(1, 4))
        f = kernel_case_op(rng, d, int(rng.integers(1, 5)))
        g = kernel_case_op(rng, d, int(rng.integers(1, 5)))
        for i in range(f.degree):
            assert_kernel_result(partial_compose(f, g, i), tensordot_compose(f, g, i))
        assert_kernel_result(total_compose(f, g), tensordot_total(f, g))
        assert_kernel_result(bracket(f, g), tensordot_bracket(f, g))


def test_partial_compose_overflow_raises_without_warning():
    big = Operation(2, 2, [1e200] * 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^non-finite coefficient at flat index 0$"):
            partial_compose(big, big, 1)
        # finite terms whose sum overflows
        with pytest.raises(ValueError, match=r"^non-finite coefficient at flat index 0$"):
            total_compose(Operation(1, 2, [1.2e154]), Operation(1, 1, [1.2e154]))
        with pytest.raises(ValueError, match=r"^non-finite coefficient at flat index 0$"):
            linear_comb(1.0, Operation(1, 1, [1e308]), 1.0, Operation(1, 1, [1e308]))


def reference_bracket(f, g):
    s = -1.0 if (f.reduced_degree * g.reduced_degree) % 2 else 1.0
    return linear_comb(1.0, total_compose(f, g), -s, total_compose(g, f))


def reference_relation(h, f, g, i, j):
    """composition_relation_residual with every partial result an Operation."""
    fr, gr = f.reduced_degree, g.reduced_degree
    s = -1.0 if (fr * gr) % 2 else 1.0
    lhs = partial_compose(partial_compose(h, f, i), g, j)
    if j <= i - 1:
        rhs = partial_compose(partial_compose(h, g, j), f, i + gr)
    elif j <= i + fr:
        rhs, s = partial_compose(h, partial_compose(f, g, j - i), i), 1.0
    else:
        rhs = partial_compose(partial_compose(h, g, j - fr), f, i)
    return frobenius_norm(linear_comb(1.0, lhs, -s, rhs))


def reference_unit(f):
    ident = identity_op(f.dim)
    composed = [partial_compose(ident, f, 0)]
    composed += [partial_compose(f, ident, i) for i in range(f.degree)]
    return max(frobenius_norm(linear_comb(1.0, c, -1.0, f)) for c in composed)


def reference_antisymmetry(f, g):
    s = -1.0 if (f.reduced_degree * g.reduced_degree) % 2 else 1.0
    return frobenius_norm(linear_comb(1.0, reference_bracket(f, g), s, reference_bracket(g, f)))


def reference_jacobi(f, g, h):
    def sign(a, b):
        return -1.0 if (a.reduced_degree * b.reduced_degree) % 2 else 1.0

    two = linear_comb(
        sign(f, h), reference_bracket(reference_bracket(f, g), h),
        sign(g, f), reference_bracket(reference_bracket(g, h), f),
    )
    return frobenius_norm(
        linear_comb(1.0, two, sign(h, g), reference_bracket(reference_bracket(h, f), g))
    )


def outcome(residual, *args):
    """The residual, or "overflow" where it raises the finite check's error."""
    try:
        return residual(*args)
    except ValueError as exc:
        assert str(exc).startswith("non-finite coefficient at flat index ")
        return "overflow"


def test_residuals_bitwise_match_operation_level_reference():
    """Each residual is one raw-array computation with one finite check; the
    reference builds (and checks) an Operation at every step.  Both give the
    same float, or both refuse an overflow, at scales 1e-150 to 1e150."""
    rng = np.random.default_rng(21)
    counts = {"finite": 0, "overflow": 0}
    for _ in range(300):
        d = int(rng.integers(1, 4))
        h, f, g = (kernel_case_op(rng, d, int(rng.integers(1, 4))) for _ in range(3))
        pairs = [
            (outcome(composition_relation_residual, h, f, g, i, j),
             outcome(reference_relation, h, f, g, i, j))
            for i in range(h.degree)
            for j in range(h.reduced_degree + f.reduced_degree + 1)
        ]
        pairs += [(outcome(unit_residual, u), outcome(reference_unit, u)) for u in (h, f, g)]
        pairs.append((outcome(antisymmetry_residual, f, g), outcome(reference_antisymmetry, f, g)))
        pairs.append((outcome(jacobi_residual, f, g, h), outcome(reference_jacobi, f, g, h)))
        for got, want in pairs:
            assert got == want
            counts["overflow" if got == "overflow" else "finite"] += 1
    assert counts["overflow"] > 0 and counts["finite"] > 10 * counts["overflow"]


def error_or(residual, *args):
    """The residual, or the message of the finite check's error."""
    try:
        return residual(*args)
    except ValueError as exc:
        assert str(exc).startswith("non-finite coefficient at flat index ")
        return str(exc)


SHAPES = [(d, degrees) for d in (1, 2, 3) for degrees in itertools.product((1, 2, 3), repeat=3)]


def hexed(values):
    return [x if isinstance(x, str) else x.hex() for x in values]


def test_relation_grid_bitwise_matches_operation_level_reference():
    """The batched grid gives, at every (i, j) and on every shape with
    d <= 3 and degrees <= 3, the reference's float, or refuses the overflow
    the reference refuses, with the one-pair call's error for the first
    (i, j) that overflows.  The one-pair call, one cell of the same kernel,
    does the same at every (i, j)."""
    rng = np.random.default_rng(23)
    counts = {"finite": 0, "overflow": 0}
    for d, degrees in SHAPES:
        for _ in range(4):
            h, f, g = (kernel_case_op(rng, d, n) for n in degrees)
            pairs = [(i, j) for i in range(h.degree)
                     for j in range(h.reduced_degree + f.reduced_degree + 1)]
            want = [outcome(reference_relation, h, f, g, i, j) for i, j in pairs]
            one = [outcome(composition_relation_residual, h, f, g, i, j) for i, j in pairs]
            assert hexed(one) == hexed(want)
            got = error_or(composition_relation_residuals, h, f, g)
            if "overflow" in want:
                i, j = pairs[want.index("overflow")]
                assert got == error_or(composition_relation_residual, h, f, g, i, j)
                assert isinstance(got, str)
                counts["overflow"] += 1
            else:
                assert [x.hex() for x in got] == [x.hex() for x in want]
                counts["finite"] += 1
    assert counts["overflow"] > 0 and counts["finite"] > 2 * counts["overflow"]


def kernel_bits(call, *args):
    """The bytes of a composition, the hex of a residual or of each of a
    grid's, or the finite check's error message."""
    got = error_or(call, *args)
    if isinstance(got, Operation):
        return got.coeffs.shape, got.coeffs.tobytes()
    return hexed(got if isinstance(got, list) else [got])


def every_kernel_bits(seed):
    """``kernel_bits`` of every public composition and residual, every slot
    of ``partial_compose``, on one random triple per shape."""
    rng = np.random.default_rng(seed)
    out = []
    for d, degrees in SHAPES:
        h, f, g = (kernel_case_op(rng, d, n) for n in degrees)
        calls = [(composition_relation_residuals, h, f, g), (jacobi_residual, f, g, h),
                 (antisymmetry_residual, f, g), (unit_residual, f), (bracket, f, g),
                 (total_compose, f, g)]
        calls += [(partial_compose, f, g, i) for i in range(f.degree)]
        out += [kernel_bits(call, *args) for call, *args in calls]
    return out


def empty_plans(monkeypatch):
    """Give ``operad`` empty index-plan caches for one test: returns them."""
    plans = [{}, {}, {}]
    for name, cache in zip(("_SLOT_ROWS", "_PLACEMENTS", "_RELATION_ROWS"), plans):
        monkeypatch.setattr(operad, name, cache)
    return plans


def test_fresh_plans_keep_every_bit(monkeypatch):
    """Every composed tensor, at every size, is placed through the cached
    index plan of its shape: plans built afresh give every shape's results
    bit for bit."""
    want = every_kernel_bits(25)
    empty_plans(monkeypatch)
    assert every_kernel_bits(25) == want


# the bytes that the index plans may hold once every shape with d <= 3 and
# degrees <= 3 has run: CACHE_BUDGET of tools/axioms_timing.py
PLAN_BUDGET = 1 << 20


def test_plans_of_every_shape_fit_the_budget(monkeypatch):
    plans = empty_plans(monkeypatch)
    every_kernel_bits(26)
    held = sum(plan.nbytes for cache in plans for plan in cache.values())
    assert 0 < held <= PLAN_BUDGET


def kernel_residuals(rng, d, degrees):
    """The kernel's relation-grid and Jacobi residual tensors of random
    int64 tensors with entries in [-2^15, 2^15)."""
    hm, fm, gm = degrees
    h, f, g = (rng.integers(-2**15, 2**15, size=(1, d ** (n + 1))) for n in degrees)
    relation = np.concatenate(list(operad._relation_residuals(h, f, g, d, hm, fm, gm)))
    return relation, operad._jacobi(f, g, h, d, fm, gm, hm)


def test_kernel_residuals_vanish_exactly_on_integers(monkeypatch):
    """Every relation and the Jacobi identity are polynomial identities in
    the coefficients, so on integers the kernel's residual tensors are
    exactly zero: an oracle that does not depend on float rounding.  They
    are not for a calculus without the partial-composition signs; without
    every sign (the ungraded calculus, also consistent) they are again."""
    rng = np.random.default_rng(24)
    for d, degrees in SHAPES:
        relation, jacobi = kernel_residuals(rng, d, degrees)
        assert relation.dtype == jacobi.dtype == np.int64
        assert not relation.any() and not jacobi.any()

    monkeypatch.setattr(operad, "_odd_slots_negated", lambda n: False)
    broken = {"relation": set(), "jacobi": set()}
    for d, degrees in SHAPES:
        relation, jacobi = kernel_residuals(rng, d, degrees)
        for name, res in (("relation", relation), ("jacobi", jacobi)):
            if res.any():
                broken[name].add((d, degrees))
    # the first and third cases keep their sign (-1)^(|f||g|)
    assert broken["relation"] == {(d, (hm, 2, 2)) for d in (1, 2, 3) for hm in (2, 3)}
    assert broken["jacobi"] == {(d, degrees) for d, degrees in SHAPES
                                if min(degrees) > 1 and degrees.count(2) >= 2}

    monkeypatch.setattr(operad, "_sign", lambda k: 1)
    for d, degrees in SHAPES:
        relation, jacobi = kernel_residuals(rng, d, degrees)
        assert not relation.any() and not jacobi.any()


def test_residual_overflow_raises_without_warning():
    big = Operation(2, 2, [1e200] * 8)
    rng = np.random.default_rng(22)
    huge = [Operation(2, 1, rng.standard_normal(4) * 1e102) for _ in range(3)]
    large = [Operation(2, 2, rng.standard_normal(8) * 1e70) for _ in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for residual, args in [
            (composition_relation_residual, (big, big, big, 0, 0)),
            (antisymmetry_residual, (big, big)),
            (jacobi_residual, (big, big, big)),
        ]:
            with pytest.raises(ValueError, match=r"^non-finite coefficient at flat index \d+$"):
                residual(*args)
        # compositions with the identity are exact, so the unit laws cannot overflow
        assert unit_residual(big) == 0.0
        # finite residuals whose squares overflow: the norm is rescaled
        assert frobenius_norm(Operation(2, 1, [1e200, 0, 0, 1])) == 1e200
        assert 1e154 < jacobi_residual(*huge) < np.inf
        assert 1e154 < composition_relation_residual(*large, 1, 1) < np.inf


def test_unit_laws_are_exact():
    rng = np.random.default_rng(2)
    assert unit_residual(identity_op(2)) == 0.0
    for d, n in [(2, 2), (3, 3), (1, 2), (3, 1)]:
        f = random_op(rng, d, n)
        ident = identity_op(d)
        np.testing.assert_array_equal(partial_compose(ident, f, 0).coeffs, f.coeffs)
        for i in range(f.degree):
            np.testing.assert_array_equal(partial_compose(f, ident, i).coeffs, f.coeffs)
        assert unit_residual(f) == 0.0


def test_total_compose_degree1_is_matrix_product():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((2, 2, 2))
    got = total_compose(Operation(2, 1, a), Operation(2, 1, b))
    np.testing.assert_allclose(got.coeffs, a @ b, atol=1e-15)


def test_total_compose_structure_examples():
    # sum of the two partial compositions above
    np.testing.assert_array_equal(
        total_compose(MU111, ROT).coeffs.ravel(), [0, -1, -1, 0, 0, 0, 0, 0]
    )
    # single term, M o_0 mu
    np.testing.assert_array_equal(
        total_compose(ROT, MU111).coeffs.ravel(), [0, 0, 0, 0, 1, 0, 0, 0]
    )


def test_bracket_degree1_is_matrix_commutator():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b = rng.standard_normal((2, 3, 3))
        got = bracket(Operation(3, 1, a), Operation(3, 1, b)).coeffs
        np.testing.assert_allclose(got, a @ b - b @ a, atol=1e-15 * (1 + np.abs(a @ b).max()))


def test_bracket_self_even_reduced_degree_vanishes():
    rng = np.random.default_rng(5)
    f = random_op(rng, 3, 1)  # |f| = 0 even
    assert not bracket(f, f).coeffs.any()


def test_bracket_rotation_with_structure_constants():
    got = bracket(ROT, MU111)
    assert got.degree == 2
    np.testing.assert_array_equal(got.coeffs.ravel(), [0, 1, 1, 0, 1, 0, 0, 0])


def test_bracket_degree_bookkeeping():
    rng = np.random.default_rng(6)
    for nf, ng in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
        f, g = random_op(rng, 2, nf), random_op(rng, 2, ng)
        assert bracket(f, g).degree == nf + ng - 1


def test_graded_antisymmetry_bit_exact(monkeypatch):
    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(50):
        d = int(rng.integers(1, 4))
        f = random_op(rng, d, int(rng.integers(1, 4)))
        g = random_op(rng, d, int(rng.integers(1, 4)))
        s = -1.0 if (f.reduced_degree * g.reduced_degree) % 2 else 1.0
        total = bracket(f, g).coeffs + s * bracket(g, f).coeffs
        assert not total.any()
        assert antisymmetry_residual(f, g) == 0.0
        pairs.append((f, g))

    # rounding is sign-symmetric, fl(a - b) = -fl(b - a), so the residual is
    # 0 for any finite operands and cannot see a broken kernel: a total
    # composition that drops its slot signs leaves it at 0, and only the
    # Jacobi residual sees the mutant
    def unsigned_total(rows, y, d, m, n):
        return operad._placed(rows, y, d, m, n, range(m))[0].sum(axis=0)

    monkeypatch.setattr(operad, "_total", unsigned_total)
    assert all(antisymmetry_residual(f, g) == 0.0 for f, g in pairs)
    assert max(jacobi_residual(f, g, f) for f, g in pairs) > 1.0


def case_of(i, j, fr):
    if j <= i - 1:
        return 1
    if j <= i + fr:
        return 2
    return 3


def test_composition_relations_specific_cases():
    rng = np.random.default_rng(8)
    # degree-1 triple, i = j = 0: associativity of the matrix product
    h, f, g = (random_op(rng, 2, 1) for _ in range(3))
    assert composition_relation_residual(h, f, g, 0, 0) < 1e-14
    # degrees (2,2,1), i=0, j=1: middle case
    h, f, g = random_op(rng, 2, 2), random_op(rng, 2, 2), random_op(rng, 2, 1)
    assert case_of(0, 1, f.reduced_degree) == 2
    assert composition_relation_residual(h, f, g, 0, 1) < 1e-12
    # degrees (2,1,1), i=1, j=0: first case, sign +1
    h, f, g = random_op(rng, 2, 2), random_op(rng, 2, 1), random_op(rng, 2, 1)
    assert case_of(1, 0, f.reduced_degree) == 1
    assert composition_relation_residual(h, f, g, 1, 0) < 1e-12


def test_composition_relations_all_cases_random():
    rng = np.random.default_rng(9)
    seen = {1: 0, 2: 0, 3: 0}
    for _ in range(60):
        d = int(rng.integers(1, 4))
        h = random_op(rng, d, int(rng.integers(1, 4)))
        f = random_op(rng, d, int(rng.integers(1, 4)))
        g = random_op(rng, d, int(rng.integers(1, 4)))
        scale = 1.0 + frobenius_norm(h) * frobenius_norm(f) * frobenius_norm(g)
        for i in range(h.degree):
            for j in range(h.reduced_degree + f.reduced_degree + 1):
                seen[case_of(i, j, f.reduced_degree)] += 1
                assert composition_relation_residual(h, f, g, i, j) <= 1e-12 * scale
    assert all(count > 0 for count in seen.values())


def test_composition_relation_range_errors():
    rng = np.random.default_rng(10)
    h, f, g = random_op(rng, 2, 2), random_op(rng, 2, 2), random_op(rng, 2, 1)
    with pytest.raises(ValueError, match="case ranges"):
        composition_relation_residual(h, f, g, 0, 3)
    with pytest.raises(ValueError, match="slot range"):
        composition_relation_residual(h, f, g, 2, 0)
    for i, j, name in ((0, 1.0, "j"), (0.0, 1, "i"), (0.5, 0.5, "i"), (0, "1", "j")):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            composition_relation_residual(h, f, g, i, j)
    # numpy integers are slots
    assert (composition_relation_residual(h, f, g, np.int64(1), np.int32(2))
            == composition_relation_residual(h, f, g, 1, 2))


def test_jacobi_identity_degree1_and_mixed():
    rng = np.random.default_rng(11)
    f, g, h = (random_op(rng, 3, 1) for _ in range(3))
    assert jacobi_residual(f, g, h) < 1e-13
    f2, g2, h2 = random_op(rng, 2, 1), random_op(rng, 2, 2), random_op(rng, 2, 2)
    assert jacobi_residual(f2, g2, h2) < 1e-12
    b1, b2, b3 = (random_op(rng, 2, 2) for _ in range(3))
    assert jacobi_residual(b1, b2, b3) < 1e-12


def test_jacobi_identity_random_batch():
    rng = np.random.default_rng(12)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        f = random_op(rng, d, int(rng.integers(1, 4)))
        g = random_op(rng, d, int(rng.integers(1, 4)))
        h = random_op(rng, d, int(rng.integers(1, 4)))
        scale = 1.0 + frobenius_norm(f) * frobenius_norm(g) * frobenius_norm(h)
        assert jacobi_residual(f, g, h) <= 1e-12 * scale


def test_axiom_suites_refuse_a_non_finite_draw(monkeypatch):
    real_rng = np.random.default_rng

    class InfiniteNormals:
        """A seeded generator whose normal draws end in inf."""

        def __init__(self, seed):
            self.rng = real_rng(seed)

        def integers(self, *args, **kwargs):
            return self.rng.integers(*args, **kwargs)

        def standard_normal(self, size):
            out = self.rng.standard_normal(size)
            out[-1] = np.inf
            return out

    monkeypatch.setattr(np.random, "default_rng", InfiniteNormals)
    rng = InfiniteNormals(0)
    d = int(rng.integers(1, 3))
    last = d ** (int(rng.integers(1, 4, size=3)[-1]) + 1) - 1  # g's last entry
    with pytest.raises(ValueError, match=f"^non-finite coefficient at flat index {last}$"):
        operad.axiom_suites(1, 2, 3, 0)


@pytest.mark.parametrize("args", [(0, 2, 3, 0), (1, 0, 3, 0), (1, 2, 0, 0), (1.0, 2, 3, 0),
                                  (1, 2, 3, -1)])
def test_axiom_suites_refuse_bad_arguments(args):
    with pytest.raises(ValueError):
        operad.axiom_suites(*args)
