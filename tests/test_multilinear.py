"""Construction, evaluation and linear algebra of dense multilinear operations."""

import math
import warnings

import numpy as np
import pytest

from operadlax import (
    Operation,
    evaluate,
    frobenius_norm,
    identity_op,
    linear_comb,
)
from operadlax.multilinear import _norm, _sample_norms


def test_operation_stores_matrix_exactly():
    op = Operation(2, 1, [0, -1, 1, 0])
    np.testing.assert_array_equal(op.coeffs, [[0.0, -1.0], [1.0, 0.0]])
    assert op.dim == 2 and op.degree == 1 and op.reduced_degree == 0


def test_operation_zero_binary():
    op = Operation(2, 2, np.zeros(8))
    assert op.coeffs.shape == (2, 2, 2)
    assert not op.coeffs.any()
    assert op.reduced_degree == 1


def test_operation_readback_bit_identical():
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(3 ** 3)
    op = Operation(3, 2, coeffs)
    np.testing.assert_array_equal(op.coeffs.ravel(), coeffs)


def test_operation_length_mismatch():
    with pytest.raises(ValueError, match="expected 8"):
        Operation(2, 2, np.zeros(7))


def test_operation_rejects_non_finite():
    bad = np.zeros(8)
    bad[5] = np.nan
    with pytest.raises(ValueError, match="flat index 5"):
        Operation(2, 2, bad)


def test_operation_rejects_degree_zero():
    with pytest.raises(ValueError, match="degree"):
        Operation(2, 0, [1.0, 0.0])


@pytest.mark.parametrize("dim, degree, name", [
    (2, 2.5, "degree"), (2, 2.0, "degree"), (2.0, 2, "dim"), (1.5, 1, "dim"), ("2", 2, "dim"),
])
def test_operation_rejects_non_integer_dim_or_degree(dim, degree, name):
    value = dim if name == "dim" else degree
    with pytest.raises(ValueError, match=rf"^{name} must be a positive integer, got {value}"):
        Operation(dim, degree, np.zeros(8))


def test_operation_takes_numpy_integers():
    op = Operation(np.int64(2), np.int32(2), np.arange(8))
    np.testing.assert_array_equal(op.coeffs.ravel(), np.arange(8))
    assert op.reduced_degree == 1
    np.testing.assert_array_equal(identity_op(np.int8(3)).coeffs, np.eye(3))


def test_coeffs_are_read_only():
    op = Operation(2, 1, np.eye(2))
    with pytest.raises(ValueError):
        op.coeffs[0, 0] = 5.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_identity_op(dim):
    np.testing.assert_array_equal(identity_op(dim).coeffs, np.eye(dim))


def test_identity_op_rejects_dim_zero():
    with pytest.raises(ValueError):
        identity_op(0)
    with pytest.raises(ValueError, match=r"^dim must be a positive integer, got 2.5$"):
        identity_op(2.5)


def test_evaluate_identity():
    np.testing.assert_array_equal(
        evaluate(identity_op(2), [np.array([3.0, 4.0])]), [3.0, 4.0]
    )


def test_evaluate_structure_constant_on_basis():
    # mu111 = 1 means mu(e1, e1) = e1
    mu = Operation(2, 2, [1, 0, 0, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(evaluate(mu, [[1, 0], [1, 0]]), [1.0, 0.0])


def test_evaluate_bilinear_scaling():
    # hand expansion: mu(2 e1, 3 e1) = 6 mu(e1, e1) = 6 e1
    mu = Operation(2, 2, [1, 0, 0, 0, 0, 0, 0, 0])
    np.testing.assert_allclose(evaluate(mu, [[2, 0], [3, 0]]), [6.0, 0.0])


def test_evaluate_arity_and_dim_mismatch():
    mu = Operation(2, 2, np.zeros(8))
    with pytest.raises(ValueError, match="arity"):
        evaluate(mu, [[1, 0]])
    with pytest.raises(ValueError, match="shape"):
        evaluate(mu, [[1, 0, 0], [1, 0]])


def test_evaluate_overflow_raises_without_warning():
    # a product of finite coefficients and arguments that overflows is
    # refused like every other non-finite result, and leaks no warning;
    # in the second, inf - inf on the way makes the value NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^non-finite value at index 0$"):
            evaluate(Operation(1, 1, [1e200]), [[1e200]])
        with pytest.raises(ValueError, match="non-finite"):
            evaluate(Operation(2, 2, [1e200] * 8), [[1e100, 0], [1e100, -1e100]])


def test_evaluate_linear_in_each_slot():
    rng = np.random.default_rng(5)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        op = Operation(d, n, rng.standard_normal(d ** (n + 1)))
        slot = int(rng.integers(0, n))
        x, y = rng.standard_normal((2, d))
        a, b = rng.standard_normal(2)
        args = [rng.standard_normal(d) for _ in range(n)]
        lhs_args = list(args)
        lhs_args[slot] = a * x + b * y
        xa, ya = list(args), list(args)
        xa[slot], ya[slot] = x, y
        lhs = evaluate(op, lhs_args)
        rhs = a * evaluate(op, xa) + b * evaluate(op, ya)
        scale = np.abs(op.coeffs).sum() * (1.0 + np.abs(rhs).max())
        np.testing.assert_allclose(lhs, rhs, atol=1e-14 * scale)


def test_linear_comb_cancellation_is_exact():
    rng = np.random.default_rng(3)
    f = Operation(2, 2, rng.standard_normal(8))
    zero = linear_comb(1.0, f, -1.0, f)
    assert not zero.coeffs.any()


def test_linear_comb_scaling():
    two_id = linear_comb(2.0, identity_op(2), 0.0, identity_op(2))
    np.testing.assert_array_equal(two_id.coeffs, 2.0 * np.eye(2))


def test_linear_comb_disjoint_supports_union():
    a = Operation(2, 2, [1, 0, 0, 0, 0, 0, 0, 0])
    b = Operation(2, 2, [0, 0, 0, 5, 0, 0, 0, 0])
    both = linear_comb(1.0, a, 1.0, b)
    np.testing.assert_array_equal(both.coeffs.ravel(), [1, 0, 0, 5, 0, 0, 0, 0])


def test_linear_comb_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        linear_comb(1.0, identity_op(2), 1.0, identity_op(3))


def test_frobenius_norm_values():
    assert frobenius_norm(Operation(2, 2, np.zeros(8))) == 0.0
    assert frobenius_norm(identity_op(2)) == pytest.approx(np.sqrt(2), rel=1e-15)
    pm = Operation(2, 2, [1, 0, 0, -1, 0, 0, 0, 0])
    assert frobenius_norm(pm) == pytest.approx(np.sqrt(2), rel=1e-15)


def test_frobenius_norm_homogeneous():
    rng = np.random.default_rng(9)
    for _ in range(20):
        f = Operation(2, 2, rng.standard_normal(8))
        a = float(rng.standard_normal())
        scaled = linear_comb(a, f, 0.0, f)
        assert frobenius_norm(scaled) == pytest.approx(
            abs(a) * frobenius_norm(f), rel=1e-15
        )


def norm_reference(x):
    """np.linalg.norm, rescaled by the largest magnitude where the squares overflow."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(x)
        if not np.isfinite(norm):
            scale = np.max(np.abs(x))
            norm = scale * np.linalg.norm(x / scale)
    return float(norm)


def test_frobenius_norm_keeps_numpy_bits_at_every_scale():
    rng = np.random.default_rng(11)
    overflowed = underflowed = 0
    for d in (1, 2, 3):
        for degree in (1, 2, 3):
            base = rng.standard_normal(d ** (degree + 1))
            for k in range(-300, 301, 25):
                f = Operation(d, degree, base * 10.0 ** k)
                with np.errstate(over="ignore"):
                    plain = float(np.linalg.norm(f.coeffs))
                got = frobenius_norm(f)
                assert float.hex(got) == float.hex(norm_reference(f.coeffs))
                if math.isfinite(plain):
                    assert float.hex(got) == float.hex(plain)
                else:
                    overflowed += 1
                    assert math.isfinite(got) and got > 0.0
                underflowed += got == 0.0
    # the scales reach both the rescaled path and squares that underflow to 0
    assert overflowed and underflowed


@pytest.mark.parametrize("rows", [0, 1, 7, 2000])
def test_row_norms_of_eight_keep_numpy_bits(rows):
    # the (N, 8) row norms sum their squares in numpy's own pairwise order
    rng = np.random.default_rng(rows)
    # one scale per row, so that each sum's order shows in its rounding
    x = rng.standard_normal((rows, 8)) * 10.0 ** rng.uniform(-160, 150, (rows, 1))
    x[rng.uniform(size=x.shape) < 0.2] = 0.0
    x[rng.uniform(size=x.shape) < 0.1] = -0.0
    x[::5] = 0.0
    x[1::5] = -0.0
    for rows_of in (x, np.asfortranarray(x), x[::-1]):
        got, want = _norm(rows_of, axis=1), np.linalg.norm(rows_of, axis=1)
        assert got.shape == want.shape == (rows,)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    # the same samples as (8, N) component rows: numpy's bits for the
    # C-contiguous (N, 8) samples, the squares in the block given
    want = np.linalg.norm(x, axis=1).view(np.uint64)
    for got in (_sample_norms(np.ascontiguousarray(x.T)), _sample_norms(x.T, np.empty((8, rows)))):
        np.testing.assert_array_equal(got.view(np.uint64), want)


def test_row_norms_rescale_past_overflowing_squares():
    # entries near 2**664 (about 1e200): the squares overflow, so each row is
    # recomputed scaled by its largest magnitude; a power of two scales exactly
    x = np.random.default_rng(13).standard_normal((7, 8))
    for rows in (x[:1], x):
        with np.errstate(over="ignore"):
            assert np.isinf(np.linalg.norm(2.0**664 * rows, axis=1)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _norm(2.0**664 * rows, axis=1)
            by_sample = _sample_norms(2.0**664 * np.ascontiguousarray(rows.T))
        np.testing.assert_allclose(got, 2.0**664 * _norm(rows, axis=1), rtol=1e-15)
        assert by_sample.tobytes() == got.tobytes()
