"""Dense multilinear operations on a finite-dimensional real vector space.

An operation of degree n (arity n) on V = R^d is a multilinear map
V^(n) -> V, stored as the full coefficient tensor

    coeffs[i, j1, ..., jn] = e_i-coefficient of op(e_{j1} ⊗ ... ⊗ e_{jn})

with the output index outermost and row-major (C) layout.  For a binary
operation on R^2 the flat layout is therefore exactly the component order
(mu111, mu112, mu121, mu122, mu211, mu212, mu221, mu222), where labels are
1-based while internal indices are 0-based (mu111 <-> coeffs[0, 0, 0]).

The reduced degree n - 1 drives every sign convention in the composition
calculus, so it is exposed as a property.  Vectors are plain 1-d float
arrays; no wrapper type is needed.  Degree-0 operations (constants) are
rejected: nothing in this package needs them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Operation",
    "identity_op",
    "evaluate",
    "linear_comb",
    "frobenius_norm",
]


@dataclass(frozen=True, eq=False)
class Operation:
    """A degree-n multilinear operation on R^dim, immutable after construction.

    ``coeffs`` may be passed flat (length dim**(degree+1)) or already shaped
    (dim,)*(degree+1); it is copied, canonicalized to the shaped form and
    marked read-only.
    """

    dim: int
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if self.degree < 1:
            raise ValueError(
                f"degree must be a positive integer, got {self.degree} "
                "(degree-0 constants are not supported)"
            )
        arr = np.array(self.coeffs, dtype=float)
        expected = self.dim ** (self.degree + 1)
        if arr.size != expected:
            raise ValueError(
                f"coefficient length mismatch: expected {expected} "
                f"(= {self.dim}^{self.degree + 1}), got {arr.size}"
            )
        _freeze(self, arr.reshape((self.dim,) * (self.degree + 1)))

    @classmethod
    def _trusted(cls, dim: int, degree: int, arr: np.ndarray) -> "Operation":
        """Wrap a fresh C-contiguous float array of shape (dim,)*(degree+1).

        For kernel results whose shape and dtype the caller already knows:
        skips the copy, the length check and the reshape of ``__init__``,
        but keeps the non-finite check, since a product or sum of finite
        coefficients can overflow.  ``arr`` must not be shared.
        """
        op = object.__new__(cls)
        object.__setattr__(op, "dim", dim)
        object.__setattr__(op, "degree", degree)
        _freeze(op, arr)
        return op

    @property
    def reduced_degree(self) -> int:
        """Degree minus one; governs all sign factors."""
        return self.degree - 1


def _freeze(op: Operation, arr: np.ndarray) -> None:
    """Reject non-finite entries, then store ``arr`` read-only as op.coeffs."""
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr.ravel()))[0])
        raise ValueError(f"non-finite coefficient at flat index {bad}")
    arr.setflags(write=False)
    object.__setattr__(op, "coeffs", arr)


def identity_op(dim: int) -> Operation:
    """The degree-1 identity operation, coeffs[i, j] = delta_ij."""
    if dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim}")
    return Operation(dim, 1, np.eye(dim))


def evaluate(op: Operation, args) -> np.ndarray:
    """Apply ``op`` to a sequence of ``op.degree`` vectors of length ``op.dim``.

    Returns the value as a 1-d float array.  Multilinear in every slot.
    """
    vecs = [np.asarray(a, dtype=float) for a in args]
    if len(vecs) != op.degree:
        raise ValueError(
            f"arity mismatch: operation of degree {op.degree} applied to "
            f"{len(vecs)} arguments"
        )
    for k, v in enumerate(vecs):
        if v.shape != (op.dim,):
            raise ValueError(
                f"argument {k} has shape {v.shape}, expected ({op.dim},)"
            )
    out = op.coeffs
    for v in reversed(vecs):
        out = out @ v
    return out


def linear_comb(a: float, f: Operation, b: float, g: Operation) -> Operation:
    """Coefficientwise a*f + b*g for operations of equal dim and degree."""
    if (f.dim, f.degree) != (g.dim, g.degree):
        raise ValueError(
            f"shape mismatch: (dim, degree) = ({f.dim}, {f.degree}) vs "
            f"({g.dim}, {g.degree})"
        )
    # an overflowing sum is reported by the finite check in _trusted
    with np.errstate(over="ignore", invalid="ignore"):
        return Operation._trusted(f.dim, f.degree, a * f.coeffs + b * g.coeffs)


def frobenius_norm(f: Operation) -> float:
    """Square root of the sum of squared coefficients."""
    return float(np.linalg.norm(f.coeffs))
