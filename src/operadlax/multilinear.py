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

import math
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
        if not (_is_int(self.dim) and self.dim >= 1):
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if not (_is_int(self.degree) and self.degree >= 1):
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
        arr = _check_finite(arr.reshape((self.dim,) * (self.degree + 1)))
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def reduced_degree(self) -> int:
        """Degree minus one; governs all sign factors."""
        return self.degree - 1


def _is_int(k) -> bool:
    """Whether k is a Python or numpy integer (a float such as 2.0 is not)."""
    return isinstance(k, (int, np.integer))


def _check_finite(arr: np.ndarray, entry: str = "coefficient at flat index") -> np.ndarray:
    """``arr``, or a ValueError naming its first non-finite ``entry``."""
    # count_nonzero takes half the time of all() on an operation's few entries
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        bad = int(np.flatnonzero(~np.isfinite(arr.ravel()))[0])
        raise ValueError(f"non-finite {entry} {bad}")
    return arr


def identity_op(dim: int) -> Operation:
    """The degree-1 identity operation, coeffs[i, j] = delta_ij."""
    if not (_is_int(dim) and dim >= 1):
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
    with np.errstate(over="ignore", invalid="ignore"):
        for v in reversed(vecs):
            out = out @ v
    return _check_finite(out, "value at index")


def linear_comb(a: float, f: Operation, b: float, g: Operation) -> Operation:
    """Coefficientwise a*f + b*g for operations of equal dim and degree."""
    if (f.dim, f.degree) != (g.dim, g.degree):
        raise ValueError(
            f"shape mismatch: (dim, degree) = ({f.dim}, {f.degree}) vs "
            f"({g.dim}, {g.degree})"
        )
    # an overflowing sum is reported by Operation's finite check
    with np.errstate(over="ignore", invalid="ignore"):
        return Operation(f.dim, f.degree, a * f.coeffs + b * g.coeffs)


def frobenius_norm(f: Operation) -> float:
    """Square root of the sum of squared coefficients."""
    return float(_norm(f.coeffs))


def _norm(x: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """``np.linalg.norm(x, axis=axis)`` without overflow or warnings: a norm
    made infinite by squaring finite entries (above ~1e154) is recomputed scaled
    by the largest magnitude, others keep their bits."""
    if axis is None and x.dtype == np.float64:
        # np.linalg.norm's sum of squares is the BLAS dot of the flat entries;
        # vdot takes that dot without numpy's floating-point error check, so a
        # finite norm needs no errstate
        flat = x.ravel(order="K")
        norm = math.sqrt(np.vdot(flat, flat))
        if math.isfinite(norm):
            return norm
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(x, axis=axis)
        # numpy's all() on a scalar costs more than the norm itself
        if math.isfinite(norms) if axis is None else np.isfinite(norms).all():
            return norms
        norms = np.linalg.norm(x, axis=axis, keepdims=True)
        scale = np.max(np.abs(x), axis=axis, keepdims=True)  # finite iff all entries are
        rescaled = scale * np.linalg.norm(x / scale, axis=axis, keepdims=True)
        return np.where(~np.isfinite(norms) & np.isfinite(scale), rescaled, norms).squeeze(axis)


def _sample_norms(rows: np.ndarray, out=None) -> np.ndarray:
    """The norm of each sample (column) of (8, N) component rows, with the
    bits ``_norm(samples, axis=1)`` gives the same samples laid out as a
    C-contiguous (N, 8) array, overflow handling included.  The squares
    go into ``out``, an (8, N) block."""
    with np.errstate(over="ignore", invalid="ignore"):
        # numpy sums 8 contiguous values as ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)):
        # here each sum is one add of two contiguous rows of squares, in place
        s = np.multiply(rows, rows, out=out)
        for i, j in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
            np.add(s[i], s[j], out=s[i])
        norms = np.sqrt(s[0])
    if np.isfinite(norms).all():
        return norms
    return _norm(np.ascontiguousarray(rows.T), axis=1)  # rescales what overflowed
