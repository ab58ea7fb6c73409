"""Harmonic oscillator flows, Lax matrices, and auxiliary phase-space functions.

The Hamiltonian H(q, p) = (p^2 + w^2 q^2) / 2 generates dq/dt = p,
dp/dt = -w^2 q.  Each linear law here is computed only through its
generator matrix (``hamilton_generator``, ``aux_generator``; both check
omega) and integrated by ``rk4_linear_path``; ``rk4_path`` is the
step-by-step RK4 loop for any right-hand side.  The classical Lax pair

    L = [[p, w q], [w q, -p]],   M = (w/2) [[0, -1], [1, 0]]

satisfies dL/dt = ML - LM along the flow (proved in exact arithmetic by
the tests, never assumed).

The auxiliary functions A+, A-, D+, D- are defined implicitly by

    A+^2 + A-^2 = 2 sqrt(2H),  A+^2 - A-^2 = 2p,  A+ A- = w q,
    D+ = (A+/2)(A+^2 - 3 A-^2),  D- = (A-/2)(3 A+^2 - A-^2),

equivalently D+ + i D- = (A+ + i A-)^3 / 2.  The algebraic system fixes
(A+, A-) only up to a global sign; two evaluations are provided:

* ``aux_algebraic``  - pointwise principal branch, A+ + i A- =
  sqrt(2 (p + i w q)) with A+ >= 0, taken by ``cmath.sqrt`` with a zero
  w q read as +0 (non-smooth on the half-line q = 0, p < 0 where A+ hits
  zero);
* ``aux_exact_flow`` - the smooth dynamic continuation from a t = 0 seed,
  which rotates (A+, A-) at frequency w/2 and (D+, D-) at 3w/2 and is
  4*pi/w periodic (it crosses sign, so it can differ from the pointwise
  branch by an overall sign at later times).  The 3w/2 rotation is the
  cube of the w/2 one, by the triple-angle identities.

The rotation laws are exactly the vanishing of the residuals

    G(A)+- = dA+-/dt +- (w/2) A-+,   G(D)+- = dD+-/dt +- (3w/2) D-+,

that is a_dot - R a with R = ``aux_generator`` (the tests' ``g_values``).
They are Hamilton's flow pulled back through (q, p) = (A+ A- / w,
(A+^2 - A-^2) / 2), and its cube for (D+, D-) (an exact test proves both).
Each law is written once: ``energy``, ``exact_path`` and ``aux_exact_flow``
take array times, and the scalar APIs wrap them.  Hand-expanded forms are in
``tests/reference_rhs.py``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .multilinear import Operation

__all__ = [
    "OscState",
    "AuxValues",
    "IntegrationError",
    "energy",
    "hamiltonian",
    "hamilton_generator",
    "exact_path",
    "exact_flow",
    "rk4_path",
    "rk4_linear_path",
    "m_matrix",
    "lax_matrices",
    "aux_algebraic",
    "aux_exact_flow",
    "aux_generator",
]


class IntegrationError(RuntimeError):
    """A trajectory produced a non-finite state."""


def _check_omega(omega: float) -> None:
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be positive and finite, got {omega}")


def _pattern(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    arr.setflags(write=False)
    return arr


# J = [[0, -1], [1, 0]]: M = (omega/2) J, and each generator that M drives is
# omega/2 times a constant pattern built once from J
_ROTATION = _pattern([[0.0, -1.0], [1.0, 0.0]])
# (A+, A-) turn as J and (D+, D-) as 3 J
_AUX_PATTERN = _pattern(np.kron(np.diag([1.0, 3.0]), _ROTATION))


@dataclass(frozen=True)
class OscState:
    """Phase-space point (q, p) at angular frequency omega > 0, with a finite energy H."""

    q: float
    p: float
    omega: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and math.isfinite(self.p)):
            raise ValueError(f"non-finite state (q, p) = ({self.q}, {self.p})")
        _check_omega(self.omega)
        if not math.isfinite(energy(self.q, self.p, self.omega)):
            raise ValueError(f"energy H of (q, p, omega) = ({self.q}, {self.p}, {self.omega}) "
                             "is not a finite double")


@dataclass(frozen=True)
class AuxValues:
    """The quadruple (A+, A-, D+, D-); also used for their time rates and
    for the rotation-law residuals.  Fields are floats, or equal-shape
    arrays along a sampled trajectory."""

    a_plus: float
    a_minus: float
    d_plus: float
    d_minus: float


def energy(q, p, omega: float):
    """H = (p^2 + omega^2 q^2) / 2; q and p may be arrays."""
    return 0.5 * (p * p + omega * omega * q * q)


def hamiltonian(s: OscState) -> float:
    return energy(s.q, s.p, s.omega)


def exact_path(s0: OscState, ts):
    """Closed-form (q, p) at the times ts (a scalar or an array): rotation
    of (q, p/omega) at frequency omega."""
    w = s0.omega
    # an overflowing phase or p / omega gives non-finite values; callers report them
    with np.errstate(over="ignore", invalid="ignore"):
        wt = w * ts
        c, s = np.cos(wt), np.sin(wt)
        return s0.q * c + (s0.p / w) * s, s0.p * c - w * s0.q * s


def exact_flow(s0: OscState, t: float) -> OscState:
    """Closed-form solution at one time t."""
    q, p = exact_path(s0, t)
    return OscState(float(q), float(p), s0.omega)


def rk4_path(rhs: Callable[[np.ndarray], np.ndarray], y0, t_end: float, steps: int):
    """Classical fixed-step RK4 for an autonomous system dy/dt = rhs(y).

    Returns (ts, ys) with ts of length steps+1 including t = 0 and ys of
    shape (steps+1, len(y0)).  Raises IntegrationError naming the step at
    the first non-finite state.

    The package integrates with ``rk4_linear_path``; this loop stays as the
    tests' step-by-step reference and the benchmark's traced integrator
    (``bench/spans.py`` looks it up by name).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    y = np.asarray(y0, dtype=float)
    h = t_end / steps
    ts = np.linspace(0.0, t_end, steps + 1)
    ys = np.empty((steps + 1, y.size))
    ys[0] = y
    for k in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.isfinite(y).all():
            raise IntegrationError(
                f"non-finite state at step {k + 1} (t = {ts[k + 1]:.6g})"
            )
        ys[k + 1] = y
    return ts, ys


def rk4_linear_path(a, y0, t_end: float, steps: int):
    """Classical fixed-step RK4 for a linear system dy/dt = a @ y.

    Same contract as ``rk4_path``.  For constant ``a`` one RK4 step is the
    matrix P = sum_{k<=4} (h a)^k / k!, the method's stability polynomial,
    so the trajectory is y_k = P^k y0: still RK4 with the same truncation
    error, only rounded differently.  P is built once by Horner's rule and
    the states are filled in place by doubling, on (d, steps + 1) component
    rows: ys[:, m:2m] = P^m @ ys[:, :m], which takes O(log steps) matrix
    products along the long sample axis (Moler & Van Loan, "Nineteen
    dubious ways to compute the exponential of a matrix", 2003), then one
    scan for non-finite states.  Doubling stops at the last finite power of
    P; later states are filled in blocks of that power, so an overflowing
    power never reports a step before the state itself turns non-finite.
    The step named is the first whose state is non-finite; ``rk4_path`` can
    stop one step earlier when its stage values (such as a @ y) overflow
    before the state does.

    The function is the grid ts, the rows of ``_rk4_linear_rows`` and that
    scan (``_check_states``); ys is the (steps + 1, d) transposed view of
    the rows, so ``ys.T`` gives them back contiguous, without a copy.
    ``verify_lax_representation`` takes the rows alone, on its own grid, and
    scans them only when its reduction over them is non-finite; the
    generator ``a`` is formed once by the caller.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    ts = np.linspace(0.0, t_end, steps + 1)
    ys = _rk4_linear_rows(a, y0, t_end, steps)
    _check_states("", ys, ts)
    return ts, ys.T


def _rk4_linear_rows(a, y0, t_end: float, steps: int, out=None) -> np.ndarray:
    """The states of ``rk4_linear_path`` as component rows, shape
    (len(y0), steps + 1), unchecked (a run that overflows leaves non-finite
    samples for the caller's ``_check_states``), written into ``out`` when
    given.  Each block of samples is one product P^s @ ys[:, ...] along the
    contiguous sample axis; it has the bits of the sample-major product
    ys[...] @ (P^s)^T."""
    y = np.asarray(y0, dtype=float)
    ys = np.empty((y.size, steps + 1)) if out is None else out
    ys[:, 0] = y
    eye = np.eye(y.size)
    with np.errstate(over="ignore", invalid="ignore"):
        ha = (t_end / steps) * np.asarray(a, dtype=float)
        power = eye + ha / 4.0
        for d in (3.0, 2.0, 1.0):
            power = eye + (ha @ power) / d
        # the ladder P^(2^j), 2^j <= steps; a square of a non-finite matrix is
        # non-finite (inf * 0 is NaN), so its finite powers are a prefix, and
        # one scan of its last rung finds them in a run that stays finite
        ladder = [power]
        while 1 << len(ladder) <= steps:
            ladder.append(ladder[-1] @ ladder[-1])
        while len(ladder) > 1 and not np.isfinite(ladder[-1]).all():
            ladder.pop()
        top = 1 << (len(ladder) - 1)
        m = 1
        while m <= steps:
            # samples [m, m + count) are P^stride times samples [m - stride, ...):
            # doubling up to the last finite power, then blocks of it
            stride = min(m, top)
            count = min(stride, steps + 1 - m)
            np.matmul(ladder[stride.bit_length() - 1], ys[:, m - stride : m - stride + count],
                      out=ys[:, m : m + count])
            m += count
    return ys


def _check_states(stage: str, ys: np.ndarray, ts: np.ndarray) -> None:
    """Raise IntegrationError, its message led by ``stage``, at the first
    non-finite state of an RK4 run, given as component rows, after its
    seed ys[:, 0]."""
    if not np.isfinite(ys[:, 1:]).all():
        # samples are only ever built from earlier samples, so the first
        # non-finite one is the step where the state turned
        k = 1 + int(np.argmin(np.isfinite(ys[:, 1:]).all(axis=0)))
        raise IntegrationError(f"{stage}non-finite state at step {k} (t = {ts[k]:.6g})")


def hamilton_generator(omega: float) -> np.ndarray:
    """Generator of Hamilton's equations on (q, p): [[0, 1], [-omega^2, 0]]."""
    _check_omega(omega)
    return np.array([[0.0, 1.0], [-omega * omega, 0.0]])


def m_matrix(omega: float) -> Operation:
    """The constant rotation generator (omega/2) [[0, -1], [1, 0]]."""
    _check_omega(omega)
    return Operation(2, 1, 0.5 * omega * _ROTATION)


def lax_matrices(s: OscState) -> tuple[Operation, Operation]:
    """(L, M) as degree-1 operations on R^2.

    L is symmetric and traceless with tr(L^2) = 4H; M is ``m_matrix``.
    """
    wq = s.omega * s.q
    return Operation(2, 1, np.array([[s.p, wq], [wq, -s.p]])), m_matrix(s.omega)


def aux_algebraic(s: OscState) -> AuxValues:
    """Pointwise principal-branch auxiliary values at a state: the root
    A+ + i A- = sqrt(2 (p + i w q)) with A+ >= 0, from ``cmath.sqrt``,
    which takes the root without cancellation (Kahan, "Branch Cuts for
    Complex Elementary Functions", 1987).  A zero w q is read as +0, so
    A- >= 0 on the cut q = 0, p < 0; at the origin all four values are 0.
    """
    z = cmath.sqrt(complex(2.0 * s.p, 2.0 * (s.omega * s.q) + 0.0))
    ap, am = z.real, z.imag
    dp = 0.5 * ap * (ap * ap - 3.0 * am * am)
    dm = 0.5 * am * (3.0 * ap * ap - am * am)
    return AuxValues(ap, am, dp, dm)


def aux_exact_flow(a0: AuxValues, omega: float, t) -> AuxValues:
    """Smooth dynamic continuation of a t = 0 seed, at a time or an array
    of times (then every field is an array).

    Rotates (A+, A-) by x = omega*t/2 and (D+, D-) by 3x; this is the
    unique solution of the rotation laws G = 0 and preserves A+^2 + A-^2
    and D+^2 + D-^2 exactly.  Only x goes through cos and sin: the 3x
    rotation is their cube, cos 3x = c (c^2 - 3 s^2) and
    sin 3x = s (3 c^2 - s^2), so D+ + i D- = (A+ + i A-)^3 / 2 holds along
    the flow to rounding at any t, and 3x is never rounded.
    """
    # an overflowing phase omega t / 2 gives non-finite values; callers report them
    with np.errstate(over="ignore", invalid="ignore"):
        half = 0.5 * omega * t
        c1, s1 = np.cos(half), np.sin(half)
        cc, ss = c1 * c1, s1 * s1
        c3, s3 = c1 * (cc - 3.0 * ss), s1 * (3.0 * cc - ss)
        return AuxValues(
            a0.a_plus * c1 - a0.a_minus * s1,
            a0.a_minus * c1 + a0.a_plus * s1,
            a0.d_plus * c3 - a0.d_minus * s3,
            a0.d_minus * c3 + a0.d_plus * s3,
        )


def aux_generator(omega: float) -> np.ndarray:
    """Generator of the rotation laws on (A+, A-, D+, D-): (A+, A-) rotate at
    omega/2 and (D+, D-) at 3 omega/2: M and 3 M, with M = ``m_matrix``.
    It is omega/2 times the constant pattern kron(diag(1, 3), J), the same
    bits as the Kronecker product of diag(1, 3) with M."""
    _check_omega(omega)
    return (0.5 * omega) * _AUX_PATTERN
