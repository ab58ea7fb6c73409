"""Isospectral evolution of binary structure constants in two dimensions.

A time-dependent binary operation mu on V = R^2 satisfies the operadic Lax
equation

    d(mu)/dt = [M, mu] = M • mu - mu • M,       |mu| = 1, |M| = 0,

with M = (omega/2) [[0, -1], [1, 0]].  Expanding the bracket on basis
vectors gives the equivalent index form

    d(mu^i_jk)/dt = mu^s_jk M^i_s - M^s_j mu^i_sk - M^s_k mu^i_js

and, for dim 2 with the specific M above, eight explicit linear ODEs
(``lax_rhs_explicit``).  All three right-hand-side routes are implemented
independently; their agreement is a test target, not an assumption.

The general solution is an 8-parameter family, linear in the parameters
C1..C8 and in the oscillator's auxiliary functions (A+, A-, D+, D-)
(``closed_form_mu``).  The residual of the eight ODEs for that family
collapses onto the four rotation-law residuals G through a fixed 8x8
coefficient pattern (``reduced_lax_residuals``): the residual of the
alpha-th component equals sum_beta C_beta Gamma[beta][alpha], identically
in (aux, aux_dot).  On trajectories the G's vanish, so the family solves
the Lax equation; the whole chain is verified numerically end to end by
``verify_lax_representation``.

Component order everywhere (flat index alpha = 0..7, 1-based labels):

    (mu111, mu112, mu121, mu122, mu211, mu212, mu221, mu222)

which is exactly the row-major layout of the (2, 2, 2) coefficient tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multilinear import Operation
from .operad import bracket
from .oscillator import (
    AuxValues,
    IntegrationError,
    OscState,
    aux_algebraic,
    hamilton_generator,
    hamiltonian,
    rk4_linear_path,
)

__all__ = [
    "COMPONENT_NAMES",
    "StructureConstants2",
    "SolutionParams",
    "RotationResiduals",
    "CheckResult",
    "VerificationReport",
    "BranchLocusError",
    "m_matrix",
    "lax_rhs_bracket",
    "lax_rhs_index",
    "lax_rhs_explicit",
    "closed_form_mu",
    "closed_form_mu_dot",
    "g_values",
    "reduced_lax_residuals",
    "verify_lax_representation",
    "pde_residual",
]

COMPONENT_NAMES = (
    "mu111",
    "mu112",
    "mu121",
    "mu122",
    "mu211",
    "mu212",
    "mu221",
    "mu222",
)


class BranchLocusError(ValueError):
    """State too close to the principal-branch locus (A+ = 0) for smooth
    finite differences; test elsewhere."""


def _flat8(values, what: str) -> np.ndarray:
    arr = np.array(values, dtype=float).reshape(-1)
    if arr.size != 8:
        raise ValueError(f"{what} needs 8 entries, got {arr.size}")
    if not np.isfinite(arr).all():
        raise ValueError(f"non-finite entry in {what}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StructureConstants2:
    """The eight structure constants mu^i_jk of a binary operation on R^2,
    flat in the canonical component order."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _flat8(self.values, "structure constants"))

    def to_operation(self) -> Operation:
        """Exact (bit-identical) conversion to a degree-2 Operation."""
        return Operation(2, 2, self.values)

    @classmethod
    def from_operation(cls, op: Operation) -> "StructureConstants2":
        if (op.dim, op.degree) != (2, 2):
            raise ValueError(
                f"expected a binary operation on R^2, got dim {op.dim} "
                f"degree {op.degree}"
            )
        return cls(op.coeffs.reshape(8))


@dataclass(frozen=True, eq=False)
class SolutionParams:
    """The eight free parameters C1..C8 of the closed-form solution family."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _flat8(self.values, "solution parameters"))


@dataclass(frozen=True)
class RotationResiduals:
    """Residuals of the aux rotation laws: (G(A)+, G(A)-, G(D)+, G(D)-)."""

    a_plus: float
    a_minus: float
    d_plus: float
    d_minus: float


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    """Named residual checks plus an echo of the run configuration."""

    checks: tuple[CheckResult, ...]
    config: dict

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "checks": [
                {
                    "name": c.name,
                    "max_residual": c.max_residual,
                    "tolerance": c.tolerance,
                    "pass": c.passed,
                }
                for c in self.checks
            ],
            "config": dict(self.config),
        }


def m_matrix(omega: float) -> Operation:
    """The constant rotation generator (omega/2) [[0, -1], [1, 0]]."""
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be positive and finite, got {omega}")
    return Operation(2, 1, 0.5 * omega * np.array([[0.0, -1.0], [1.0, 0.0]]))


def lax_rhs_bracket(mu: Operation, m: Operation) -> Operation:
    """[M, mu] via the abstract Gerstenhaber bracket.

    Equals M(xy) - (Mx)y - x(My) on elements, since |M| = 0 makes the
    graded commutator an ordinary one.
    """
    if mu.dim != m.dim:
        raise ValueError(f"dim mismatch: {mu.dim} vs {m.dim}")
    return bracket(m, mu)


def lax_rhs_index(mu: np.ndarray, m: np.ndarray) -> np.ndarray:
    """[M, mu] via the index formula, for any dimension n.

    mu has shape (..., n, n, n) (output index first), m shape (n, n) with
    m[s, i] the e_s-coefficient of M(e_i); leading batch axes broadcast.
    """
    mu = np.asarray(mu, dtype=float)
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if m.shape != (n, n) or mu.shape[-3:] != (n, n, n):
        raise ValueError(f"shape mismatch: mu {mu.shape}, m {m.shape}")
    return (
        np.einsum("...sjk,is->...ijk", mu, m)
        - np.einsum("sj,...isk->...ijk", m, mu)
        - np.einsum("sk,...ijs->...ijk", m, mu)
    )


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
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be positive and finite, got {omega}")
    return StructureConstants2(_explicit_rhs(mu.values, omega))


def _mu_components(ap, am, dp, dm, c: np.ndarray) -> np.ndarray:
    """The eight closed-form components; broadcasts over array aux values."""
    c1, c2, c3, c4, c5, c6, c7, c8 = c
    return np.stack(
        [
            c5 * am + c6 * ap + c7 * dm + c8 * dp,
            c1 * ap + c2 * am - c7 * dp + c8 * dm,
            -c1 * ap - c2 * am - c3 * ap - c4 * am - c5 * ap + c6 * am - c7 * dp + c8 * dm,
            -c3 * am + c4 * ap - c7 * dm - c8 * dp,
            c3 * ap + c4 * am - c7 * dp + c8 * dm,
            c1 * am - c2 * ap + c3 * am - c4 * ap + c5 * am + c6 * ap - c7 * dm - c8 * dp,
            -c1 * am + c2 * ap - c7 * dm - c8 * dp,
            -c5 * ap + c6 * am + c7 * dp - c8 * dm,
        ],
        axis=-1,
    )


def closed_form_mu(aux: AuxValues, params: SolutionParams) -> StructureConstants2:
    """Structure constants of the closed-form solution family.

    Linear both in the parameters and in (A+, A-, D+, D-); evaluated on an
    aux trajectory it solves the operadic Lax equation.
    """
    return StructureConstants2(
        _mu_components(aux.a_plus, aux.a_minus, aux.d_plus, aux.d_minus, params.values)
    )


def closed_form_mu_dot(aux_dot: AuxValues, params: SolutionParams) -> StructureConstants2:
    """Time derivative of the closed form: the same constant-coefficient
    linear map applied to the aux rates."""
    return closed_form_mu(aux_dot, params)


def g_values(aux: AuxValues, aux_dot: AuxValues, omega: float) -> RotationResiduals:
    """Rotation-law residuals of an arbitrary (values, rates) pair."""
    w = 0.5 * omega
    return RotationResiduals(
        aux_dot.a_plus + w * aux.a_minus,
        aux_dot.a_minus - w * aux.a_plus,
        aux_dot.d_plus + 3.0 * w * aux.d_minus,
        aux_dot.d_minus - 3.0 * w * aux.d_plus,
    )


def reduced_lax_residuals(rot: RotationResiduals, params: SolutionParams) -> np.ndarray:
    """Predicted Lax-equation residuals of the closed form, from the G's alone.

    Row beta of the 8x8 pattern below collects the G-coefficients of
    parameter C_beta; contracting the parameter vector against the rows
    yields the residual of component alpha in the canonical order.  The
    identity

        d(closed form)/dt - rhs(closed form) = reduced_lax_residuals

    holds exactly for arbitrary, even off-trajectory, (aux, aux_dot).
    """
    g1, g2 = rot.a_plus, rot.a_minus
    g3, g4 = rot.d_plus, rot.d_minus
    pattern = np.array(
        [
            [0, g1, -g1, 0, 0, g2, -g2, 0],
            [0, g2, -g2, 0, 0, -g1, g1, 0],
            [0, 0, -g1, -g2, g1, g2, 0, 0],
            [0, 0, -g2, g1, g2, -g1, 0, 0],
            [g2, 0, -g1, 0, 0, g2, 0, -g1],
            [g1, 0, g2, 0, 0, g1, 0, g2],
            [g4, -g3, -g3, -g4, -g3, -g4, -g4, g3],
            [g3, g4, g4, -g3, g4, -g3, -g3, -g4],
        ]
    )
    return params.values @ pattern


def _aux_arrays(a0: AuxValues, omega: float, ts: np.ndarray):
    """Vectorized dynamic continuation of a t = 0 aux seed."""
    half = 0.5 * omega * ts
    c1, s1 = np.cos(half), np.sin(half)
    c3, s3 = np.cos(3.0 * half), np.sin(3.0 * half)
    return (
        a0.a_plus * c1 - a0.a_minus * s1,
        a0.a_minus * c1 + a0.a_plus * s1,
        a0.d_plus * c3 - a0.d_minus * s3,
        a0.d_minus * c3 + a0.d_plus * s3,
    )


def _closed_mu_at(a0: AuxValues, omega: float, ts: np.ndarray, c: np.ndarray):
    return _mu_components(*_aux_arrays(a0, omega, ts), c)


def verify_lax_representation(
    params: SolutionParams,
    s0: OscState,
    t_end: float,
    steps: int,
    tol: float,
    h_fd: float = 1e-4,
    seed=None,
) -> VerificationReport:
    """End-to-end verification of the closed-form Lax representation.

    Over steps+1 samples of [0, t_end]:

    * closed_form_vs_rk4    - max componentwise gap between the closed-form
      mu(t) and the RK4 integration of the explicit ODEs seeded with the
      t = 0 closed-form value (isolates integrator truncation);
    * lax_equation_residual - max Frobenius norm of d(mu)/dt - [M, mu],
      with the derivative by central differences (step h_fd) on the
      closed form and the bracket by the index formula, applied once to
      the eight basis tensors and then as an 8x8 matrix;
    * mu_norm_drift         - max drift of the Frobenius norm of the
      closed-form mu (conserved: the evolution is a pair of rotations);
    * hamiltonian_drift     - max energy drift of an RK4 trajectory of
      (q, p) on the same grid.

    Both RK4 runs integrate linear systems, so they use
    ``rk4_linear_path``: the mu run with the generator of the explicit
    eight-ODE right-hand side, the (q, p) run with Hamilton's generator.
    They are classical RK4 and agree with a step-by-step loop up to
    rounding.

    Each check passes iff its max residual is <= tol.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive, got {tol}")
    omega = s0.omega
    cvals = params.values
    ts = np.linspace(0.0, t_end, steps + 1)
    a0 = aux_algebraic(s0)

    mu_cf = _closed_mu_at(a0, omega, ts, cvals)

    try:
        _, mu_rk4 = rk4_linear_path(
            _explicit_rhs(np.eye(8), omega).T, mu_cf[0], t_end, steps
        )
    except IntegrationError as exc:
        raise IntegrationError(f"closed_form_vs_rk4: {exc}") from exc
    gap = float(np.max(np.abs(mu_cf - mu_rk4)))

    dmu = (
        _closed_mu_at(a0, omega, ts + h_fd, cvals)
        - _closed_mu_at(a0, omega, ts - h_fd, cvals)
    ) / (2.0 * h_fd)
    ad_m = lax_rhs_index(np.eye(8).reshape(8, 2, 2, 2), m_matrix(omega).coeffs)
    rhs = mu_cf @ ad_m.reshape(8, 8)
    lax_res = float(np.max(np.linalg.norm(dmu - rhs, axis=1)))

    norms = np.linalg.norm(mu_cf, axis=1)
    norm_drift = float(np.max(np.abs(norms - norms[0])))

    try:
        _, qp = rk4_linear_path(hamilton_generator(omega), [s0.q, s0.p], t_end, steps)
    except IntegrationError as exc:
        raise IntegrationError(f"hamiltonian_drift: {exc}") from exc
    energies = 0.5 * (qp[:, 1] ** 2 + omega * omega * qp[:, 0] ** 2)
    h_drift = float(np.max(np.abs(energies - energies[0])))

    checks = tuple(
        CheckResult(name, value, tol, value <= tol)
        for name, value in [
            ("closed_form_vs_rk4", gap),
            ("lax_equation_residual", lax_res),
            ("mu_norm_drift", norm_drift),
            ("hamiltonian_drift", h_drift),
        ]
    )
    config = {
        "omega": omega,
        "q0": s0.q,
        "p0": s0.p,
        "c": [float(x) for x in cvals],
        "t_end": float(t_end),
        "steps": int(steps),
        "tol": float(tol),
        "seed": seed,
    }
    return VerificationReport(checks, config)


def pde_residual(params: SolutionParams, s: OscState, h_fd: float = 1e-5) -> float:
    """Residual of the phase-space transport equation at a single state:

        p d(mu)/dq - omega^2 q d(mu)/dp - [M, mu],

    where mu(q, p) is the closed form through the pointwise principal
    branch.  Partials by central differences, so the residual is
    O(h_fd^2) on the smooth domain.  States within
    delta = 1e-6 (1 + sqrt(2H)) of the branch locus (|A+| <= delta) are
    refused: the finite differences would straddle a non-smooth branch.
    """
    omega = s.omega
    aux = aux_algebraic(s)
    delta = 1e-6 * (1.0 + math.sqrt(2.0 * hamiltonian(s)))
    if abs(aux.a_plus) <= delta:
        raise BranchLocusError(
            f"state (q, p) = ({s.q}, {s.p}) lies within {delta:.3g} of the "
            "principal-branch locus A+ = 0; evaluate the transport residual "
            "at an interior state instead"
        )
    cvals = params.values

    def mu_at(q: float, p: float) -> np.ndarray:
        a = aux_algebraic(OscState(q, p, omega))
        return _mu_components(a.a_plus, a.a_minus, a.d_plus, a.d_minus, cvals)

    inv = 1.0 / (2.0 * h_fd)
    dq = (mu_at(s.q + h_fd, s.p) - mu_at(s.q - h_fd, s.p)) * inv
    dp = (mu_at(s.q, s.p + h_fd) - mu_at(s.q, s.p - h_fd)) * inv
    advect = s.p * dq - omega * omega * s.q * dp
    commutator = lax_rhs_bracket(
        closed_form_mu(aux, params).to_operation(), m_matrix(omega)
    )
    return float(np.linalg.norm(advect - commutator.coeffs.reshape(8)))
