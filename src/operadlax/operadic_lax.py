"""Isospectral evolution of binary structure constants in two dimensions.

A time-dependent binary operation mu on V = R^2 satisfies the operadic Lax
equation

    d(mu)/dt = [M, mu] = M • mu - mu • M,       |mu| = 1, |M| = 0,

with M = (omega/2) [[0, -1], [1, 0]].  Expanding the bracket on basis
vectors gives the equivalent index form (``lax_rhs_index``, any dim)

    d(mu^i_jk)/dt = mu^s_jk M^i_s - M^s_j mu^i_sk - M^s_k mu^i_js.

The equation is linear in mu: ``lax_generator`` is its 8x8 matrix, built
once from the index form on the basis tensors.  It is the one production
route to [M, mu]: it drives the RK4 runs of mu, the verifier's Lax
residual, ``grid_lax_residual`` and ``pde_residual``.  The abstract bracket
and the eight hand-expanded ODEs for dim 2 live in the tests
(``tests/reference_rhs.py``) as independent oracles; the agreement of all
routes is a test target, not an assumption.

The general solution is an 8-parameter family mu = K(C) a, linear in the
parameters C1..C8 and in the oscillator's auxiliary functions
a = (A+, A-, D+, D-) (``closed_form_mu``).  The family solves the Lax
equation exactly when K(C) R = A K(C), with R the rotation-law generator
(``aux_generator``) and A the Lax generator (``lax_generator``).  Then the
residual of the eight ODEs is

    d(mu)/dt - A mu = K(C) (a_dot - R a) = K(C) G,

the family itself evaluated at the four rotation-law residuals G, for any,
even off-trajectory, (aux, aux_dot): ``closed_form_mu(G, C)``.  On
trajectories the G's vanish, so the family solves the Lax equation; the
whole chain is verified numerically end to end by
``verify_lax_representation``.

Component order everywhere (flat index alpha = 0..7, 1-based labels):

    (mu111, mu112, mu121, mu122, mu211, mu212, mu221, mu222)

which is exactly the row-major layout of the (2, 2, 2) coefficient tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multilinear import Operation, _norm
from .oscillator import (
    AuxValues,
    IntegrationError,
    OscState,
    _central_difference,
    aux_algebraic,
    aux_exact_flow,
    energy,
    hamilton_generator,
    hamiltonian,
    m_matrix,
    rk4_linear_path,
)

__all__ = [
    "COMPONENT_NAMES",
    "StructureConstants2",
    "SolutionParams",
    "CheckResult",
    "VerificationReport",
    "BranchLocusError",
    "lax_rhs_index",
    "lax_generator",
    "closed_form_mu",
    "closed_form_path",
    "grid_lax_residual",
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


def lax_generator(omega: float) -> np.ndarray:
    """The 8x8 matrix A of d(mu)/dt = A mu in the canonical component order:
    ``lax_rhs_index`` applied once to the eight basis tensors."""
    basis = np.eye(8).reshape(8, 2, 2, 2)
    return lax_rhs_index(basis, m_matrix(omega).coeffs).reshape(8, 8).T


def _mu_components(aux: AuxValues, c: np.ndarray) -> np.ndarray:
    """The eight closed-form components; broadcasts over array aux values."""
    ap, am, dp, dm = aux.a_plus, aux.a_minus, aux.d_plus, aux.d_minus
    c1, c2, c3, c4, c5, c6, c7, c8 = c
    # overflow leaves non-finite entries, which the callers' checks report
    with np.errstate(over="ignore", invalid="ignore"):
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
    aux trajectory it solves the operadic Lax equation.  Being linear with
    constant coefficients, the same map K(C) sends aux rates to d(mu)/dt,
    and as K(C) R = A K(C) (R = ``aux_generator``, A = ``lax_generator``)

        d(closed form)/dt - A (closed form) = K(C) (aux_dot - R aux) = K(C) G:

    evaluated at the rotation-law residuals G (``g_values``) it gives the
    closed form's Lax-equation residuals, for any (aux, aux_dot) at all.
    """
    return StructureConstants2(_mu_components(aux, params.values))


def closed_form_path(a0: AuxValues, omega: float, ts, c) -> np.ndarray:
    """Closed-form mu along the smooth aux flow from the seed a0, shape
    (len(ts), 8) for the parameter values c."""
    return _mu_components(aux_exact_flow(a0, omega, ts), c)


def grid_lax_residual(mu: np.ndarray, dt: float, omega: float) -> np.ndarray:
    """Per-sample || d(mu)/dt - [M, mu] || of a sampled trajectory mu, shape
    (samples, 8), with on-grid differences and [M, mu] as ``lax_generator``.

    Second-order central differences inside, second-order one-sided at the
    endpoints, so the result scales as dt^2 for smooth trajectories.
    """
    dmu = np.empty_like(mu)
    dmu[1:-1] = (mu[2:] - mu[:-2]) / (2.0 * dt)
    dmu[0] = (-3.0 * mu[0] + 4.0 * mu[1] - mu[2]) / (2.0 * dt)
    dmu[-1] = (3.0 * mu[-1] - 4.0 * mu[-2] + mu[-3]) / (2.0 * dt)
    return _norm(dmu - mu @ lax_generator(omega).T, axis=1)


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
      mu(t) and the RK4 integration of the Lax equation seeded with the
      t = 0 closed-form value (isolates integrator truncation);
    * lax_equation_residual - max Frobenius norm of d(mu)/dt - [M, mu],
      with the derivative by central differences (step h_fd) on the
      closed form and the bracket as ``lax_generator``;
    * mu_norm_drift         - max drift of the Frobenius norm of the
      closed-form mu (conserved: the evolution is a pair of rotations);
    * hamiltonian_drift     - max energy drift of an RK4 trajectory of
      (q, p) on the same grid.

    Both RK4 runs integrate linear systems, so they use
    ``rk4_linear_path``: the mu run with ``lax_generator``, the (q, p) run
    with Hamilton's generator.
    They are classical RK4 and agree with a step-by-step loop up to
    rounding.

    Each check passes iff its max residual is <= tol.  A non-finite closed
    form raises ``IntegrationError`` before the RK4 run it would seed.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive, got {tol}")
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be positive, got {t_end}")
    omega = s0.omega
    cvals = params.values
    ts = np.linspace(0.0, t_end, steps + 1)
    a0 = aux_algebraic(s0)

    mu_cf = closed_form_path(a0, omega, ts, cvals)
    if not np.isfinite(mu_cf).all():
        k = int(np.argmin(np.isfinite(mu_cf).all(axis=1)))  # the first non-finite row
        raise IntegrationError(f"closed_form: non-finite value at sample {k} (t = {ts[k]:.6g})")
    generator = lax_generator(omega)

    try:
        _, mu_rk4 = rk4_linear_path(generator, mu_cf[0], t_end, steps)
    except IntegrationError as exc:
        raise IntegrationError(f"closed_form_vs_rk4: {exc}") from exc
    gap = float(np.max(np.abs(mu_cf - mu_rk4)))

    dmu = _central_difference(lambda t: closed_form_path(a0, omega, t, cvals), ts, h_fd)
    lax_res = float(np.max(_norm(dmu - mu_cf @ generator.T, axis=1)))

    norms = _norm(mu_cf, axis=1)
    norm_drift = float(np.max(np.abs(norms - norms[0])))

    try:
        _, qp = rk4_linear_path(hamilton_generator(omega), [s0.q, s0.p], t_end, steps)
    except IntegrationError as exc:
        raise IntegrationError(f"hamiltonian_drift: {exc}") from exc
    energies = energy(qp[:, 0], qp[:, 1], omega)
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
    branch, the transport velocity is ``hamilton_generator`` applied to
    (q, p) and [M, mu] is ``lax_generator`` applied to mu.  Partials by
    central differences, so the residual is
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
        return _mu_components(aux_algebraic(OscState(q, p, omega)), cvals)

    dq = _central_difference(lambda q: mu_at(q, s.p), s.q, h_fd)
    dp = _central_difference(lambda p: mu_at(s.q, p), s.p, h_fd)
    q_dot, p_dot = hamilton_generator(omega) @ (s.q, s.p)
    advect = q_dot * dq + p_dot * dp
    commutator = lax_generator(omega) @ _mu_components(aux, cvals)
    return float(_norm((advect - commutator)[None], axis=1)[0])
