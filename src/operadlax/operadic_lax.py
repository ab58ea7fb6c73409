"""Isospectral evolution of binary structure constants in two dimensions.

A time-dependent binary operation mu on V = R^2 satisfies the operadic Lax
equation

    d(mu)/dt = [M, mu] = M • mu - mu • M,       |mu| = 1, |M| = 0,

with M = (omega/2) [[0, -1], [1, 0]].  Expanding the bracket on basis
vectors gives the equivalent index form (``lax_rhs_index``, any dim)

    d(mu^i_jk)/dt = mu^s_jk M^i_s - M^s_j mu^i_sk - M^s_k mu^i_js.

The equation is linear in mu: ``lax_generator`` is its 8x8 matrix
A = (omega/2) P, with the integer pattern P of M = J = [[0, -1], [1, 0]]
built once, at import, from the index form on the basis tensors; a call
only scales it.  It is the one production
route to [M, mu]: it drives the RK4 runs of mu, the verifier's Lax
residual and, as exp(hA), ``step_defect``'s exact step.  The abstract bracket
and the eight hand-expanded ODEs for dim 2 live in the tests
(``tests/reference_rhs.py``) as independent oracles; the agreement of all
routes is a test target, not an assumption.

The general solution is an 8-parameter family mu = K(C) a, linear in the
parameters C1..C8 and in the oscillator's auxiliary functions
a = (A+, A-, D+, D-) (``closed_form_path(aux, c)`` on the aux values it is
given, ``closed_form_mu`` its scalar wrapper).  With rows in the component
order below and columns (A+, A-, D+, D-),

    K(C) = [[ C6,               C5,            C8,   C7],
            [ C1,               C2,           -C7,   C8],
            [-(C1 + C3 + C5),   C6 - C2 - C4, -C7,   C8],
            [ C4,              -C3,           -C8,  -C7],
            [ C3,               C4,           -C7,   C8],
            [ C6 - C2 - C4,     C1 + C3 + C5, -C8,  -C7],
            [ C2,              -C1,           -C8,  -C7],
            [-C5,               C6,            C7,  -C8]],

formed once per call and applied to all samples as one matrix product
(the eight sums written out term by term are the tests' oracle,
``tests/reference_rhs.py``).  The family solves the Lax
equation exactly when K(C) R = A K(C), with R the rotation-law generator
(``aux_generator``) and A the Lax generator (``lax_generator``).  Then the
residual of the eight ODEs is

    d(mu)/dt - A mu = K(C) (a_dot - R a) = K(C) G,

the family itself evaluated at the four rotation-law residuals G, for any,
even off-trajectory, (aux, aux_dot): ``closed_form_mu(G, C)``.  On
trajectories the G's vanish, so the family solves the Lax equation; on
phase space that is the transport equation X(mu) = [M, mu] along
Hamilton's field X, which moves a as R a.  The whole chain is verified end
to end by ``verify_lax_representation``, which takes d(mu)/dt on the flow
exactly as K(C) R a; ``sample_rows`` samples the same flow as rows of one
block, writing the aux and K(C) a through the same helper.

Component order everywhere (flat index alpha = 0..7, 1-based labels):

    (mu111, mu112, mu121, mu122, mu211, mu212, mu221, mu222)

which is exactly the row-major layout of the (2, 2, 2) coefficient tensor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .multilinear import Operation, _sample_norms
from .oscillator import (
    _ROTATION,
    AuxValues,
    IntegrationError,
    OscState,
    _check_omega,
    _check_states,
    _pattern,
    _rk4_linear_rows,
    aux_algebraic,
    aux_exact_flow,
    aux_generator,
    energy,
    exact_path,
    hamilton_generator,
)

__all__ = [
    "COMPONENT_NAMES",
    "StructureConstants2",
    "SolutionParams",
    "CheckResult",
    "VerificationReport",
    "lax_rhs_index",
    "lax_generator",
    "closed_form_mu",
    "closed_form_path",
    "step_defect",
    "sample_rows",
    "verify_lax_representation",
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

    def to_json(self) -> str:
        """The report as indented JSON text, as the CLI prints it."""
        return json.dumps(self.to_dict(), indent=2) + "\n"


def lax_rhs_index(mu: np.ndarray, m: np.ndarray) -> np.ndarray:
    """[M, mu] via the index formula, for any dimension n.

    mu has shape (..., n, n, n) (output index first), m shape (n, n) with
    m[s, i] the e_s-coefficient of M(e_i); leading batch axes broadcast.
    """
    mu = np.asarray(mu, dtype=float)
    m = np.asarray(m, dtype=float)
    n = len(m) if m.ndim else 0  # a 0-d m has no length, and fails the check
    if m.shape != (n, n) or mu.shape[-3:] != (n, n, n):
        raise ValueError(f"shape mismatch: mu {mu.shape}, m {m.shape}")
    return (
        np.einsum("...sjk,is->...ijk", mu, m)
        - np.einsum("sj,...isk->...ijk", m, mu)
        - np.einsum("sk,...ijs->...ijk", m, mu)
    )


# [J, mu] on the eight basis tensors: the Lax generator for omega = 2
_LAX_PATTERN = _pattern(lax_rhs_index(np.eye(8).reshape(8, 2, 2, 2), _ROTATION).reshape(8, 8).T)


def lax_generator(omega: float) -> np.ndarray:
    """The 8x8 matrix A of d(mu)/dt = A mu in the canonical component order:
    omega/2 times the constant pattern that ``lax_rhs_index`` gives on the
    eight basis tensors for M = J.  Its entries are small integers and
    signed zeros, so the product has the same bits as ``lax_rhs_index``
    applied to the basis tensors with M = ``m_matrix(omega)``."""
    _check_omega(omega)
    return (0.5 * omega) * _LAX_PATTERN


def _k_matrix(c: np.ndarray) -> tuple[np.ndarray, float]:
    """K(C) and the factor that scales its products back (``_times_k``)."""
    cs = np.asarray(c, dtype=float).tolist()
    # an entry of K adds up to three C's: formed at a quarter scale when one
    # C reaches 2^1022, it stays finite, and the factor 4 back is exact
    scale = 4.0 if max(map(abs, cs)) >= 2.0**1022 else 1.0
    c1, c2, c3, c4, c5, c6, c7, c8 = (x / scale for x in cs)
    return np.array([
        [c6, c5, c8, c7],
        [c1, c2, -c7, c8],
        [-(c1 + c3 + c5), c6 - c2 - c4, -c7, c8],
        [c4, -c3, -c8, -c7],
        [c3, c4, -c7, c8],
        [c6 - c2 - c4, c1 + c3 + c5, -c8, -c7],
        [c2, -c1, -c8, -c7],
        [-c5, c6, c7, -c8],
    ]), scale


def _aux_rows(aux: AuxValues, out=None) -> np.ndarray:
    """The aux fields stacked as rows, shape (4, ...); with ``out``, a (4, n)
    block filled row by row."""
    if out is None:
        return np.array([aux.a_plus, aux.a_minus, aux.d_plus, aux.d_minus], dtype=float)
    out[0], out[1], out[2], out[3] = aux.a_plus, aux.a_minus, aux.d_plus, aux.d_minus
    return out


def _times_k(k: np.ndarray, scale: float, rows: np.ndarray, out=None) -> np.ndarray:
    """k @ rows: K(C) (or K(C) R) on the (4, n) aux rows, as (8, n)
    component rows scaled back by ``scale`` (``_k_matrix``)."""
    # overflow leaves non-finite entries, which the callers' checks report
    with np.errstate(over="ignore", invalid="ignore"):
        mu = np.matmul(k, rows, out=out)
        if scale != 1.0:
            mu *= scale
    return mu


def closed_form_mu(aux: AuxValues, params: SolutionParams) -> StructureConstants2:
    """Structure constants of the closed-form solution family, K(C) a.

    Linear both in the parameters and in (A+, A-, D+, D-); evaluated on an
    aux trajectory it solves the operadic Lax equation.  Evaluated at the
    rotation-law residuals G = a_dot - R a (R = ``aux_generator``) it gives
    the closed form's Lax-equation residuals K(C) G, for any (aux, aux_dot)
    at all (see the module docstring).
    """
    return StructureConstants2(closed_form_path(aux, params.values))


def closed_form_path(aux: AuxValues, c) -> np.ndarray:
    """The closed form K(C) a on the aux values given, shape (..., 8) for aux
    fields of shape (...) (a trajectory: ``aux_exact_flow(a0, omega, ts)``),
    with c checked as ``SolutionParams`` checks it: one product of K(C) with
    the aux stacked as (4, n) rows.  The result is a view of the (8, ...)
    component rows, so for a trajectory ``.T`` gives them back contiguous."""
    k, scale = _k_matrix(_flat8(c, "solution parameters"))
    rows = _aux_rows(aux)
    mu = _times_k(k, scale, rows.reshape(4, -1)).reshape((8,) + rows.shape[1:])
    return np.moveaxis(mu, 0, -1)


def _propagator(omega: float, h: float) -> np.ndarray:
    """exp(hA), A = ``lax_generator(omega)``: A is M = (omega/2) J acting on each
    of mu's three slots, so exp(hA) = R x R x R, R the rotation by omega h / 2."""
    _check_omega(omega)
    if not math.isfinite(h):
        raise ValueError(f"h must be finite, got {h}")
    # an overflowing phase gives NaN rows, which callers report
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.cos(0.5 * omega * h) * np.eye(2) + np.sin(0.5 * omega * h) * _ROTATION
    return np.kron(np.kron(r, r), r)


def step_defect(mu: np.ndarray, omega: float, h: float) -> np.ndarray:
    """Per-sample || mu[k] - exp(hA) mu[k-1] || of mu, shaped (samples, 8) and sampled
    every h, with row 0 = 0.0: rounding on an exact trajectory, the local truncation
    error on an RK4 run.  Needs a positive omega and a finite h (ValueError otherwise).

    It runs on the (8, samples) component rows mu.T, contiguous when mu is the view
    ``closed_form_path`` or ``rk4_linear_path`` returns; other input is read through
    its transpose, uncopied."""
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 2 or mu.shape[1] != 8:
        raise ValueError(f"step_defect needs mu shaped (samples, 8), got {mu.shape}")
    rows = mu.T
    res = np.zeros(rows.shape)
    np.matmul(_propagator(omega, h), rows[:, :-1], out=res[:, 1:])
    # whole rows subtract faster than their strided tails; sample 0 is reset after
    np.subtract(rows, res, out=res)
    res[:, :1] = 0.0
    return _sample_norms(res)


def _require_finite(stage: str, rows: np.ndarray, ts: np.ndarray) -> None:
    if not np.isfinite(rows).all():
        k = int(np.argmin(np.isfinite(rows).all(axis=0)))  # the first non-finite sample
        raise IntegrationError(f"{stage}: non-finite value at sample {k} (t = {ts[k]:.6g})")


def _max_gap(a, b, out) -> float:
    return float(np.max(np.abs(np.subtract(a, b, out=out), out=out)))


def _check_grid(t_end: float, steps: int) -> None:
    """Refuse a grid of steps + 1 samples of [0, t_end] that no run moves along."""
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be positive, got {t_end}")
    if not t_end / steps > 0:  # a step that underflows moves no RK4 run
        raise ValueError(f"step t_end / steps must be positive, got {t_end} / {steps}")


def _closed_form_rows(a0: AuxValues, omega: float, ts: np.ndarray, c: np.ndarray,
                      out: np.ndarray) -> tuple[np.ndarray, float]:
    """The aux flow of a0 over ts, then the closed form K(C) a on it, as the
    (12, N) rows ``out``; returns K(C) and its scale (``_k_matrix``)."""
    _aux_rows(aux_exact_flow(a0, omega, ts), out=out[:4])
    k, scale = _k_matrix(c)
    _times_k(k, scale, out[:4], out=out[4:])
    return k, scale


def sample_rows(params: SolutionParams, s0: OscState, t_end: float, steps: int,
                integrator: str) -> np.ndarray:
    """``simulate``'s table, transposed: one C-contiguous (17, steps + 1)
    block of rows over [0, t_end], namely t, q, p, H, the aux (A+, A-, D+,
    D-), the eight mu components and their ``step_defect``.  ``"exact"``
    takes (q, p) from ``exact_path`` and the rest from the closed form on
    ``aux_exact_flow``; ``"rk4"`` integrates (q, p), the aux and mu as
    ``rk4_linear_path`` does, from s0, ``aux_algebraic(s0)`` and
    ``closed_form_mu`` of that.  A bad integrator or grid raises
    ``ValueError``; a non-finite RK4 state or sample, ``IntegrationError``.
    """
    if integrator not in ("exact", "rk4"):
        raise ValueError(f"integrator must be exact or rk4, got {integrator!r}")
    _check_grid(t_end, steps)
    omega = s0.omega
    a0 = aux_algebraic(s0)
    rows = np.empty((17, steps + 1))
    rows[0] = ts = np.linspace(0.0, t_end, steps + 1)

    # overflow leaves non-finite values, which the scan at the end reports
    with np.errstate(over="ignore", invalid="ignore"):
        if integrator == "exact":
            rows[1], rows[2] = exact_path(s0, ts)
            _closed_form_rows(a0, omega, ts, params.values, rows[4:16])
        else:
            def rk4(generator, y0, out):
                _check_states("", _rk4_linear_rows(generator, y0, t_end, steps, out), ts)

            rk4(hamilton_generator(omega), [s0.q, s0.p], rows[1:3])
            rk4(aux_generator(omega), _aux_rows(a0), rows[4:8])
            rk4(lax_generator(omega), closed_form_mu(a0, params).values, rows[8:16])
        rows[3] = energy(rows[1], rows[2], omega)
        rows[16] = step_defect(rows[8:16].T, omega, t_end / steps)
    if not np.isfinite(rows).all():
        bad = int(np.argmin(np.isfinite(rows).all(axis=0)))  # the first bad sample
        raise IntegrationError(f"non-finite value in sample {bad}")
    return rows


def verify_lax_representation(
    params: SolutionParams,
    s0: OscState,
    t_end: float,
    steps: int,
    tol: float,
    seed=None,
) -> VerificationReport:
    """End-to-end verification of the closed-form Lax representation.

    Over steps+1 samples of [0, t_end]:

    * closed_form_vs_rk4    - max componentwise gap between the closed-form
      mu(t) and the RK4 integration of the Lax equation seeded with the
      t = 0 closed-form value (isolates integrator truncation);
    * lax_equation_residual - max Frobenius norm of d(mu)/dt - [M, mu],
      with the closed form's exact derivative K(C) R a (R = ``aux_generator``)
      and the bracket as ``lax_generator``: rounding iff A K(C) = K(C) R;
    * mu_norm_drift         - max drift of the Frobenius norm of the
      closed-form mu (conserved: the evolution is a pair of rotations);
    * hamiltonian_drift     - max energy drift of an RK4 trajectory of
      (q, p) on the same grid.

    Both RK4 runs integrate linear systems as ``rk4_linear_path`` does
    (classical RK4, equal to a step-by-step loop up to rounding): the mu
    run with ``lax_generator``, the (q, p) run with Hamilton's generator.
    The grid ts and each generator are formed once per call.  Every
    per-sample array is rows of one component-major (22, N) block: the aux
    stack and closed form, as ``sample_rows`` writes its rows 4-15, the
    shared buffer and (q, p).  So each product (K(C) @ stack, the RK4
    ladder's P^s @ rows, the bracket A @ mu) runs along the long sample
    axis, and the norms and energies read contiguous rows.

    A bad grid (as ``sample_rows`` refuses it) or tol raises ``ValueError``.
    Each check passes iff its max residual is <= tol.  A non-finite closed
    form raises ``IntegrationError`` before the RK4 run it would seed, and
    so do a non-finite RK4 state and a non-finite d(mu)/dt - [M, mu].  Each
    check is its reduction followed by a scan of the rows behind it, which
    runs only when the reduction is non-finite; a reduction that overflows
    over finite rows is reported as it is (``Infinity`` in the CLI).
    """
    _check_grid(t_end, steps)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive, got {tol}")
    omega = s0.omega
    ts = np.linspace(0.0, t_end, steps + 1)
    generator = lax_generator(omega)
    # one fresh block, not four: once glibc frees a block this large it
    # raises its mmap and trim thresholds to fit, so the next call's block
    # comes from the heap without mapping fresh pages.  buf, the one other
    # (8, N) block: the norms' squares, the RK4 run of mu and its gap, then
    # [M, mu] and the squares of d(mu)/dt - [M, mu]
    block = np.empty((22, steps + 1))
    stack, mu_cf, buf, qp = block[:4], block[4:12], block[12:20], block[20:]

    with np.errstate(over="ignore", invalid="ignore"):
        k, scale = _closed_form_rows(aux_algebraic(s0), omega, ts, params.values, block[:12])
        norms = _sample_norms(mu_cf, out=buf)
        # past an infinite first norm the gaps are inf - inf; that drift is infinite
        norm_drift = _max_gap(norms, norms[0], norms) if math.isfinite(norms[0]) else math.inf
        if not math.isfinite(norm_drift):
            _require_finite("closed_form", mu_cf, ts)

        # the gap is taken in the run's rows, so its scan runs the RK4 again
        gap = _max_gap(_rk4_linear_rows(generator, mu_cf[:, 0], t_end, steps, buf), mu_cf, buf)
        if not math.isfinite(gap):
            mu_rk4 = _rk4_linear_rows(generator, mu_cf[:, 0], t_end, steps)
            _check_states("closed_form_vs_rk4: ", mu_rk4, ts)

        bracket = np.matmul(generator, mu_cf, out=buf)
        # exactly d(mu)/dt, in mu_cf's place
        dmu = _times_k(k @ aux_generator(omega), scale, stack, out=mu_cf)
        dmu -= bracket
        lax_res = float(np.max(_sample_norms(dmu, out=buf)))
        if not math.isfinite(lax_res):
            _require_finite("lax_equation_residual", dmu, ts)

        _rk4_linear_rows(hamilton_generator(omega), [s0.q, s0.p], t_end, steps, qp)
        energies = energy(qp[0], qp[1], omega)
        h_drift = _max_gap(energies, energies[0], energies)
        if not math.isfinite(h_drift):
            _check_states("hamiltonian_drift: ", qp, ts)

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
        "c": [float(x) for x in params.values],
        "t_end": float(t_end),
        "steps": int(steps),
        "tol": float(tol),
        "seed": seed,
    }
    # numpy scalars echo as the Python numbers they hold (np.float64 keeps its
    # bits), which json writes
    config = {k: v.item() if isinstance(v, np.generic) else v for k, v in config.items()}
    return VerificationReport(checks, config)

