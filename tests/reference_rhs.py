"""Hand-expanded right-hand sides of the package's laws: the tests' oracles.

The package computes every law through its generator matrix
(``hamilton_generator``, ``aux_generator``, ``lax_generator``).  The forms
below write the same laws out by hand, independently of those matrices, so
that the tests can compare the generators against them.

* ``hamilton_rhs``  - Hamilton's equations, (p, -omega^2 q);
* ``aux_rhs``       - the rotation laws of (A+, A-, D+, D-);
* ``g_values``      - their residuals a_dot - R a for any (values, rates)
  pair, with R = ``aux_generator(omega)``;
* ``misrotated_flow`` - an aux flow that breaks the (D+, D-) law, for the
  mutant checks;
* ``max_step_defect_ratio`` - ``step_defect`` of the closed form on an aux
  flow over the rounding bound the true flow keeps (constant ``KAPPA``);
* ``_explicit_rhs`` and ``lax_rhs_explicit`` - the eight expanded ODEs of
  the operadic Lax equation d(mu)/dt = [M, mu] in dim 2;
* ``lax_rhs_bracket`` - [M, mu] through the abstract Gerstenhaber bracket;
* ``closed_form_reference`` - the closed-form family mu = K(C) a as eight
  sums of products C_i a_j, which the package forms as one matrix product;
* ``lax_generator_reference`` and ``aux_generator_reference`` - the two
  generators built from M = ``m_matrix(omega)`` on each call, the routes the
  package's constant patterns scaled by omega/2 replace bit for bit;
* ``aux_reference`` and ``assert_within_ulps`` - the principal aux seed
  (A+, A-) to 60 digits, and the ulp bound ``aux_algebraic`` is held to;
* ``rk4_linear_rows_loop`` - the RK4 rows by doubling, each square scanned as
  it is made: the loop ``_rk4_linear_rows`` ran before it scanned only the
  last rung of its ladder of powers;
* ``rk4_linear_rows_sample_major`` and ``verify_sample_major`` - the RK4 rows
  and the verifier as they ran before every per-sample block became (d, N)
  component rows: sample-major (N, d) arrays, each product ys @ P^T, each
  norm numpy's own over rows of eight.  The package's component-major
  routes are held to them byte for byte.
"""

import math
from dataclasses import astuple
from decimal import Decimal, localcontext

import numpy as np

from operadlax import (
    AuxValues,
    CheckResult,
    IntegrationError,
    Operation,
    OscState,
    StructureConstants2,
    VerificationReport,
    aux_algebraic,
    aux_exact_flow,
    aux_generator,
    bracket,
    closed_form_path,
    energy,
    hamilton_generator,
    lax_generator,
    lax_rhs_index,
    m_matrix,
    operadic_lax,
    step_defect,
)
from operadlax.multilinear import _norm
from operadlax.oscillator import _check_omega


def hamilton_rhs(s: OscState) -> tuple[float, float]:
    """(dq/dt, dp/dt) = (p, -omega^2 q)."""
    return (s.p, -s.omega * s.omega * s.q)


def aux_rhs(a: AuxValues, omega: float) -> AuxValues:
    """Exact time rates under the rotation laws: dA+- = -+(w/2) A-+, etc."""
    w = 0.5 * omega
    return AuxValues(
        -w * a.a_minus, w * a.a_plus, -3.0 * w * a.d_minus, 3.0 * w * a.d_plus
    )


def g_values(aux: AuxValues, aux_dot: AuxValues, omega: float) -> AuxValues:
    """Rotation-law residuals (G(A)+, G(A)-, G(D)+, G(D)-) of an arbitrary
    (values, rates) pair: aux_dot - R aux, with R = ``aux_generator(omega)``."""
    return AuxValues(
        *np.subtract(astuple(aux_dot), aux_generator(omega) @ astuple(aux))
    )


def misrotated_flow(d_rate: float):
    """``aux_exact_flow`` with (D+, D-) turning at d_rate * omega / 2 in
    place of 3 omega / 2: a wrong solution, to stand in for the flow."""
    def flow(a0: AuxValues, omega: float, t) -> AuxValues:
        x, y = 0.5 * omega * t, 0.5 * d_rate * omega * t
        c1, s1, c3, s3 = np.cos(x), np.sin(x), np.cos(y), np.sin(y)
        return AuxValues(a0.a_plus * c1 - a0.a_minus * s1, a0.a_minus * c1 + a0.a_plus * s1,
                         a0.d_plus * c3 - a0.d_minus * s3, a0.d_minus * c3 + a0.d_plus * s3)
    return flow


# the constant of the step-defect bound, fixed from the sweep in
# tests/test_properties.py and not from any probe: run on 5.5e4 drawn
# examples, its worst ratio was 10.8
KAPPA = 32.0


def max_step_defect_ratio(s0: OscState, c, t_end: float, steps: int, flow=aux_exact_flow):
    """max step_defect of the closed form on ``flow`` (the true aux flow by
    default) over kappa eps (1 + omega t_end) max|mu|."""
    ts = np.linspace(0.0, t_end, steps + 1)
    mu = closed_form_path(flow(aux_algebraic(s0), s0.omega, ts), c)
    bound = KAPPA * np.finfo(float).eps * (1.0 + s0.omega * t_end) * np.abs(mu).max()
    defect = step_defect(mu, s0.omega, t_end / steps).max()
    return defect / bound if bound else defect


def lax_rhs_bracket(mu: Operation, m: Operation) -> Operation:
    """[M, mu] via the abstract Gerstenhaber bracket.

    Equals M(xy) - (Mx)y - x(My) on elements, since |M| = 0 makes the
    graded commutator an ordinary one.
    """
    return bracket(m, mu)


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
    _check_omega(omega)
    return StructureConstants2(_explicit_rhs(mu.values, omega))


def closed_form_reference(aux: AuxValues, c) -> np.ndarray:
    """The eight closed-form components, each a sum of products C_i a_j
    evaluated left to right; broadcasts over array aux values."""
    ap, am, dp, dm = aux.a_plus, aux.a_minus, aux.d_plus, aux.d_minus
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


def lax_generator_reference(omega: float) -> np.ndarray:
    """``lax_rhs_index`` on the eight basis tensors with M = ``m_matrix(omega)``."""
    basis = np.eye(8).reshape(8, 2, 2, 2)
    return lax_rhs_index(basis, m_matrix(omega).coeffs).reshape(8, 8).T


def aux_generator_reference(omega: float) -> np.ndarray:
    """M and 3 M on the diagonal: ``np.kron(diag(1, 3), M)``."""
    return np.kron(np.diag([1.0, 3.0]), m_matrix(omega).coeffs)


def aux_reference(q, p, omega):
    """(A+, A-) of the principal root sqrt(2 (p + i omega q)) to 60 digits,
    rounded once.  The larger of |A+| and |A-| is sqrt(rt + |p|), with
    rt = sqrt(2H), and the other is omega q over it: no digit cancels, at
    any ratio of p to omega q."""
    with localcontext() as ctx:
        ctx.prec = 60
        wq, p = Decimal(omega) * Decimal(q), Decimal(p)
        big = ((p * p + wq * wq).sqrt() + abs(p)).sqrt()
        if p >= 0:
            return float(big), float(wq / big)
        big = -big if wq < 0 else big  # A- takes the sign of omega q
        return float(wq / big), float(big)


def assert_within_ulps(a, q, p, omega, ulps=4):
    want = aux_reference(q, p, omega)
    for got, ref in zip((a.a_plus, a.a_minus), want):
        assert abs(got - ref) <= ulps * math.ulp(ref), (q, p, omega, got, ref)


def rk4_linear_rows_loop(a, y0, t_end: float, steps: int, out=None) -> np.ndarray:
    """The rows of ``rk4_linear_path``, unchecked (a run that overflows
    leaves non-finite rows for the caller's ``_check_states``), written
    into ``out`` when given."""
    y = np.asarray(y0, dtype=float)
    ys = np.empty((steps + 1, y.size)) if out is None else out
    ys[0] = y
    eye = np.eye(y.size)
    with np.errstate(over="ignore", invalid="ignore"):
        ha = (t_end / steps) * np.asarray(a, dtype=float)
        power = eye + ha / 4.0
        for d in (3.0, 2.0, 1.0):
            power = eye + (ha @ power) / d
        m = stride = 1
        while m <= steps:
            # rows [m, m + count) are P^stride times rows [m - stride, ...)
            count = min(stride, steps + 1 - m)
            np.matmul(ys[m - stride : m - stride + count], power.T, out=ys[m : m + count])
            m += count
            # square only while the rows still double; after a non-finite
            # square m passes 2 * stride and the power stays fixed
            if m == 2 * stride and m <= steps:
                squared = power @ power
                if np.isfinite(squared).all():
                    power, stride = squared, m
    return ys


def rk4_linear_rows_sample_major(a, y0, t_end: float, steps: int, out=None) -> np.ndarray:
    """The rows of ``rk4_linear_path``, unchecked (a run that overflows
    leaves non-finite rows for the caller's ``_check_states``), written
    into ``out`` when given."""
    y = np.asarray(y0, dtype=float)
    ys = np.empty((steps + 1, y.size)) if out is None else out
    ys[0] = y
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
            # rows [m, m + count) are P^stride times rows [m - stride, ...):
            # doubling up to the last finite power, then blocks of it
            stride = min(m, top)
            count = min(stride, steps + 1 - m)
            np.matmul(ys[m - stride : m - stride + count], ladder[stride.bit_length() - 1].T,
                      out=ys[m : m + count])
            m += count
    return ys


def _check_states_sample_major(stage: str, ys: np.ndarray, ts: np.ndarray) -> None:
    if not np.isfinite(ys[1:]).all():
        k = 1 + int(np.argmin(np.isfinite(ys[1:]).all(axis=1)))
        raise IntegrationError(f"{stage}non-finite state at step {k} (t = {ts[k]:.6g})")


def _require_finite_sample_major(stage: str, values: np.ndarray, ts: np.ndarray) -> None:
    if not np.isfinite(values).all():
        k = int(np.argmin(np.isfinite(values).all(axis=1)))  # the first non-finite row
        raise IntegrationError(f"{stage}: non-finite value at sample {k} (t = {ts[k]:.6g})")


def _times_k_sample_major(rows: np.ndarray, k: np.ndarray, scale: float, out=None):
    with np.errstate(over="ignore", invalid="ignore"):
        mu = np.matmul(rows, k.T, out=out)
        if scale != 1.0:
            mu *= scale
    return mu


def _max_gap(a, b, out) -> float:
    return float(np.max(np.abs(np.subtract(a, b, out=out), out=out)))


def verify_sample_major(params, s0, t_end: float, steps: int, tol: float, seed=None):
    """``verify_lax_representation`` on sample-major blocks: the (4, N) aux
    stack read through its (N, 4) transpose, mu_cf and the shared buffer
    (N, 8) each and the (q, p) rows (N, 2), fresh on each call.  The aux
    flow and K(C) are looked up in ``operadic_lax`` on each call, so a test
    that replaces them there replaces them here too."""
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive, got {tol}")
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be positive, got {t_end}")
    if not t_end / steps > 0:  # a step that underflows moves neither RK4 run
        raise ValueError(f"step t_end / steps must be positive, got {t_end} / {steps}")
    omega = s0.omega
    ts = np.linspace(0.0, t_end, steps + 1)
    generator = lax_generator(omega)
    n = steps + 1
    stack, mu_cf, buf, qp = np.empty((4, n)), np.empty((n, 8)), np.empty((n, 8)), np.empty((n, 2))

    with np.errstate(over="ignore", invalid="ignore"):
        aux = operadic_lax.aux_exact_flow(aux_algebraic(s0), omega, ts)
        stack[0], stack[1], stack[2], stack[3] = aux.a_plus, aux.a_minus, aux.d_plus, aux.d_minus
        rows = stack.T
        k, scale = operadic_lax._k_matrix(params.values)
        _times_k_sample_major(rows, k, scale, out=mu_cf)
        norms = _norm(mu_cf, axis=1)
        # past an infinite first norm the gaps are inf - inf; that drift is infinite
        norm_drift = _max_gap(norms, norms[0], norms) if math.isfinite(norms[0]) else math.inf
        if not math.isfinite(norm_drift):
            _require_finite_sample_major("closed_form", mu_cf, ts)

        # the gap is taken in the run's rows, so its scan runs the RK4 again
        gap = _max_gap(rk4_linear_rows_sample_major(generator, mu_cf[0], t_end, steps, buf),
                       mu_cf, buf)
        if not math.isfinite(gap):
            mu_rk4 = rk4_linear_rows_sample_major(generator, mu_cf[0], t_end, steps)
            _check_states_sample_major("closed_form_vs_rk4: ", mu_rk4, ts)

        bracket = np.matmul(mu_cf, generator.T, out=buf)
        # exactly d(mu)/dt, in mu_cf's place
        dmu = _times_k_sample_major(rows, k @ aux_generator(omega), scale, out=mu_cf)
        dmu -= bracket
        lax_res = float(np.max(_norm(dmu, axis=1)))
        if not math.isfinite(lax_res):
            _require_finite_sample_major("lax_equation_residual", dmu, ts)

        rk4_linear_rows_sample_major(hamilton_generator(omega), [s0.q, s0.p], t_end, steps, qp)
        energies = energy(qp[:, 0], qp[:, 1], omega)
        h_drift = _max_gap(energies, energies[0], energies)
        if not math.isfinite(h_drift):
            _check_states_sample_major("hamiltonian_drift: ", qp, ts)

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
    return VerificationReport(checks, config)
