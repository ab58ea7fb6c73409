"""Command-line entry point.

Three subcommands:

* ``axioms``   - seeded random property suites for the composition axioms
  (composition relations, unit laws, graded antisymmetry, Jacobi);
* ``simulate`` - sample a trajectory: oscillator state, auxiliary
  functions, the eight structure constants, and a Lax-equation residual
  per row, written as CSV or JSON;
* ``verify``   - run the end-to-end verification pipeline from a JSON
  config file and print the report as JSON.

``simulate`` and ``verify`` read the ``RunConfig`` keys from a JSON config
with flags on top; ``simulate`` runs no check, so it has no ``--tol``.

Exit codes: 0 all checks passed, 1 a check failed, the numerics blew up
(``IntegrationError``) or stdout was closed early, 2 bad input or usage
(``ValueError``, from the config loader, ``RunConfig.validate`` or the
library's own checks).  The commands raise; ``main`` alone maps errors to
exit codes and prints each as one ``error:`` line on stderr.  Output is
deterministic for a fixed seed and config.  CSV and ``axioms`` print
floats with 17 significant digits; JSON (``simulate --format json``, the
``verify`` report) prints the shortest repr that round-trips, as ``json``
does.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from collections.abc import Iterator
from dataclasses import astuple, dataclass, fields

import numpy as np

from ._g17 import format_json, format_rows
from .multilinear import Operation, frobenius_norm
from .operad import (
    antisymmetry_residual,
    composition_relation_residuals,
    jacobi_residual,
    unit_residual,
)
from .operadic_lax import (
    COMPONENT_NAMES,
    SolutionParams,
    closed_form_mu,
    closed_form_path,
    lax_generator,
    step_defect,
    verify_lax_representation,
)
from .oscillator import (
    IntegrationError,
    OscState,
    aux_algebraic,
    aux_exact_flow,
    aux_generator,
    energy,
    exact_path,
    hamilton_generator,
    rk4_linear_path,
)

__all__ = ["main", "RunConfig", "CSV_HEADER"]

CSV_HEADER = (
    "t,q,p,H,Aplus,Aminus,Dplus,Dminus,"
    + ",".join(COMPONENT_NAMES)
    + ",lax_residual"
)

# the most steps whose (steps + 1) x 17 float64 sample table numpy can index
MAX_STEPS = np.iinfo(np.intp).max // (len(CSV_HEADER.split(",")) * 8) - 1


@dataclass
class RunConfig:
    """The run keys of ``simulate`` and ``verify``.  In a JSON config each
    key has the type of its default (a JSON integer is also a float);
    ``c`` is an array of 8 reals, or null to draw it from ``seed``."""

    omega: float = 1.0
    q0: float = 0.0
    p0: float = 2.0
    c: list | None = None  # drawn uniformly from [-1, 1]^8 with `seed` if absent
    t_end: float = 2.0 * math.pi
    steps: int = 10000
    tol: float = 1e-7
    seed: int = 0
    out: str = "-"
    format: str = "csv"

    def resolved_c(self) -> list[float]:
        if self.c is not None:
            return [float(x) for x in self.c]
        rng = np.random.default_rng(self.seed)
        return [float(x) for x in rng.uniform(-1.0, 1.0, 8)]

    def validate(self) -> None:
        """Raise ValueError on a bad key; OscState and SolutionParams check omega, q0, p0, c."""
        OscState(self.q0, self.p0, self.omega)
        if not 2 <= self.steps <= MAX_STEPS:
            raise ValueError(f"steps must be in [2, {MAX_STEPS}], got {self.steps}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not self.t_end / self.steps > 0:  # a step that underflows moves no run
            raise ValueError(
                f"step t_end / steps must be positive, got {self.t_end} / {self.steps}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.c is not None:
            SolutionParams(self.c)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def _load_config(path: str) -> RunConfig:
    """Parse a flat JSON config; raises ValueError on failure."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"config parse failure at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    cfg = RunConfig()
    for key, value in raw.items():
        kind = type(getattr(cfg, key))
        # exact JSON types: a bool is no number, and an integer is also a real
        if key == "c":
            if value is not None and not (
                isinstance(value, list) and all(type(x) in (int, float) for x in value)
            ):
                raise ValueError("config key c must be an array of reals or null")
        elif type(value) not in ((int, float) if kind is float else (kind,)):
            raise ValueError(
                f"config key {key} must be {kind.__name__}, got {type(value).__name__}"
            )
        # JSON integers become floats; one beyond the float range is refused
        try:
            if key == "c" and value is not None:
                value = [float(x) for x in value]
            elif kind is float:
                value = float(value)
        except OverflowError:
            raise ValueError(f"config key {key} holds a number too large for a float") from None
        setattr(cfg, key, value)
    return cfg


def _run_config(path: str | None, args: argparse.Namespace) -> RunConfig:
    """The config file (defaults without one) with the flags' values on top,
    validated; raises ValueError on failure."""
    cfg = _load_config(path) if path else RunConfig()
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _parse_c(text: str) -> list[float]:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 8:
        raise argparse.ArgumentTypeError(f"expected 8 comma-separated reals, got {len(parts)}")
    return parts


# ---------------------------------------------------------------- axioms --


def _random_operations(rng, dim_max: int, deg_max: int, size: int) -> list[Operation]:
    """``size`` random operations on one random R^d.  All their coefficients
    come from one normal draw, cut in order, which takes the same numbers as
    one draw per operation."""
    d = int(rng.integers(1, dim_max + 1))
    degs = rng.integers(1, deg_max + 1, size=size).tolist()
    flat = rng.standard_normal(sum(d ** (n + 1) for n in degs))
    ops, start = [], 0
    for n in degs:
        stop = start + d ** (n + 1)
        ops.append(Operation(d, n, flat[start:stop]))
        start = stop
    return ops


def cmd_axioms(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    suites = {
        "composition_relations": 0.0,
        "unit": 0.0,
        "antisymmetry": 0.0,
        "jacobi": 0.0,
    }
    for _ in range(args.trials):
        h, f, g = _random_operations(rng, args.dim_max, args.deg_max, 3)
        scale = 1.0 + frobenius_norm(h) * frobenius_norm(f) * frobenius_norm(g)
        # dividing by a positive scale keeps the order, so the grid's worst
        # residual scores the same bits as the worst of the scaled ones
        grid = composition_relation_residuals(h, f, g)
        suites["composition_relations"] = max(suites["composition_relations"], max(grid) / scale)
        suites["jacobi"] = max(suites["jacobi"], jacobi_residual(f, g, h) / scale)

        (u,) = _random_operations(rng, args.dim_max, args.deg_max, 1)
        suites["unit"] = max(suites["unit"], unit_residual(u) / (1.0 + frobenius_norm(u)))

        # a third operation is drawn, and unused, to keep the seeded stream
        a, b = _random_operations(rng, args.dim_max, args.deg_max, 3)[:2]
        suites["antisymmetry"] = max(
            suites["antisymmetry"],
            antisymmetry_residual(a, b) / (1.0 + frobenius_norm(a) * frobenius_norm(b)),
        )
    ok = True
    for name, worst in suites.items():
        passed = worst <= args.tol
        ok = ok and passed
        print(f"{name}: max_residual={worst:.17g} tol={args.tol:.17g} "
              f"{'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


# -------------------------------------------------------------- simulate --


def _simulate_samples(cfg: RunConfig, integrator: str):
    """Column arrays for the sample table, in header order."""
    omega = cfg.omega
    params = SolutionParams(cfg.resolved_c())
    s0 = OscState(cfg.q0, cfg.p0, omega)
    a0 = aux_algebraic(s0)
    ts = np.linspace(0.0, cfg.t_end, cfg.steps + 1)

    # the closed form and each RK4 run are (samples, d) views of contiguous
    # (d, samples) component rows: .T hands the table its columns, uncopied
    if integrator == "exact":
        q, p = exact_path(s0, ts)
        flow = aux_exact_flow(a0, omega, ts)
        aux = astuple(flow)
        mu = closed_form_path(flow, params.values)
    else:
        def rk4(generator, y0):
            return rk4_linear_path(generator, y0, cfg.t_end, cfg.steps)[1]

        q, p = rk4(hamilton_generator(omega), [cfg.q0, cfg.p0]).T
        aux = rk4(aux_generator(omega), astuple(a0)).T
        mu = rk4(lax_generator(omega), closed_form_mu(a0, params).values)

    # overflow in derived columns is caught by the caller's finite-value scan
    with np.errstate(over="ignore", invalid="ignore"):
        energies = energy(q, p, omega)
        resid = step_defect(mu, omega, cfg.t_end / cfg.steps)
    return [ts, q, p, energies, *aux, *mu.T, resid]


def _table_chunks(table: np.ndarray, fmt: str) -> Iterator[bytes]:
    """The finite sample table as CSV (``%.17g``) or as ``json.dumps(rows,
    indent=2)`` of one object per row, byte for byte, in ASCII chunks of
    up to ``_g17.BLOCK_ROWS`` rows, each made as it is asked for.

    Both run through vectorised kernels in ``_g17``: CSV prints each value's
    17-digit rounding, JSON the shortest digits that read back as the value
    (``float.__repr__``, what ``json`` writes for a finite float), found
    from the half-ulp rounding interval in the same double-double scale.
    Each hands the values it cannot decide exactly (within a guard of a
    tie or of the interval's edge, or outside the range its scaling
    covers) back to ``%``, as ``%.17g`` or ``%r``, one at a time.
    """
    if fmt == "csv":
        yield CSV_HEADER.encode("ascii") + b"\n"
        yield from format_rows(table)
    else:
        yield from format_json(table, CSV_HEADER.split(","))


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _run_config(args.config, args)
    table = np.column_stack(_simulate_samples(cfg, args.integrator))
    if not np.isfinite(table).all():
        bad = int(np.argmin(np.isfinite(table).all(axis=1)))  # the first bad sample
        raise IntegrationError(f"non-finite value in sample {bad}")

    # each block is written as it is made: the text is never held whole
    chunks = _table_chunks(table, cfg.format)
    if cfg.out == "-":
        for chunk in chunks:
            sys.stdout.write(chunk.decode("ascii"))
        return 0
    try:
        with open(cfg.out, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise ValueError(f"cannot write {cfg.out}: {exc}") from None
    return 0


# ---------------------------------------------------------------- verify --


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _run_config(args.config_path, args)
    params = SolutionParams(cfg.resolved_c())
    s0 = OscState(cfg.q0, cfg.p0, cfg.omega)
    report = verify_lax_representation(params, s0, cfg.t_end, cfg.steps, cfg.tol, seed=cfg.seed)
    sys.stdout.write(report.to_json())
    return 0 if report.all_passed() else 1


# ------------------------------------------------------------------ main --


def _add_run_flags(parser: argparse.ArgumentParser, tol: bool) -> None:
    """The flags that override RunConfig keys; ``--tol`` where a check reads it."""
    parser.add_argument("--omega", type=float)
    parser.add_argument("--q0", type=float)
    parser.add_argument("--p0", type=float)
    parser.add_argument("--c", type=_parse_c, help="8 comma-separated reals")
    parser.add_argument("--t-end", dest="t_end", type=float)
    parser.add_argument("--steps", type=int)
    if tol:
        parser.add_argument("--tol", type=float)
    parser.add_argument("--seed", type=int)


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="operadlax",
        description="Operad axiom suites and isospectral structure-constant flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ax = sub.add_parser("axioms", help="run seeded random axiom property suites")
    ax.add_argument("--trials", type=int, default=100)
    ax.add_argument("--dim-max", dest="dim_max", type=int, default=3)
    ax.add_argument("--deg-max", dest="deg_max", type=int, default=3)
    ax.add_argument("--tol", type=float, default=1e-12)
    ax.add_argument("--seed", type=int, default=0)
    ax.set_defaults(func=cmd_axioms)

    sim = sub.add_parser("simulate", help="sample a trajectory to CSV or JSON")
    sim.add_argument("--config", help="JSON config file; flags override its values")
    _add_run_flags(sim, tol=False)
    sim.add_argument("--out", help="output path, '-' for stdout")
    sim.add_argument("--format", choices=["csv", "json"])
    sim.add_argument("--integrator", choices=["exact", "rk4"], default="exact")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="run the verification pipeline from a config")
    ver.add_argument("config_path")
    _add_run_flags(ver, tol=True)
    ver.set_defaults(func=cmd_verify)

    # "-" and a digit or a point starts a value, not a flag: argparse's own
    # pattern misses exponents ("-1e-9") and lists ("-0.5,0,...")
    for command in (ax, sim, ver):
        command._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "axioms":
        if not (args.trials >= 1):
            parser.error(f"--trials must be >= 1, got {args.trials}")
        if not (1 <= args.dim_max <= 3):
            parser.error(f"--dim-max must be in [1, 3], got {args.dim_max}")
        if not (1 <= args.deg_max <= 3):
            parser.error(f"--deg-max must be in [1, 3], got {args.deg_max}")
        if not (math.isfinite(args.tol) and args.tol > 0):
            parser.error(f"--tol must be positive, got {args.tol}")
        if args.seed < 0:
            parser.error(f"--seed must be >= 0, got {args.seed}")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except (ValueError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    except BrokenPipeError:
        # the reader is gone; the interpreter's final flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
