"""Seeded request streams and per-request correctness checks.

Requests come in cycles.  Every cycle of a workload holds the same request
shapes: step counts at the midpoints of equal slices of their log-uniform
range (and, for simulate, a fixed CSV:JSON mix).  The seed shuffles the
order within each cycle and draws all other parameters, so every complete
cycle does the same amount of work (axioms requests vary a little: each
draws its operations from its own seed) and runs can be compared cycle by
cycle.  Inputs come from ``random.Random`` alone: making them imports
neither numpy nor operadlax and stays out of the measured set-up time.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("verify", "simulate", "axioms")

# Step ranges, log-uniform.  verify stops at 1e4 rather than 3e4: at 3e4 a
# request takes 2 s on a 2-core machine and 100 requests would not fit in
# one run.
VERIFY_STEPS = (1_000, 10_000)
SIMULATE_STEPS = (1_000, 20_000)
AXIOM_TRIALS = 25
WARMUP_STEPS = 1_000

CSV_HEADER = (
    "t,q,p,H,Aplus,Aminus,Dplus,Dminus,"
    "mu111,mu112,mu121,mu122,mu211,mu212,mu221,mu222,lax_residual"
)
CHECK_NAMES = (
    "closed_form_vs_rk4", "lax_equation_residual", "mu_norm_drift", "hamiltonian_drift",
)
AXIOM_SUITES = ("composition_relations", "unit", "antisymmetry", "jacobi")
REL_TOL = 1e-9


class CheckFailed(Exception):
    """A request's output is wrong; the message says how."""


@dataclass
class Request:
    """One CLI call: its argv, the config it was given and its units of work."""

    workload: str
    argv: list[str]
    items: int
    config: dict = field(default_factory=dict)
    out: Path | None = None


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _oscillator_config(rng: random.Random, steps: int) -> dict:
    """omega log-uniform in [0.1, 30], amplitude sqrt(2H) log-uniform in
    [1e-2, 1e2] at a random phase, 1 to 10 whole periods, C in [-1, 1]^8."""
    omega = _log_uniform(rng.random(), 0.1, 30.0)
    amplitude = _log_uniform(rng.random(), 1e-2, 1e2)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return {
        "omega": omega,
        "q0": amplitude * math.sin(phase) / omega,
        "p0": amplitude * math.cos(phase),
        "c": [rng.uniform(-1.0, 1.0) for _ in range(8)],
        "t_end": rng.randint(1, 10) * 2.0 * math.pi / omega,
        "steps": steps,
    }


def _strata(lo: int, hi: int, n: int) -> list[int]:
    """Midpoints of n equal slices of [lo, hi] on a log scale."""
    return [round(_log_uniform((i + 0.5) / n, lo, hi)) for i in range(n)]


# The request shapes of one cycle: (format, steps) for verify and simulate,
# dim-max for axioms.  simulate has three CSV requests per JSON request.
# verify's 15 slices put the median and the 90th percentile of a run of
# whole cycles mid-slice, not on a gap between two step counts.
CYCLES = {
    "verify": [(None, s) for s in _strata(*VERIFY_STEPS, 15)],
    "simulate": [("csv", s) for s in _strata(*SIMULATE_STEPS, 12)]
    + [("json", s) for s in _strata(*SIMULATE_STEPS, 4)],
    "axioms": [2, 3] * 10,
}
WARMUP_CYCLES = {
    "verify": [(None, WARMUP_STEPS)] * 2,
    "simulate": [("csv", WARMUP_STEPS), ("json", WARMUP_STEPS)],
    "axioms": [2, 3],
}


class Stream:
    """The endless request sequence of one workload for one seed.

    ``warmup=True`` gives the short warm-up cycle instead, from a generator
    of its own, so warming up does not shift the measured sequence.
    """

    def __init__(self, workload: str, seed: int, workdir: Path, warmup: bool = False):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.workdir = workdir
        self.warmup = warmup
        self.rng = random.Random(f"{workload}-{seed}-{'warmup' if warmup else 'run'}")
        self.cycle_length = len((WARMUP_CYCLES if warmup else CYCLES)[workload])
        self._queue: list = []
        self.k = 0

    def cycle_done(self) -> bool:
        """True when the last request returned by next() ended a cycle."""
        return not self._queue

    def _write_config(self, cfg: dict) -> Path:
        kind = "warmup" if self.warmup else "request"
        path = self.workdir / f"{self.workload}-{kind}{self.k}.json"
        path.write_text(json.dumps(cfg))
        return path

    def next(self) -> Request:
        if not self._queue:
            self._queue = list((WARMUP_CYCLES if self.warmup else CYCLES)[self.workload])
            self.rng.shuffle(self._queue)
        shape = self._queue.pop()
        self.k += 1
        if self.workload == "verify":
            cfg = _oscillator_config(self.rng, shape[1])
            cfg.update(tol=1e-7, seed=self.rng.randrange(2**31))
            return Request("verify", ["verify", str(self._write_config(cfg))],
                           cfg["steps"] + 1, cfg)
        if self.workload == "simulate":
            cfg = _oscillator_config(self.rng, shape[1])
            cfg["format"] = shape[0]
            out = self.workdir / f"simulate-out.{cfg['format']}"
            argv = ["simulate", "--config", str(self._write_config(cfg)),
                    "--integrator", "exact", "--out", str(out)]
            return Request("simulate", argv, cfg["steps"] + 1, cfg, out)
        cfg = {"trials": AXIOM_TRIALS, "dim_max": shape, "seed": self.rng.randrange(2**31)}
        argv = ["axioms", "--trials", str(AXIOM_TRIALS), "--deg-max", "3",
                "--dim-max", str(shape), "--seed", str(cfg["seed"])]
        return Request("axioms", argv, AXIOM_TRIALS, cfg)


# ---------------------------------------------------------------- checks --


def check(lib, req: Request, code, stdout: str) -> bool | None:
    """Raise CheckFailed unless the request's output is right.

    ``lib`` is the imported operadlax package, used for reference values.
    Returns the verify verdict (True for PASS), or None for other workloads.
    """
    if code == 2 or not isinstance(code, int):
        raise CheckFailed(f"exit code {code!r}")
    if req.workload == "verify":
        return _check_verify(req, code, stdout)
    if req.workload == "simulate":
        _check_simulate(lib, req, code)
    else:
        _check_axioms(code, stdout)
    return None


def _check_verify(req: Request, code: int, stdout: str) -> bool:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None
    checks = report.get("checks", [])
    if tuple(c.get("name") for c in checks) != CHECK_NAMES:
        raise CheckFailed(f"report checks {[c.get('name') for c in checks]}")
    for c in checks:
        r = c["max_residual"]
        if not (isinstance(r, float) and math.isfinite(r) and r >= 0.0):
            raise CheckFailed(f"{c['name']} residual {r!r}")
        if c["tolerance"] != req.config["tol"] or c["pass"] != (r <= c["tolerance"]):
            raise CheckFailed(f"{c['name']} verdict inconsistent: {c}")
    passed = all(c["pass"] for c in checks)
    if code != (0 if passed else 1):
        raise CheckFailed(f"exit code {code} with all-pass={passed}")
    echoed = report.get("config", {})
    for key in ("omega", "q0", "p0", "c", "t_end", "steps", "tol", "seed"):
        if echoed.get(key) != req.config[key]:
            raise CheckFailed(f"config {key}: {echoed.get(key)!r} != {req.config[key]!r}")
    return passed


def _close(name: str, got, want) -> None:
    """Group-relative comparison: max |got - want| <= REL_TOL * max |want|."""
    scale = max(abs(w) for w in want)
    if max(abs(g - w) for g, w in zip(got, want)) > REL_TOL * scale:
        raise CheckFailed(f"{name}: {list(got)} != {list(want)}")


def _check_simulate(lib, req: Request, code: int) -> None:
    cfg = req.config
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    try:
        text = req.out.read_text()
        req.out.unlink()
    except OSError as exc:
        raise CheckFailed(f"no output file: {exc}") from None
    steps = cfg["steps"]
    names = CSV_HEADER.split(",")
    if cfg["format"] == "csv":
        lines = text.split("\n")
        if lines[0] != CSV_HEADER or lines[-1] != "" or len(lines) != steps + 3:
            raise CheckFailed(f"CSV header or row count wrong ({len(lines) - 2} rows)")
        row_at = lambda k: [float(x) for x in lines[k + 1].split(",")]  # noqa: E731
    else:
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"output is not JSON: {exc}") from None
        if len(rows) != steps + 1:
            raise CheckFailed(f"{len(rows)} JSON rows, expected {steps + 1}")
        row_at = lambda k: [rows[k][n] for n in names]  # noqa: E731

    omega = cfg["omega"]
    s0 = lib.OscState(cfg["q0"], cfg["p0"], omega)
    a0 = lib.aux_algebraic(s0)
    params = lib.SolutionParams(cfg["c"])
    for k in sorted({0, steps // 3, steps // 2, (2 * steps) // 3, steps}):
        row = row_at(k)
        if len(row) != len(names):
            raise CheckFailed(f"row {k} has {len(row)} columns")
        t = row[0]
        if abs(t - k * cfg["t_end"] / steps) > 1e-12 * cfg["t_end"]:
            raise CheckFailed(f"row {k}: t = {t}")
        s = lib.exact_flow(s0, t)
        aux = lib.aux_exact_flow(a0, omega, t)
        mu = lib.closed_form_mu(aux, params).values
        _close(f"row {k} (q, p)", row[1:3], (s.q, s.p))
        _close(f"row {k} H", row[3:4], (0.5 * (s.p * s.p + omega * omega * s.q * s.q),))
        _close(f"row {k} (A+, A-)", row[4:6], (aux.a_plus, aux.a_minus))
        _close(f"row {k} (D+, D-)", row[6:8], (aux.d_plus, aux.d_minus))
        _close(f"row {k} mu", row[8:16], [float(x) for x in mu])
        if not (math.isfinite(row[16]) and row[16] >= 0.0):
            raise CheckFailed(f"row {k}: lax_residual {row[16]}")


def _check_axioms(code: int, stdout: str) -> None:
    lines = stdout.strip().split("\n")
    if code != 0 or len(lines) != len(AXIOM_SUITES):
        raise CheckFailed(f"exit code {code}, {len(lines)} lines")
    for suite, line in zip(AXIOM_SUITES, lines):
        if not (line.startswith(f"{suite}: ") and line.endswith(" PASS")):
            raise CheckFailed(f"suite line {line!r}")
