"""Print the cost of each stage of ``verify_lax_representation``.

One ``verify`` request samples [0, t_end] at steps + 1 times and runs:

* ``closed_form``  - the aux flow and the closed form K(C) a on the sample
  times ts, evaluated once;
* ``derivative``   - the exact d(mu)/dt of the Lax check, K(C) applied to
  the aux rates R a (R = ``aux_generator``), precomputed here;
* ``rk4_mu``       - the RK4 run of mu under the Lax generator;
* ``rk4_qp``       - the RK4 run of (q, p) under Hamilton's generator;
* ``norms``        - ``step_defect`` of the sampled mu: one norm per
  sample of (8, N) component rows, with the matrix product and difference
  beside it, the same work as the Lax residual and norm drift checks;
* ``total``        - the whole ``verify_lax_representation`` call;
* ``report``       - the report's JSON text, as ``cmd_verify`` prints it:
  ``to_json``, or ``json.dumps(to_dict(), indent=2)`` on trees without it;
* ``setup``        - a 2-step ``verify_lax_representation`` call (printed
  once, at 2 steps): the cost of a request that does not grow with N;
* ``cli_fixed``    - a 2-step in-process ``cli.main(["verify", cfg])``
  request (printed once): ``setup`` plus the config, parser and report.

Each figure is the best of several runs of a short loop, in
microseconds per call, at 1e3 and 1e4 steps (the benchmark's range).  Then
``request_ms``, the mean in-process ``cli.main(["verify", cfg])`` request
over the benchmark's 15 step counts (log-spaced midpoints of [1e3, 1e4];
best of the repeated cycles); one ``minflt`` line per step count, the minor
page faults per warm ``verify_lax_representation`` call (``getrusage`` over
40 calls after 5 warm-up calls, step counts in rising order); and
``minflt_stream``, the minor page faults per request over the benchmark's
own ``verify`` stream (``bench/workloads.py``, seeds 1-3: one warm cycle
of 15 requests, then 30 counted, all in-process through ``cli.main``).
Once earlier calls have raised glibc's thresholds, the per-size lines read
0 for every block layout; the stream's shuffled sizes still tell layouts
apart, so it is counted first, before any other call.  The
oscillator is the middle of the benchmark's draw: omega 1.7, five
periods, amplitude about 1.  The tool uses public names only, so it also
runs on older trees that have ``step_defect`` and
``closed_form_path(aux, c)``, and shows where the time goes before and
after a change:

    PYTHONPATH=src python tools/verify_timing.py [--repeat N]

BLAS/OpenMP threads are pinned to 1 before numpy loads (``pin_threads``).
Its figures are best-of runs of one tree at a time, and on a shared
machine they drift between runs by more than many changes move them.  To
compare two trees, use ``tools/ab_timing.py``, which alternates them in
one process and reports paired ratios.
"""

import pin_threads  # noqa: F401  (first: numpy must not load before it)

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import tempfile
import time
import timeit
from dataclasses import astuple
from pathlib import Path

import numpy as np

from operadlax import (
    AuxValues,
    OscState,
    SolutionParams,
    aux_algebraic,
    aux_exact_flow,
    aux_generator,
    cli,
    closed_form_path,
    hamilton_generator,
    lax_generator,
    rk4_linear_path,
    step_defect,
    verify_lax_representation,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

STEPS = (1_000, 10_000)
LOOP_SECONDS = 2e-2  # each run loops a call this long
# the benchmark's verify cycle: midpoints of 15 equal slices of [1e3, 1e4]
# on a log scale
REQUEST_STEPS = [round(1_000 * 10 ** ((i + 0.5) / 15)) for i in range(15)]
OMEGA, Q0, P0, C_SEED = 1.7, 0.4, -1.2, 15
STREAM_SEEDS, STREAM_CYCLES = (1, 2, 3), 2  # counted cycles per seed, after a warm one


def best_us(fn, repeat: int) -> float:
    fn()
    number = max(1, int(LOOP_SECONDS / max(timeit.timeit(fn, number=1), 1e-9)))
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e6


def oscillator():
    s0 = OscState(Q0, P0, OMEGA)
    params = SolutionParams(np.random.default_rng(C_SEED).uniform(-1.0, 1.0, 8))
    return s0, params, 5 * 2.0 * math.pi / OMEGA


def stages(steps: int):
    omega = OMEGA
    s0, params, t_end = oscillator()
    ts = np.linspace(0.0, t_end, steps + 1)
    a0 = aux_algebraic(s0)
    c = params.values
    mu = closed_form_path(aux_exact_flow(a0, omega, ts), c)
    rates = AuxValues(*(aux_generator(omega) @ np.array(astuple(aux_exact_flow(a0, omega, ts)))))
    report = verify_lax_representation(params, s0, t_end, steps, 1e-7)
    return {
        "closed_form": lambda: closed_form_path(aux_exact_flow(a0, omega, ts), c),
        "derivative": lambda: closed_form_path(rates, c),
        "rk4_mu": lambda: rk4_linear_path(lax_generator(omega), mu[0], t_end, steps),
        "rk4_qp": lambda: rk4_linear_path(hamilton_generator(omega), [s0.q, s0.p],
                                          t_end, steps),
        "norms": lambda: step_defect(mu, omega, t_end / steps),
        "total": lambda: verify_lax_representation(params, s0, t_end, steps, 1e-7),
        "report": getattr(report, "to_json", lambda: json.dumps(report.to_dict(), indent=2)),
    }


def setup_us(repeat: int) -> float:
    s0, params, t_end = oscillator()
    return best_us(lambda: verify_lax_representation(params, s0, t_end, 2, 1e-7), repeat)


def best_cycle_s(steps, repeat: int) -> float:
    """Best wall time, in s, of a cycle of in-process ``verify`` requests,
    one per step count."""
    s0, params, t_end = oscillator()
    cfg = {"omega": OMEGA, "q0": Q0, "p0": P0, "c": params.values.tolist(),
           "t_end": t_end, "tol": 1e-7, "seed": 1}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        argvs = [["verify", path, "--steps", str(n)] for n in steps]
        best = math.inf
        with contextlib.redirect_stdout(io.StringIO()):
            for _ in range(repeat + 1):  # the first cycle warms up
                start = time.perf_counter()
                for argv in argvs:
                    cli.main(argv)
                best = min(best, time.perf_counter() - start)
    return best


def request_ms(repeat: int) -> float:
    """Best mean wall time, in ms, of a cycle of in-process ``verify``
    requests, one per benchmark step count."""
    return best_cycle_s(REQUEST_STEPS, repeat) / len(REQUEST_STEPS) * 1e3


def cli_fixed_us(repeat: int) -> float:
    """Best wall time, in µs, of a 2-step in-process ``verify`` request,
    over cycles of 100."""
    return best_cycle_s([2] * 100, repeat) / 100 * 1e6


def minor_faults(steps: int) -> float:
    """Minor page faults per warm call at this step count: 40 calls after 5."""
    s0, params, t_end = oscillator()
    for _ in range(5):
        verify_lax_representation(params, s0, t_end, steps, 1e-7)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(40):
        verify_lax_representation(params, s0, t_end, steps, 1e-7)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 40


def stream_faults() -> float:
    """Minor page faults per request over the benchmark's verify stream: per
    seed, one warm cycle, then ``STREAM_CYCLES`` counted cycles."""
    faults = requests = 0
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for seed in STREAM_SEEDS:
            stream = workloads.Stream("verify", seed, Path(tmp))
            for cycle in range(1 + STREAM_CYCLES):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                for _ in range(stream.cycle_length):
                    cli.main(stream.next().argv)
                if cycle:
                    faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
                    requests += stream.cycle_length
    return faults / requests


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    # first: a 1e4-step block freed by a timed call would raise glibc's
    # thresholds and hide the faults of the stream's sizes
    per_request = stream_faults()
    print(f"stage steps best_us (best of {args.repeat})")
    for steps in STEPS:
        for name, fn in stages(steps).items():
            print(f"{name} {steps} {best_us(fn, args.repeat):.1f}")
    print(f"setup 2 {setup_us(args.repeat):.1f}")
    print(f"cli_fixed 2 {cli_fixed_us(args.repeat):.1f}")
    print(f"request_ms {request_ms(args.repeat):.3f} (mean of {len(REQUEST_STEPS)} step counts)")
    print("minflt steps per_warm_call")
    for steps in REQUEST_STEPS:
        print(f"minflt {steps} {minor_faults(steps):.1f}")
    print(f"minflt_stream {per_request:.1f} (per request, "
          f"{len(STREAM_SEEDS) * STREAM_CYCLES} verify cycles)")


if __name__ == "__main__":
    main()
