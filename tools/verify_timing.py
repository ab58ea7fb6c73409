"""Print the cost of each stage of ``verify_lax_representation``.

One ``verify`` request samples [0, t_end] at steps + 1 times and runs:

* ``closed_form``  - the aux flow and the closed form K(C) a on the sample
  times ts, evaluated once;
* ``derivative``   - the exact d(mu)/dt of the Lax check, K(C) applied to
  the aux rates R a (R = ``aux_generator``), precomputed here;
* ``rk4_mu``       - the RK4 run of mu under the Lax generator;
* ``rk4_qp``       - the RK4 run of (q, p) under Hamilton's generator;
* ``norms``        - ``grid_lax_residual`` of the sampled mu: one row norm
  of an (N, 8) array, with the matrix product and difference beside it,
  the same work as the Lax residual and norm drift checks;
* ``total``        - the whole ``verify_lax_representation`` call.

Each figure is the best of several runs of a short loop, in
microseconds per call, at 1e3 and 1e4 steps (the benchmark's range).  The
oscillator is the middle of the benchmark's draw: omega 1.7, five periods,
amplitude about 1.  It uses public names only, so it also runs on older
trees and shows where the time goes before and after a change:

    PYTHONPATH=src python tools/verify_timing.py [--repeat N]
"""

import argparse
import math
import timeit
from dataclasses import astuple

import numpy as np

from operadlax import (
    AuxValues,
    OscState,
    SolutionParams,
    aux_algebraic,
    aux_exact_flow,
    aux_generator,
    closed_form_path,
    grid_lax_residual,
    hamilton_generator,
    lax_generator,
    rk4_linear_path,
    verify_lax_representation,
)

STEPS = (1_000, 10_000)
LOOP_SECONDS = 2e-2  # each run loops a call this long


def best_us(fn, repeat: int) -> float:
    fn()
    number = max(1, int(LOOP_SECONDS / max(timeit.timeit(fn, number=1), 1e-9)))
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e6


def stages(steps: int):
    omega = 1.7
    s0 = OscState(0.4, -1.2, omega)
    params = SolutionParams(np.random.default_rng(15).uniform(-1.0, 1.0, 8))
    t_end = 5 * 2.0 * math.pi / omega
    ts = np.linspace(0.0, t_end, steps + 1)
    a0 = aux_algebraic(s0)
    c = params.values
    mu = closed_form_path(a0, omega, ts, c)
    rates = AuxValues(*(aux_generator(omega) @ np.array(astuple(aux_exact_flow(a0, omega, ts)))))
    return {
        "closed_form": lambda: closed_form_path(a0, omega, ts, c),
        "derivative": lambda: closed_form_path(a0, omega, ts, c, aux=rates),
        "rk4_mu": lambda: rk4_linear_path(lax_generator(omega), mu[0], t_end, steps),
        "rk4_qp": lambda: rk4_linear_path(hamilton_generator(omega), [s0.q, s0.p],
                                          t_end, steps),
        "norms": lambda: grid_lax_residual(mu, t_end / steps, omega),
        "total": lambda: verify_lax_representation(params, s0, t_end, steps, 1e-7),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    print(f"stage steps best_us (best of {args.repeat})")
    for steps in STEPS:
        for name, fn in stages(steps).items():
            print(f"{name} {steps} {best_us(fn, args.repeat):.1f}")


if __name__ == "__main__":
    main()
