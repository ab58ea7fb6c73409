"""Print the cost per trial of each ``axioms`` suite, shape by shape.

A trial of ``operadlax axioms`` runs four suites on random operations of
one dimension d: the composition relations of a triple (h, f, g), the
Jacobi identity of the same triple, the unit laws of one operation and
graded antisymmetry of a pair.  This tool times each suite alone, the way
``cli.cmd_axioms`` calls it, for every shape with d <= 3 and degrees <= 3,
each figure the best of several runs of a 2 ms loop, in microseconds per
call.  It then prints the
mean cost per trial under the benchmark's request mix: every degree drawn
from 1..3 and d from 1..dim-max, with dim-max 2 and 3 alternating.  The
timings call public names only, and the relation suite falls back to a
loop over the one-pair call where the batched one is missing, so the tool
runs on older trees too and shows where the time goes before and after a
kernel change:

    PYTHONPATH=src python tools/axioms_timing.py [--repeat N] [--shapes]

Last, it prints the bytes held by the kernel's index plans (module-level
dicts of arrays in ``operad``) once every shape has run, and the time to
build all of them again from empty plans.  It exits 1 if they hold more
than 1 MB.
"""

import argparse
import itertools
import time
import timeit

import numpy as np

from operadlax import (
    Operation,
    antisymmetry_residual,
    composition_relation_residual,
    jacobi_residual,
    operad,
    unit_residual,
)

DEGREES = (1, 2, 3)
DIMS = (1, 2, 3)
CACHE_BUDGET = 1 << 20
LOOP_SECONDS = 2e-3  # each run loops a call this long


def relation_suite(h, f, g):
    batched = getattr(operad, "composition_relation_residuals", None)
    if batched is not None:
        return batched(h, f, g)
    return [composition_relation_residual(h, f, g, i, j)
            for i in range(h.degree) for j in range(h.reduced_degree + f.reduced_degree + 1)]


def operations(d, degrees, seed):
    rng = np.random.default_rng(seed)
    return [Operation(d, n, rng.standard_normal((d,) * (n + 1))) for n in degrees]


def cases():
    """(suite, d, degrees, call) for every shape of every suite."""
    for d in DIMS:
        for degs in itertools.product(DEGREES, repeat=3):
            h, f, g = operations(d, degs, 1)
            yield "relations", d, degs, lambda h=h, f=f, g=g: relation_suite(h, f, g)
            yield "jacobi", d, degs, lambda h=h, f=f, g=g: jacobi_residual(f, g, h)
        for degs in itertools.product(DEGREES, repeat=2):
            a, b = operations(d, degs, 2)
            yield "antisymmetry", d, degs, lambda a=a, b=b: antisymmetry_residual(a, b)
        for degs in itertools.product(DEGREES, repeat=1):
            (u,) = operations(d, degs, 3)
            yield "unit", d, degs, lambda u=u: unit_residual(u)


def plans():
    """operad's index plans: each module-level dict of arrays, with the
    function of the same name in lower case that builds a missing entry."""
    return {name: (cache, getattr(operad, name.lower()))
            for name, cache in vars(operad).items()
            if isinstance(cache, dict) and cache
            and all(isinstance(value, np.ndarray) for value in cache.values())}


def plan_bytes():
    return sum(value.nbytes for cache, _ in plans().values() for value in cache.values())


def plan_build_seconds():
    """The time to build every plan that is held now, from empty plans."""
    held = {name: (cache, build, list(cache)) for name, (cache, build) in plans().items()}
    start = time.perf_counter()
    for cache, build, keys in held.values():
        cache.clear()
        for key in keys:
            build(*key)
    return time.perf_counter() - start


def one_pass(table):
    for _, _, _, call in table:
        call()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--shapes", action="store_true", help="print every shape's figures")
    args = parser.parse_args()

    table = list(cases())
    one_pass(table)
    best = {}
    for suite, d, degs, call in table:
        timer = timeit.Timer(call)
        number = max(1, round(LOOP_SECONDS / timer.timeit(1)))
        best[suite, d, degs] = min(timer.repeat(args.repeat, number)) / number * 1e6

    suites = ("relations", "jacobi", "antisymmetry", "unit")
    if args.shapes:
        print(f"suite d degrees best_us (best of {args.repeat})")
        for (suite, d, degs), us in best.items():
            print(f"{suite} {d} {','.join(map(str, degs))} {us:.1f}")
    print("suite " + " ".join(f"dim_max_{m}_us" for m in (2, 3)) + " mix_us")
    total = {2: 0.0, 3: 0.0}
    for suite in suites:
        means = {}
        for dim_max in (2, 3):
            figures = [us for (s, d, _), us in best.items() if s == suite and d <= dim_max]
            means[dim_max] = sum(figures) / len(figures)
            total[dim_max] += means[dim_max]
        print(f"{suite} {means[2]:.1f} {means[3]:.1f} {(means[2] + means[3]) / 2:.1f}")
    print(f"all {total[2]:.1f} {total[3]:.1f} {(total[2] + total[3]) / 2:.1f}")
    held = plan_bytes()
    print(f"plan_bytes {held} plan_build_ms {plan_build_seconds() * 1e3:.2f}")
    if held > CACHE_BUDGET:
        raise SystemExit(f"index plans hold {held} bytes, over the {CACHE_BUDGET}-byte budget")


if __name__ == "__main__":
    main()
