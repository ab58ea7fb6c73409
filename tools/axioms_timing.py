"""Print the cost per trial of each ``axioms`` suite, shape by shape.

A trial of ``operadlax axioms`` runs four suites on random operations of
one dimension d: the composition relations of a triple (h, f, g), the
Jacobi identity of the same triple, the unit laws of one operation and
graded antisymmetry of a pair.  This tool times each suite alone, the way
``cli.cmd_axioms`` calls it, for every shape with d <= 3 and degrees <= 3,
each figure the best of several runs of a 2 ms loop, in microseconds per
call.  It then prints the
mean cost per trial under the benchmark's request mix: every degree drawn
from 1..3 and d from 1..dim-max, with dim-max 2 and 3 alternating.  A
``relation_cell`` line, outside the trial's total, gives the same means
for one public one-pair call ``composition_relation_residual(h, f, g, 0,
0)`` per shape of the relation suite, which ``axioms`` does not run.  The
timings call public names only, and the relation suite falls back to a
loop over the one-pair call where the batched one is missing, so the tool
runs on older trees too and shows where the time goes before and after a
kernel change:

    PYTHONPATH=src python tools/axioms_timing.py [--repeat N] [--shapes]

Then a ``request_ms`` line gives the end-to-end figure above those layers:
the best of N in-process times of ``cli.main(["axioms", ...])`` at the
benchmark's shape (25 trials, deg-max 3, stdout discarded), in ms per
request at dim-max 2, at dim-max 3 and their mean, each over the same
fixed seeds so that two trees run the same requests.

Last, it prints the bytes held by the kernel's index plans (module-level
dicts of arrays in ``operad``) once every shape has run, in all and by
cache, and the time to build all of them again from empty plans.  It
exits 1, naming each cache's bytes, if they hold more than 1 MiB; they
hold 862848 bytes, 818784 of them in ``_PLACEMENTS``.

BLAS/OpenMP threads are pinned to 1 before numpy loads (``pin_threads``).
"""

import pin_threads  # noqa: F401  (first: numpy must not load before it)

import argparse
import contextlib
import itertools
import os
import time
import timeit

import numpy as np

from operadlax import (
    Operation,
    antisymmetry_residual,
    cli,
    composition_relation_residual,
    jacobi_residual,
    operad,
    unit_residual,
)

DEGREES = (1, 2, 3)
DIMS = (1, 2, 3)
CACHE_BUDGET = 1 << 20
LOOP_SECONDS = 2e-3  # each run loops a call this long
REQUEST_SEEDS = range(10)  # the requests timed per dim-max, one per seed


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
            yield ("relation_cell", d, degs,
                   lambda h=h, f=f, g=g: composition_relation_residual(h, f, g, 0, 0))
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
    """The bytes that each of operad's index plans holds, by name."""
    return {name: sum(value.nbytes for value in cache.values())
            for name, (cache, _) in plans().items()}


def plan_build_seconds():
    """The time to build every plan that is held now, from empty plans."""
    held = {name: (cache, build, list(cache)) for name, (cache, build) in plans().items()}
    start = time.perf_counter()
    for cache, build, keys in held.values():
        cache.clear()
        for key in keys:
            build(*key)
    return time.perf_counter() - start


def request_ms(dim_max, repeat):
    """Best of ``repeat`` in-process runs of one axioms request per seed,
    in ms per request."""
    argvs = [["axioms", "--trials", "25", "--deg-max", "3", "--dim-max", str(dim_max),
              "--seed", str(seed)] for seed in REQUEST_SEEDS]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for argv in argvs:  # warm-up: parser, index plans
            cli.main(argv)
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            for argv in argvs:
                cli.main(argv)
            best = min(best, time.perf_counter() - start)
    return best / len(argvs) * 1e3


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

    if args.shapes:
        print(f"suite d degrees best_us (best of {args.repeat})")
        for (suite, d, degs), us in best.items():
            print(f"{suite} {d} {','.join(map(str, degs))} {us:.1f}")
    print("suite " + " ".join(f"dim_max_{m}_us" for m in (2, 3)) + " mix_us")

    def mean(suite, dim_max):
        figures = [us for (s, d, _), us in best.items() if s == suite and d <= dim_max]
        return sum(figures) / len(figures)

    def show(label, means):
        print(f"{label} {means[2]:.1f} {means[3]:.1f} {(means[2] + means[3]) / 2:.1f}")

    total = {2: 0.0, 3: 0.0}
    for suite in ("relations", "jacobi", "antisymmetry", "unit"):
        means = {dim_max: mean(suite, dim_max) for dim_max in (2, 3)}
        total = {dim_max: total[dim_max] + means[dim_max] for dim_max in (2, 3)}
        show(suite, means)
    show("all", total)
    show("relation_cell", {dim_max: mean("relation_cell", dim_max) for dim_max in (2, 3)})
    ms = {dim_max: request_ms(dim_max, args.repeat) for dim_max in (2, 3)}
    print(f"request_ms {ms[2]:.2f} {ms[3]:.2f} {(ms[2] + ms[3]) / 2:.2f}")
    caches = plan_bytes()
    held, by_cache = sum(caches.values()), " ".join(f"{k} {v}" for k, v in caches.items())
    print(f"plan_bytes {held} {by_cache} plan_build_ms {plan_build_seconds() * 1e3:.2f}")
    if held > CACHE_BUDGET:
        raise SystemExit(f"index plans hold {held} bytes ({by_cache}), "
                         f"over the {CACHE_BUDGET}-byte budget")


if __name__ == "__main__":
    main()
