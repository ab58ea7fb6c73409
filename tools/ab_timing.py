"""Time two source trees against each other, paired, in one process.

    python tools/ab_timing.py PARENT/src CHANGE/src [--workload verify]
        [--rounds 30] [--cycles 2] [--seed 1]

Each tree's ``operadlax`` is loaded as its own package copy (``ab_a`` and
``ab_b``), side by side in this process.  The requests are those of the
benchmark: ``bench/workloads.py`` (imported, never changed) makes them from
its seeded stream, cycle by cycle.  Each round sends the same ``--cycles``
whole cycles to both copies, one copy after the other, and the copy that
runs first alternates from round to round.  Each request is one timed
in-process ``cli.main`` call, as ``bench/run.py`` times it.  After the
clock stops it is checked with ``workloads.check``, and the two copies
must print the same bytes: exit code, stdout and, for ``simulate``, the
output file.  The workload's calibration kernel (``bench/calibrate.py``)
runs between requests once per 0.2 s of request time, as in the benchmark.
A failed check or a byte difference stops the tool with exit code 1.

Per round and copy, the figure is the mean request time.  The tool prints
each copy's median over the rounds, with its quartiles, and the paired
ratio A / B per round: its median, its quartiles and the number of rounds
B won (ratio above 1).  Then the same paired ratio for each request size
on its own (the step count of ``verify`` and ``simulate``, the dim-max of
``axioms``), from the time of that size's requests in the round: a change
of layout or of per-sample work shows as a ratio that moves with N, a
change of fixed cost as one that fades.  Pairing within a round takes out
the machine's drift, which moves two separate runs of one tree by more
than many changes do (see ``tools/verify_timing.py``).

BLAS/OpenMP threads are pinned to 1 before numpy loads (``pin_threads``).
"""

import pin_threads  # noqa: F401  (first: numpy must not load before it)

import argparse
import contextlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import calibrate  # noqa: E402
import workloads  # noqa: E402

REFERENCE_EVERY_S = 0.2  # request time between two kernel runs, as in bench/run.py


def load_tree(src: Path, name: str):
    """``src/operadlax`` imported as the package ``name``, with its ``cli``."""
    pkg = src / "operadlax"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    if spec is None:
        raise SystemExit(f"error: no operadlax package in {src}")
    lib = importlib.util.module_from_spec(spec)
    sys.modules[name] = lib
    spec.loader.exec_module(lib)
    lib.cli = importlib.import_module(f"{name}.cli")
    return lib


def call(lib, req):
    """(exit code, stdout, output file bytes or None, seconds) of one request."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = lib.cli.main(req.argv)
    except SystemExit as exc:
        code = exc.code
    seconds = time.perf_counter() - t0
    written = req.out.read_bytes() if req.out is not None and req.out.exists() else None
    return code, out.getvalue(), written, seconds


class Kernel:
    """The workload's calibration kernel, run before a request once per
    ``REFERENCE_EVERY_S`` of request time."""

    def __init__(self, workload: str):
        self.fn = calibrate.KERNELS[workload]
        self.busy = self.due = 0.0

    def before(self):
        if self.busy >= self.due:
            self.fn()
            self.due = self.busy + REFERENCE_EVERY_S


def run(src, lib, requests, kernel):
    """Send the requests to one copy; returns each one's (code, stdout, file)
    and each one's time."""
    outputs, times = [], []
    for req in requests:
        kernel.before()
        code, stdout, written, seconds = call(lib, req)
        times.append(seconds)
        kernel.busy += seconds
        try:
            workloads.check(lib, req, code, stdout)
        except workloads.CheckFailed as exc:
            raise SystemExit(f"error: {src} failed {req.argv}: {exc}") from None
        outputs.append((code, stdout, written))
    return outputs, times


def size(req) -> int:
    """The request's size: its step count, or the dim-max of ``axioms``."""
    return req.config.get("steps", req.config.get("dim_max"))


def quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive")


def paired(means_a, means_b) -> str:
    """The per-round ratios A / B: median, quartiles and B's wins."""
    ratios = [x / y for x, y in zip(means_a, means_b)]
    q1, q2, q3 = quartiles(ratios)
    wins = sum(r > 1.0 for r in ratios)
    return f"median {q2:.4f} (quartiles {q1:.4f}-{q3:.4f}); B won {wins}/{len(ratios)} rounds"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="the first tree's src/ (the parent)")
    parser.add_argument("b", help="the second tree's src/ (the change)")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default="verify")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--cycles", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.rounds < 2 or args.cycles < 1:
        parser.error("--rounds must be >= 2 and --cycles >= 1")

    srcs = args.a, args.b
    libs = load_tree(Path(args.a), "ab_a"), load_tree(Path(args.b), "ab_b")
    kernel = Kernel(args.workload)
    means = ([], [])
    by_size = {}  # size: (A's, B's) time of that size's requests, per round
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        warm = workloads.Stream(args.workload, args.seed, workdir, warmup=True)
        warm_requests = [warm.next() for _ in range(warm.cycle_length)]
        for src, lib in zip(srcs, libs):
            run(src, lib, warm_requests, kernel)
        stream = workloads.Stream(args.workload, args.seed, workdir)
        for k in range(args.rounds):
            requests = [stream.next() for _ in range(args.cycles * stream.cycle_length)]
            outputs, times = [None, None], [None, None]
            for i in ((0, 1) if k % 2 == 0 else (1, 0)):
                outputs[i], times[i] = run(srcs[i], libs[i], requests, kernel)
                means[i].append(statistics.fmean(times[i]))
            for req, x, y in zip(requests, *outputs):
                if x != y:
                    raise SystemExit(f"error: the trees print different bytes for {req.argv}")
            for n in {size(req) for req in requests}:
                sides = by_size.setdefault(n, ([], []))
                for i in (0, 1):
                    sides[i].append(sum(t for req, t in zip(requests, times[i])
                                        if size(req) == n))

    print(f"workload {args.workload}, seed {args.seed}: {args.rounds} rounds of "
          f"{args.cycles} cycles, {args.rounds * len(requests)} requests a side, "
          "the same bytes on each")
    for label, src, side in zip("AB", srcs, means):
        q1, q2, q3 = quartiles(side)
        print(f"{label} {src}: mean request {q2 * 1e3:.4f} ms "
              f"(quartiles {q1 * 1e3:.4f}-{q3 * 1e3:.4f}) median over rounds")
    print(f"ratio A/B per round: {paired(*means)}")
    label = "steps" if args.workload != "axioms" else "dim-max"
    for n in sorted(by_size):
        print(f"ratio A/B at {label} {n}: {paired(*by_size[n])}")


if __name__ == "__main__":
    main()
