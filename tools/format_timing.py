"""Print the cost per value of ``simulate``'s output formatting and writing.

Times two paths, CSV and JSON, on the exact-integrator sample tables of a
1000-step and a 20000-step ``simulate`` run (17 values per row), each the
transposed view of ``sample_rows``' block, as ``simulate`` formats it (or,
on a tree without it, the ``cli._simulate_samples`` columns stacked):

* ``text``: the whole text in memory, the chunks of ``cli._table_chunks``
  joined (or, on a tree without them, ``cli._format_table``);
* ``file``: the table written to a new file as ``simulate --out`` writes
  it, the chunks one at a time into a binary file, or, on a tree without
  them, ``_format_table``'s text into a text file.  The file is removed
  after each run, untimed.

Each path runs once untimed per format first, which builds whatever the
formatter builds on first use.  Each figure is the best of several runs.
JSON runs first at each size, the order of the figures taken before JSON
had its own kernel, when its ``%`` template ran up to twice as slow right
after a large CSV table.  It uses only names the package has had since
the sample table and formatter were split, or falls back as above, so it
runs on older trees too:

    PYTHONPATH=src python tools/format_timing.py

BLAS/OpenMP threads are pinned to 1 before numpy loads (``pin_threads``).
"""

import pin_threads  # noqa: F401  (first: numpy must not load before it)

import os
import tempfile
import time

import numpy as np

import operadlax
from operadlax import cli

REPEAT = 7
STEPS = (1000, 20000)


def best_seconds(fn, after=lambda: None) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
        after()
    return best


def sample_table(cfg):
    if hasattr(operadlax, "sample_rows"):
        params = operadlax.SolutionParams(cfg.resolved_c())
        s0 = operadlax.OscState(cfg.q0, cfg.p0, cfg.omega)
        return operadlax.sample_rows(params, s0, cfg.t_end, cfg.steps, "exact").T
    return np.column_stack(cli._simulate_samples(cfg, "exact"))


def table_text(table, fmt):
    if hasattr(cli, "_table_chunks"):
        return b"".join(cli._table_chunks(table, fmt)).decode("ascii")
    return cli._format_table(table, fmt)


def write_table(table, fmt, path):
    if hasattr(cli, "_table_chunks"):
        with open(path, "wb") as fh:
            for chunk in cli._table_chunks(table, fmt):
                fh.write(chunk)
    else:
        with open(path, "w") as fh:
            fh.write(cli._format_table(table, fmt))


def main():
    print(f"path format steps values best_ms ns_per_value (best of {REPEAT})")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.out")
        paths = {"text": (table_text, lambda: None),
                 "file": (lambda table, fmt: write_table(table, fmt, path),
                          lambda: os.unlink(path))}
        for steps in STEPS:
            cfg = cli.RunConfig(omega=1.7, q0=0.4, p0=-1.2, t_end=37.0, steps=steps, seed=14)
            table = sample_table(cfg)
            for fmt in ("json", "csv"):
                for name, (fn, after) in paths.items():
                    fn(table, fmt)
                    after()
                    seconds = best_seconds(lambda: fn(table, fmt), after)
                    print(f"{name} {fmt} {steps} {table.size} {seconds * 1e3:.2f} "
                          f"{seconds * 1e9 / table.size:.1f}")


if __name__ == "__main__":
    main()
