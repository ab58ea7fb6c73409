"""Print the cost per value of ``simulate``'s output formatting.

Times ``cli._format_table`` alone, CSV and JSON, on the exact-integrator
sample tables of a 1000-step and a 20000-step ``simulate`` run (17 values
per row), after one untimed call per format, which builds whatever the
formatter builds on first use.  Each figure is the best of several runs.
JSON runs first at each size, the order of the figures taken before JSON
had its own kernel, when its ``%`` template ran up to twice as slow right
after a large CSV table.  It uses only names the CLI has had since its sample table and formatter
were split, so it runs on older trees too:

    PYTHONPATH=src python tools/format_timing.py
"""

import time

import numpy as np

from operadlax import cli

REPEAT = 7
STEPS = (1000, 20000)


def best_seconds(fn) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main():
    print(f"format steps values best_ms ns_per_value (best of {REPEAT})")
    for steps in STEPS:
        cfg = cli.RunConfig(omega=1.7, q0=0.4, p0=-1.2, t_end=37.0, steps=steps, seed=14)
        table = np.column_stack(cli._simulate_samples(cfg, "exact"))
        for fmt in ("json", "csv"):
            cli._format_table(table, fmt)
            seconds = best_seconds(lambda: cli._format_table(table, fmt))
            print(f"{fmt} {steps} {table.size} {seconds * 1e3:.2f} "
                  f"{seconds * 1e9 / table.size:.1f}")


if __name__ == "__main__":
    main()
