"""Run the benchmark over several seeds and save every result in one file.

    python3 bench/collect.py --out runs.json --seeds 1-10 \
        [--workloads verify,simulate,axioms] [--trace 0|1]

Each run is the BENCHMARK.json command with ``--seconds run_seconds``,
from the checkout root, in a fresh interpreter.  Seeds are the outer loop,
so a slow drift in machine load touches every workload alike.  The file
is rewritten after every run and can be passed to compare.py.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        for workload in args.workloads.split(","):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.monotonic() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"run failed: {' '.join(cmd)} (exit {proc.returncode})")
            runs.append({
                "workload": workload, "seed": seed, "trace": args.trace,
                "wall_s": wall, "env": json.loads(lines[-2].removeprefix("env ")),
                "result": json.loads(lines[-1]),
            })
            args.out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
            result = runs[-1]["result"]
            print(f"{workload:9s} seed {seed:3d}  {wall:6.1f} s  "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
