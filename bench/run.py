"""Closed-loop benchmark of the operadlax command line, run in process.

    python3 bench/run.py --workload verify|simulate|axioms --seed N \
        --seconds S --trace 0|1

One client calls ``operadlax.cli.main`` with the next request only after
the previous one returned; the program gets generated config files and
flags only.  BLAS/OpenMP threads are pinned to 1 before numpy loads.
Every request's output is checked after its timed span.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
requests are timed, in whole cycles (see workloads.py), until their summed
latency reaches S seconds and at least MIN_REQUESTS have run, so the 90th
percentile has ten samples beyond it.  ``--trace 1`` reports the
per-layer metrics: a fixed number of cycles runs once untraced and then
again traced (see spans.py), and the spans and layer table go to
.bench_out/.  The last line of stdout is the result object; the line
before it records the environment.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import, here or in a child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_REQUESTS = 100
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
DEADLINE_S = 140.0  # stop measuring by then, whatever the counts
REFERENCE_EVERY_S = 0.2  # request time between two calibration samples
# Traced runs send a fixed number of whole cycles, so their computed counts
# repeat exactly for a seed; about S/2 untraced seconds at this commit.
CYCLE_SECONDS = {"verify": 4.0, "simulate": 3.6, "axioms": 1.5}


def load_program():
    """Import operadlax from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import operadlax
    import operadlax.cli

    if Path(operadlax.__file__).resolve().parent != SRC / "operadlax":
        raise SystemExit(f"error: operadlax imported from {operadlax.__file__}")
    return operadlax


def call(cli, req):
    """Run one request; returns (exit code or None, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(req.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a raising request is a failed request
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - t0


class Tally:
    """Counts over every request a run sends; failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0
        self.verdicts = []  # verify PASS/FAIL, in request order

    def run(self, lib, req, span=None):
        """Call, then check, one request inside the optional span context;
        returns (ok, seconds)."""
        with span or contextlib.nullcontext():
            code, stdout, seconds = call(lib.cli, req)
        return self.check(lib, req, code, stdout), seconds

    def check(self, lib, req, code, stdout) -> bool:
        self.attempted += 1
        self.output_bytes += len(stdout.encode())
        if req.out is not None and req.out.exists():
            self.output_bytes += req.out.stat().st_size
        try:
            verdict = workloads.check(lib, req, code, stdout)
        except workloads.CheckFailed as exc:
            self.failed += 1
            if self.failed <= 5:
                print(f"failed request {req.argv}: {exc}", file=sys.stderr)
            return False
        if verdict is not None:
            self.verdicts.append(verdict)
        return True


def set_up(args, workdir, tally=None):
    """Import operadlax and run the warm-up requests; returns (lib, seconds).
    Warm-up inputs are made before the clock starts, and checked, when a
    tally is given, after it stops."""
    warm = workloads.Stream(args.workload, args.seed, workdir, warmup=True)
    reqs = [warm.next() for _ in range(warm.cycle_length)]
    t0 = time.perf_counter()
    lib = load_program()
    outputs = [call(lib.cli, req) for req in reqs]
    seconds = time.perf_counter() - t0
    if tally is not None:
        for req, (code, stdout, _) in zip(reqs, outputs):
            tally.check(lib, req, code, stdout)
    return lib, seconds


def setup_probe(args):
    """Child mode: one set-up in a fresh interpreter, seconds on stdout."""
    workdir = Path(args.setup_probe)
    print(set_up(args, workdir)[1])


def probe_setups(args, workdir, n):
    times = []
    for i in range(n):
        probe_dir = workdir / f"probe{i}"
        probe_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe", str(probe_dir)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def measure(lib, args, tally, started):
    """Untraced closed loop over whole cycles; returns the end-to-end
    metric values, calibrated, and the raw ones.

    Every metric is a median over cycles, which all hold the same work:
    of each cycle's request rate, item rate, median and 90th-percentile
    latency, so a few seconds of machine noise move them little.  Slower
    drift of the machine's speed is taken out by calibration: the
    workload's reference kernel (calibrate.py) runs between requests, once
    per REFERENCE_EVERY_S of request time, and times are divided by its
    slowdown in this run (rates multiplied)."""
    import calibrate  # imports numpy, so only after the timed set-up

    kernel = calibrate.KERNELS[args.workload]
    stream = workloads.Stream(args.workload, args.seed, args.workdir)
    cycles, latencies, reference = [], [], []
    busy = next_reference = 0.0
    ok_count = items = 0
    while True:
        if busy >= next_reference:
            t0 = time.perf_counter()
            kernel()
            reference.append(time.perf_counter() - t0)
            next_reference = busy + REFERENCE_EVERY_S
        req = stream.next()
        ok, seconds = tally.run(lib, req)
        latencies.append(seconds)
        busy += seconds
        ok_count += ok
        items += req.items if ok else 0
        if not stream.cycle_done():
            continue
        cycle_busy = sum(latencies)
        cycles.append({
            "rps": ok_count / cycle_busy,
            "items_per_s": items / cycle_busy,
            "p50": statistics.median(latencies),
            "p90": statistics.quantiles(latencies, n=10)[-1],
            "requests": len(latencies),
        })
        latencies, ok_count, items = [], 0, 0
        requests = sum(c["requests"] for c in cycles)
        if busy >= args.seconds and requests >= MIN_REQUESTS:
            break
        if time.monotonic() - started > DEADLINE_S:
            print(f"deadline reached after {requests} requests", file=sys.stderr)
            break
    slowdown = statistics.median(reference) / calibrate.NOMINAL_S[args.workload]
    print(f"samples: {requests} requests in {len(cycles)} cycles, {busy:.3f} s busy; "
          f"slowdown {slowdown:.3f}; requests/s per cycle: "
          + " ".join(f"{c['rps']:.3g}" for c in cycles), file=sys.stderr)

    def over_cycles(key):
        return statistics.median(c[key] for c in cycles)

    raw = {
        "throughput_rps": over_cycles("rps"),
        "latency_p50_ms": over_cycles("p50") * 1e3,
        "latency_p90_ms": over_cycles("p90") * 1e3,
        "items_per_s": over_cycles("items_per_s"),
    }
    calibrated = {
        "throughput_rps": raw["throughput_rps"] * slowdown,
        "latency_p50_ms": raw["latency_p50_ms"] / slowdown,
        "latency_p90_ms": raw["latency_p90_ms"] / slowdown,
        "items_per_s": raw["items_per_s"] * slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return calibrated, raw, slowdown


def trace(lib, args, tally, run_dir):
    """The same fixed request list untraced, then traced; returns the
    per-layer values and writes spans.npz and layers.json to run_dir."""
    stream = workloads.Stream(args.workload, args.seed, args.workdir)
    cycles = max(1, round(args.seconds / 2 / CYCLE_SECONDS[args.workload]))
    n = cycles * stream.cycle_length
    untraced = 0.0
    for _ in range(n):
        untraced += tally.run(lib, stream.next())[1]

    modules = {name: getattr(lib, name) for name in spans.MODULES}
    modules[""] = lib
    rec = spans.Recorder()
    rec.install(modules)
    bytes_before, verdicts_before = tally.output_bytes, len(tally.verdicts)
    traced = 0.0
    stream = workloads.Stream(args.workload, args.seed, args.workdir)
    try:
        for k in range(n):
            traced += tally.run(lib, stream.next(), rec.request(k))[1]
    finally:
        rec.uninstall()
    verdicts = tally.verdicts[verdicts_before:]

    values = rec.layers()
    values["cli.output_bytes"] = tally.output_bytes - bytes_before
    values["operadic_lax.verdict_pass_share"] = (
        sum(verdicts) / len(verdicts) if verdicts else 0.0
    )
    values["trace.overhead_share"] = 1.0 - untraced / traced
    rec.write(run_dir / "spans.npz")
    (run_dir / "layers.json").write_text(json.dumps(values, indent=1) + "\n")
    for name, value in values.items():
        print(f"  {name:52s} {value:.6g}")
    return values


def commit_of(root: Path) -> str:
    """HEAD of the checkout's own .git, or "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    load_at_start = os.getloadavg()
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "operadlax" / "__init__.py").is_file():
        raise SystemExit(f"error: no operadlax sources under {SRC}")
    if args.setup_probe:
        return setup_probe(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    args.workdir = run_dir / "work"
    args.workdir.mkdir(parents=True)
    tally = Tally()
    calibration = {}
    try:
        setups = probe_setups(args, args.workdir, SETUP_SAMPLES - 1)
        lib, seconds = set_up(args, args.workdir, tally)
        setups.append(seconds)
        if args.trace:
            values = trace(lib, args, tally, run_dir)
        else:
            values, raw, slowdown = measure(lib, args, tally, started)
            raw["setup_s"] = statistics.median(setups)
            values["setup_s"] = raw["setup_s"] / slowdown
            calibration = {"slowdown": slowdown, "raw_metrics": raw}
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    env = {
        "commit": commit_of(ROOT),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "loadavg_start": load_at_start,
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "setup_samples_s": setups,
        **calibration,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }
    (run_dir / "result.json").write_text(json.dumps({"env": env, "result": result}) + "\n")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
