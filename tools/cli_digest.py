"""Print one SHA-256 per CLI run over a fixed, seeded corpus of commands.

Each line is ``<label> <sha256 of exit code, stdout and stderr>``, and of
the output file's bytes for the ``simulate-out-*`` labels; an
uncaught exception is hashed as its type and message in place of the exit
code, so a tree whose CLI raises can be digested too.  Each command runs
under a fresh ``"always"`` warning filter, so the warnings it leaks are
hashed even when an earlier command leaked the same ones.  Run it
with two source trees on ``PYTHONPATH`` and diff the outputs to see which
commands changed their bytes:

    diff <(PYTHONPATH=../parent/src python tools/cli_digest.py) \\
         <(PYTHONPATH=src python tools/cli_digest.py)
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
import warnings
from pathlib import Path

from operadlax import cli


def run(argv, out_path=None):
    """The digest of one command; with ``out_path``, the bytes of that file
    after the command (or the mark that it holds none) are hashed too, and
    the file is removed."""
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    digest = hashlib.sha256(f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode())
    if out_path is not None:
        if out_path.exists():
            digest.update(b"\nfile\n" + out_path.read_bytes())
            out_path.unlink()
        else:
            digest.update(b"\nno file\n")
    return digest.hexdigest()


def run_config(rng):
    cfg = {"omega": 10 ** rng.uniform(-1, 1), "q0": rng.uniform(-3, 3),
           "p0": rng.uniform(-3, 3), "t_end": rng.uniform(0.5, 20.0),
           "steps": rng.randint(2, 400), "tol": 10 ** rng.uniform(-12, -2),
           "seed": rng.randrange(2**31)}
    if rng.random() < 0.5:
        cfg["c"] = [rng.uniform(-1, 1) for _ in range(8)]
    return cfg


# simulate configs at the output formatter's edges
EDGE_CONFIGS = [
    # H = 0: every column but t is zero, several of them signed (-0)
    {"omega": 1.3, "q0": 0.0, "p0": 0.0, "t_end": 4.0, "steps": 300, "seed": 11},
    {"omega": 0.7, "q0": -0.0, "p0": 0.0, "t_end": 9.0, "steps": 50,
     "c": [1.0, -0.5, 0.25, -1.0, 0.0, 0.75, -0.25, 0.5]},
    # amplitude sqrt(2H) about 1e150 and 1e-150: three-digit exponents.  At
    # 1e150, c7 = c8 = 0 keep D+ and D- (about 1e225) out of mu.  With them
    # in, the run writes a finite table too: the lax_residual norm rescales
    # squares that overflow.
    {"omega": 2.0, "q0": 3e149, "p0": -8e149, "t_end": 5.0, "steps": 400,
     "c": [0.3, -0.9, 0.6, 0.1, -0.4, 0.8, 0.0, 0.0]},
    {"omega": 0.5, "q0": 1e-150, "p0": 2e-150, "t_end": 30.0, "steps": 400, "seed": 13},
    # the top of the benchmark's simulate step range
    {"omega": 1.7, "q0": 0.4, "p0": -1.2, "t_end": 37.0, "steps": 20000, "seed": 14},
    # below 1e-280 the CSV kernel hands values back to %: the t column
    # (about 1e-291), and then q, p and every column derived from them
    {"omega": 1.0, "q0": 0.3, "p0": 0.2, "t_end": 1e-290, "steps": 10, "seed": 15},
    {"omega": 3.0, "q0": 1e-290, "p0": -2e-290, "t_end": 2.0, "steps": 50, "seed": 16},
    # JSON's shortest-repr kernel: t crosses 1e16, where repr turns to
    # exponent notation and %.17g does not, and q holds integers near it;
    # then short reprs (t in steps of 1/8, q0, p0, H), powers of two among them
    {"omega": 1e-16, "q0": 0.5, "p0": -1.5, "t_end": 3e16, "steps": 6,
     "c": [0.5, -0.25, 1.0, 0.0, -0.75, 0.125, 0.0, 0.0]},
    {"omega": 2.0, "q0": 0.5, "p0": -0.25, "t_end": 1.0, "steps": 8,
     "c": [0.5, -0.25, 0.75, 0.0, -1.0, 0.125, 0.25, -0.5]},
]


# simulate --out at step counts across the formatter's row blocks (1024
# rows each): 1023 to 20001 rows, a block's last row and the next one's first
OUT_CONFIG = {"omega": 1.7, "q0": 0.4, "p0": -1.2, "t_end": 37.0, "seed": 14}
OUT_STEPS = [1022, 1023, 1024, 2047, 2048, 20000]


# bad input (exit 2) and numeric failures (exit 1): the bad-input cases of
# tests/test_cli.py plus the closed form overflowing at t = 0, a state
# refused at q0 = 1e200, where H overflows, a finite closed form whose
# d(mu)/dt overflows, verify's failure order (the RK4 run of mu, the RK4
# run of (q, p), and the closed form named before the RK4 run that fails
# with it), a finite report with residuals near 1e302, a verify step that
# underflows to 0, the same step in simulate, a verify report whose
# energy drift overflows to Infinity over finite states, a closed form
# whose phase omega t overflows, simulate's p / omega overflowing at
# omega = 5e-324, and a state refused at omega = 1.7e308, where
# omega^2 q^2 is inf * 0 (each appended last, so earlier labels keep
# their commands)
BIG = "1" + "0" * 400
ERROR_CONFIGS = {
    "base": json.dumps({"omega": 1.0, "q0": 0.0, "p0": 2.0, "t_end": 6.283185307179586,
                        "steps": 10000, "tol": 1e-7, "seed": 2026}),
    "nan": '{"q0": NaN}',
    "big_q0": '{"q0": %s}' % BIG,
    "big_c": '{"c": [0, 0, %s, 0, 0, 0, 0, 0]}' % BIG,
    "big_steps": '{"steps": %s}' % BIG,
    "huge_c": json.dumps({"c": [1e308] * 8, "steps": 100}),
    "latin1": '{"format": "\xe9"}',  # written as Latin-1: not UTF-8
    "empty": "{}",
}
ERROR_ARGV = [
    ["simulate", "--q0", "nan"],
    ["simulate", "--p0", "inf"],
    ["simulate", "--config", "{nan}"],
    ["simulate", "--c", "nan,0,0,0,0,0,0,0"],
    ["simulate", "--seed", "-1"],
    ["verify", "{base}", "--c", "1,inf,0,0,0,0,0,0"],
    ["verify", "{base}", "--seed", "-1"],
    ["axioms", "--seed", "-1"],
    ["verify", "{big_q0}"],
    ["verify", "{big_c}"],
    ["verify", "{big_steps}"],
    ["simulate", "--steps", "100000000000000000000000000"],
    ["simulate", "--steps", "4611686018427387904"],
    ["simulate", "--tol", "1"],
    ["verify", "{latin1}"],
    ["verify", "{huge_c}"],
    ["verify", "{base}", "--q0", "1e200"],
    ["simulate", "--q0", "1e200", "--c", "1,0,0,0,0,0,0,0"],
    ["verify", "{base}", "--c", ",".join(["1e307"] * 8), "--q0", "0", "--p0", "1e-4",
     "--omega", "1000", "--t-end", "0.00628", "--steps", "1000"],
    ["verify", "{empty}", "--omega", "1000", "--t-end", "10", "--steps", "40"],
    ["verify", "{empty}", "--omega", "1000", "--t-end", "10", "--steps", "40",
     "--c", "0,0,0,0,0,0,0,0"],
    ["verify", "{empty}", "--c", "0,0,0,0,0,0,4e307,4e307", "--q0", "0", "--p0", "2",
     "--omega", "1000", "--t-end", "1", "--steps", "40"],
    ["verify", "{empty}", "--c", ",".join(["3e307"] * 8), "--q0", "0", "--p0", "0.5",
     "--steps", "100"],
    ["verify", "{empty}", "--t-end", "5e-324", "--steps", "2"],
    ["simulate", "--t-end", "5e-324", "--steps", "2"],
    ["verify", "{empty}", "--omega", "1000", "--t-end", "5", "--steps", "20",
     "--c", "0,0,0,0,0,0,0,0"],
    ["verify", "{empty}", "--omega=1e150", "--t-end=1e160", "--steps=50"],
    ["simulate", "--omega=5e-324", "--steps=4"],
    ["verify", "{empty}", "--omega=1.7e308", "--steps=50"],
]


# the aux seed at momenta far from 1 (q0 = 0), where A+ = sqrt(2 p) and
# sqrt(2H) = p lie decades apart, and just below its branch cut q = 0, p < 0
SEED_ARGV = [
    ["verify", "{empty}", "--p0", "1e30"],
    ["verify", "{empty}", "--p0", "1e-30"],
    ["simulate", "--p0", "1e30"],
    ["simulate", "--p0", "1e-30"],
    ["simulate", "--q0=-1e-9", "--p0", "-2"],
]


# negative flag values in exponent and list form, after the flag: the
# first reads as seed-4, written with "="
NEGATIVE_ARGV = [
    ["simulate", "--q0", "-1e-9", "--p0", "-2"],
    ["simulate", "--c", "-0.5,0,0,0,0,0,0,0", "--steps", "20"],
]


# verify with the report's JSON at its edges: a signed zero and the least
# subnormal in c, and the least subnormal as tol (the "=" form, because
# "-0.0" would read as a flag)
TEMPLATE_ARGV = [
    ["verify", "{empty}", "--c=-0.0,5e-324,0,0,0,0,0,0"],
    ["verify", "{empty}", "--tol", "5e-324"],
]


# argparse's own output: the help texts, main's parser.error checks on the
# axioms flags, and a missing config or subcommand (each exits 0 or 2)
PARSER_ARGV = [
    ["--help"],
    ["axioms", "--help"],
    ["simulate", "--help"],
    ["verify", "--help"],
    ["axioms", "--trials", "0"],
    ["axioms", "--dim-max", "4"],
    ["axioms", "--deg-max", "0"],
    ["axioms", "--tol", "inf"],
    ["verify"],
    [],
]


def simulate_all(label, path):
    for integrator in ("exact", "rk4"):
        for fmt in ("csv", "json"):
            argv = ["simulate", "--config", str(path), "--integrator", integrator,
                    "--format", fmt]
            print(f"{label}-{integrator}-{fmt}", run(argv))


def main():
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal's width
    rng = random.Random(2026)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        for k in range(40):
            cfg = run_config(rng)
            path.write_text(json.dumps(cfg))
            simulate_all(f"simulate-{k}", path)
            print(f"verify-{k}", run(["verify", str(path)]))
        for k, cfg in enumerate(EDGE_CONFIGS):
            path.write_text(json.dumps(cfg))
            simulate_all(f"simulate-edge-{k}", path)
        paths = {name: Path(tmp) / f"{name}.json" for name in ERROR_CONFIGS}
        for name, text in ERROR_CONFIGS.items():
            paths[name].write_text(text, encoding="latin-1")
        for k, argv in enumerate(ERROR_ARGV):
            print(f"error-{k}", run([a.format(**paths) for a in argv]))
    for seed in range(20):
        argv = ["axioms", "--trials", "3", "--seed", str(seed),
                "--dim-max", str(1 + seed % 3), "--deg-max", str(1 + seed // 3 % 3)]
        print(f"axioms-{seed}", run(argv))
    # the benchmark's axioms request shape: its printed residuals are
    # rounding noise of many compositions, so they pin the kernel's bytes
    for k in range(6):
        argv = ["axioms", "--trials", "25", "--seed", str(100 + k),
                "--dim-max", str(2 + k % 2), "--deg-max", "3"]
        print(f"axioms-bench-{k}", run(argv))
    for k, argv in enumerate(PARSER_ARGV):
        print(f"parser-{k}", run(argv))
    # appended last, so earlier labels keep their places
    with tempfile.TemporaryDirectory() as tmp:
        path, out_path = Path(tmp) / "cfg.json", Path(tmp) / "table.out"
        path.write_text(json.dumps(OUT_CONFIG))
        for steps in OUT_STEPS:
            for integrator in ("exact", "rk4"):
                for fmt in ("csv", "json"):
                    argv = ["simulate", "--config", str(path), "--steps", str(steps),
                            "--integrator", integrator, "--format", fmt, "--out", str(out_path)]
                    print(f"simulate-out-{steps}-{integrator}-{fmt}", run(argv, out_path))
        path.write_text("{}")
        for k, argv in enumerate(SEED_ARGV):
            print(f"seed-{k}", run([a.format(empty=path) for a in argv]))
    for k, argv in enumerate(NEGATIVE_ARGV):
        print(f"negative-{k}", run(argv))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "empty.json"
        path.write_text("{}")
        for k, argv in enumerate(TEMPLATE_ARGV):
            print(f"template-{k}", run([a.format(empty=path) for a in argv]))
    # an axioms run that exits 1: at the least subnormal tol the relation
    # and Jacobi suites fail on their rounding, unit and antisymmetry pass
    print("axioms-fail", run(["axioms", "--trials", "25", "--dim-max", "3", "--deg-max", "3",
                              "--seed", "7", "--tol", "5e-324"]))


if __name__ == "__main__":
    main()
