"""Print one SHA-256 per CLI run over a fixed, seeded corpus of commands.

Each line is ``<label> <sha256 of exit code, stdout and stderr>``.  Run it
with two source trees on ``PYTHONPATH`` and diff the outputs to see which
commands changed their bytes:

    diff <(PYTHONPATH=../parent/src python tools/cli_digest.py) \\
         <(PYTHONPATH=src python tools/cli_digest.py)
"""

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

from operadlax import cli


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return hashlib.sha256(f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode()).hexdigest()


def run_config(rng):
    cfg = {"omega": 10 ** rng.uniform(-1, 1), "q0": rng.uniform(-3, 3),
           "p0": rng.uniform(-3, 3), "t_end": rng.uniform(0.5, 20.0),
           "steps": rng.randint(2, 400), "tol": 10 ** rng.uniform(-12, -2),
           "seed": rng.randrange(2**31)}
    if rng.random() < 0.5:
        cfg["c"] = [rng.uniform(-1, 1) for _ in range(8)]
    return cfg


def main():
    rng = random.Random(2026)
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(40):
            cfg = run_config(rng)
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(cfg))
            for integrator in ("exact", "rk4"):
                for fmt in ("csv", "json"):
                    argv = ["simulate", "--config", str(path), "--integrator", integrator,
                            "--format", fmt]
                    print(f"simulate-{k}-{integrator}-{fmt}", run(argv))
            print(f"verify-{k}", run(["verify", str(path)]))
    for seed in range(20):
        argv = ["axioms", "--trials", "3", "--seed", str(seed),
                "--dim-max", str(1 + seed % 3), "--deg-max", str(1 + seed // 3 % 3)]
        print(f"axioms-{seed}", run(argv))


if __name__ == "__main__":
    main()
