"""The CLI's bytes against the committed digest of ``tools/cli_digest.py``.

``tests/golden/cli_digest.txt`` holds one ``label sha256`` line per command
of the corpus.  A change that moves labels on purpose regenerates it,

    PYTHONPATH=src python tools/cli_digest.py > tests/golden/cli_digest.txt

and lists the moved labels in CHANGES.md.  The bytes depend on the numpy and
BLAS build, so a toolchain change can move labels too: that is a
regeneration as well, recorded the same way.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli_digest.txt"


def digests(text: str) -> dict:
    return dict(line.split() for line in text.splitlines())


def blas_build() -> str:
    """The BLAS numpy was built against, as its build config names it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no "dicts" mode
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def test_cli_bytes_match_the_golden_digest(monkeypatch):
    spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    monkeypatch.setenv("COLUMNS", "80")  # corpus.main sets it; restored after
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        corpus.main()
    got, want = digests(out.getvalue()), digests(GOLDEN.read_text())
    changed = [label for label in got if label in want and got[label] != want[label]]
    changed += [f"{label} (new)" for label in got if label not in want]
    changed += [f"{label} (gone)" for label in want if label not in got]
    assert not changed, (
        f"{len(changed)} of {len(want)} labels changed (numpy {np.__version__}, "
        f"BLAS {blas_build()}):\n" + "\n".join(changed))
