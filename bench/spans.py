"""In-memory span recorder for the traced run.

``Recorder.install`` rebinds the public operadlax functions listed in
``TRACED`` in every operadlax module namespace that holds them (and
``Operation.__post_init__`` on its class), so calls made from inside the
package are timed as well as calls made from the CLI.  Each span keeps its
name, start, end, parent span and request id in flat arrays; nothing is
written until the run ends.  Private helpers are not wrapped, so their time
counts toward the public function that calls them.

A span's self time is its duration minus the durations of its direct
children; the process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import defaultdict
from pathlib import Path

MODULES = ("multilinear", "operad", "oscillator", "operadic_lax", "cli")


def _rk4_counts(args, result):
    _, ys = result
    return {"oscillator.rk4_path.state_updates": (ys.shape[0] - 1) * ys.shape[1]}


def _compose_counts(args, result):
    """Computed, not measured: one multiply-add per contracted index of
    every output entry, and float64 operands read plus result written."""
    f, g = args[0], args[1]
    out = result.coeffs.size
    return {
        "operad.partial_compose.flops_computed": 2 * f.dim * out,
        "operad.partial_compose.bytes_computed": 8 * (f.coeffs.size + g.coeffs.size + out),
    }


# (module, attribute) -> count hook evaluated on (args, result) after the span
TRACED = {
    ("cli", "main"): None,
    ("oscillator", "rk4_path"): _rk4_counts,
    ("oscillator", "aux_algebraic"): None,
    ("operadic_lax", "verify_lax_representation"): None,
    ("operadic_lax", "lax_rhs_index"): None,
    ("operad", "partial_compose"): _compose_counts,
    ("operad", "bracket"): None,
    ("operad", "composition_relation_residual"): None,
    ("operad", "jacobi_residual"): None,
    ("operad", "unit_residual"): None,
    ("multilinear", "frobenius_norm"): None,
}
REQUEST = "request"


class Recorder:
    """Spans of the requests run between ``install`` and ``uninstall``."""

    def __init__(self):
        self.names: list[str] = [REQUEST]
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.name_ids = array("H")
        self.request_ids = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._request_id = -1  # negative: calls pass straight through
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        i = len(self.starts)
        self.parents.append(self._stack[-1])
        self.name_ids.append(name_id)
        self.request_ids.append(self._request_id)
        self.ends.append(0)
        self._stack.append(i)
        self.starts.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn, count_hook):
        name_id = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._request_id < 0:
                return fn(*args, **kwargs)
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count_hook is not None:
                for key, value in count_hook(args, result).items():
                    self.counts[key] += value
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Rebind the traced functions; ``modules`` maps the short module
        names and the package itself ("") to the imported module objects."""
        for (mod, attr), hook in TRACED.items():
            original = getattr(modules[mod], attr)
            wrapper = self._wrap(f"{mod}.{attr}", original, hook)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        cls = modules["multilinear"].Operation
        self._restore.append((cls, "__post_init__", cls.__post_init__))
        cls.__post_init__ = self._wrap("multilinear.Operation", cls.__post_init__, None)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    @contextlib.contextmanager
    def request(self, request_id: int):
        """One traced request, recorded as a root span."""
        self._request_id = request_id
        i = self._open(0)
        try:
            yield
        finally:
            self._close(i)
            self._request_id = -1

    # ------------------------------------------------------------ output --

    def arrays(self):
        import numpy as np

        return {
            "start_ns": np.frombuffer(self.starts, dtype=np.int64),
            "end_ns": np.frombuffer(self.ends, dtype=np.int64),
            "parent": np.frombuffer(self.parents, dtype=np.int64),
            "name": np.frombuffer(self.name_ids, dtype=np.uint16),
            "request": np.frombuffer(self.request_ids, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        """All spans as one .npz: five columns plus the name table."""
        import numpy as np

        np.savez(path, names=np.array(self.names), **self.arrays())

    def layers(self) -> dict[str, float]:
        """Per-function and per-module calls, self time and self share,
        plus the computed counts; the base of every share is
        ``trace.request_s``, the summed wall time of the traced requests."""
        import numpy as np

        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        child = np.zeros_like(dur)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        self_s = (dur - child) / 1e9
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        self_by_name = np.bincount(a["name"], weights=self_s, minlength=n)
        request_s = float(dur[a["name"] == 0].sum()) / 1e9

        out = {"trace.requests": int(calls[0]), "trace.request_s": request_s}
        for module in MODULES:
            ids = [i for i, s in enumerate(self.names) if s.split(".")[0] == module]
            out[f"{module}.calls"] = int(calls[ids].sum())
            out[f"{module}.self_s"] = float(self_by_name[ids].sum())
            out[f"{module}.self_share"] = out[f"{module}.self_s"] / request_s
        for i, name in enumerate(self.names[1:], start=1):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_by_name[i])
        for key in ("oscillator.rk4_path.state_updates",
                    "operad.partial_compose.flops_computed",
                    "operad.partial_compose.bytes_computed"):
            out[key] = int(self.counts.get(key, 0))
        updates = out["oscillator.rk4_path.state_updates"]
        out["oscillator.rk4_path.ns_per_state_update"] = (
            out["oscillator.rk4_path.self_s"] * 1e9 / updates if updates else 0.0
        )
        return out

