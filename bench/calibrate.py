"""Reference kernels that calibrate a run against the machine's speed.

Each kernel does the kind of work its workload spends its time on, in the
benchmark's own code, so a change of machine speed moves kernel and
workload alike while a change to operadlax moves only the workload:

* verify   - fixed-step RK4 of an 8-dim linear system, one new small array
  per right-hand-side call (the shape of the RK4 loop in oscillator);
* simulate - '.17g' CSV rows and an indented JSON dump of a float table;
* axioms   - tensordot/moveaxis contractions of small tensors, each result
  wrapped in a validating frozen dataclass.

``slowdown`` = the kernel's median time in a run over NOMINAL_S, its
median on the machine the baseline was taken on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

NOMINAL_S = {"verify": 0.0085, "simulate": 0.0105, "axioms": 0.0095}


def _verify_kernel() -> None:
    w = 0.5

    def rhs(y):
        a, b, c, d, e, f, g, h = y
        return np.array([-w * (e + c + b), -w * (f + d - a), -w * (g - a + d),
                         -w * (h - b - c), w * (a - g - f), w * (b - h + e),
                         w * (c + e - h), w * (d + f + g)])

    y, h = np.linspace(-1.0, 1.0, 8), 1e-3
    ys = np.empty((201, 8))
    ys[0] = y
    for k in range(200):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.isfinite(y).all():
            raise ArithmeticError("reference kernel diverged")
        ys[k + 1] = y


_TABLE = np.sin(np.arange(17 * 240, dtype=float)).reshape(240, 17) * 1e3


def _simulate_kernel() -> None:
    "\n".join(",".join(format(float(x), ".17g") for x in row) for row in _TABLE)
    json.dumps([{str(i): float(x) for i, x in enumerate(row)} for row in _TABLE[:60]],
               indent=2)


@dataclass(frozen=True, eq=False)
class _Tensor:
    dim: int
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=float).reshape((self.dim,) * (self.degree + 1))
        if not np.isfinite(arr).all():
            raise ArithmeticError("reference kernel diverged")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)


_RNG = np.random.default_rng(0)
_TENSORS = [_Tensor(d, n, _RNG.standard_normal((d,) * (n + 1)))
            for d in (2, 3) for n in (1, 2, 3)]


def _axioms_kernel() -> None:
    for _ in range(5):
        for f in _TENSORS:
            for g in _TENSORS:
                if f.dim != g.dim:
                    continue
                for i in range(f.degree):
                    res = np.tensordot(f.coeffs, g.coeffs, axes=([i + 1], [0]))
                    res = np.moveaxis(res, range(f.degree, f.degree + g.degree),
                                      range(i + 1, i + 1 + g.degree))
                    _Tensor(f.dim, f.degree + g.degree - 1, res)
                    float(np.linalg.norm(res))


KERNELS = {"verify": _verify_kernel, "simulate": _simulate_kernel, "axioms": _axioms_kernel}
