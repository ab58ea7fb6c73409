"""Property tests: the generator routes against the hand-expanded oracles,
over omega in [1e-3, 1e3] and amplitudes across 200 decades, the aux seed
against a 60-digit reference over amplitudes across 24 decades, and
simulate's JSON table against ``json.dumps`` for any finite doubles."""

import json
import math
import struct
from dataclasses import astuple

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from operadlax import (  # noqa: E402
    AuxValues,
    OscState,
    aux_algebraic,
    cli,
    grid_lax_residual,
    lax_generator,
)
from reference_rhs import _explicit_rhs, assert_within_ulps, aux_rhs, g_values  # noqa: E402

EPS = np.finfo(float).eps

omegas = st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x)
amplitudes = st.floats(-100.0, 100.0).map(lambda x: 10.0 ** x)
# entries of [-1, 1] that stay normal once scaled by an amplitude
units = st.one_of(st.just(0.0), st.floats(1e-20, 1.0), st.floats(-1.0, -1e-20))
rows = st.tuples(amplitudes, st.lists(units, min_size=8, max_size=8)).map(
    lambda r: r[0] * np.array(r[1])
)
quads = st.tuples(amplitudes, st.lists(units, min_size=4, max_size=4)).map(
    lambda r: AuxValues(*(r[0] * np.array(r[1])))
)

properties = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@properties
@given(omega=omegas, x=rows, y=rows)
def test_grid_lax_residual_matches_eight_ode_reference(omega, x, y):
    # the right-hand side grid_lax_residual subtracts, entry by entry
    bound = 4.0 * EPS * omega * np.abs(x).max()
    assert (np.abs(x @ lax_generator(omega).T - _explicit_rhs(x, omega)) <= bound).all()
    # samples (0, x, 2y) with dt = 1/2: the middle row's d(mu)/dt is 2y exactly
    want = np.linalg.norm(2.0 * y - _explicit_rhs(x, omega))
    got = grid_lax_residual(np.array([np.zeros(8), x, 2.0 * y]), 0.5, omega)[1]
    assert abs(got - want) <= np.sqrt(8.0) * bound + 8.0 * EPS * want


@properties
@given(omega=omegas, aux=quads, aux_dot=quads)
def test_g_values_matches_reference(omega, aux, aux_dot):
    want = np.subtract(astuple(aux_dot), astuple(aux_rhs(aux, omega)))
    np.testing.assert_array_equal(astuple(g_values(aux, aux_dot, omega)), want)


# any angle of p + i omega q, save those so close to the p axis that
# omega q is subnormal and holds fewer bits than the ulp bound asks of A-
phases = st.one_of(st.just(0.0), st.floats(1e-280, math.pi), st.floats(-math.pi, -1e-280))


@properties
@given(omega=omegas, amplitude=st.floats(-12.0, 12.0).map(lambda x: 10.0 ** x),
       phase=phases)
def test_aux_algebraic_is_the_principal_root_to_a_few_ulps(omega, amplitude, phase):
    # sqrt(2H) = amplitude
    p, q = amplitude * math.cos(phase), amplitude * math.sin(phase) / omega
    a = aux_algebraic(OscState(q, p, omega))
    assert a.a_plus >= 0.0
    assert_within_ulps(a, q, p, omega)


# any finite double: drawn as a float, and as a raw bit pattern, which
# reaches every exponent and mantissa alike
finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
    .filter(math.isfinite),
)
tables = st.integers(1, 4).flatmap(lambda n: st.lists(finite, min_size=17 * n, max_size=17 * n))


@properties
@given(values=tables)
def test_json_table_matches_json_dumps(values):
    table = np.array(values).reshape(-1, 17)
    names = cli.CSV_HEADER.split(",")
    rows = [dict(zip(names, row)) for row in table.tolist()]
    assert cli._format_table(table, "json") == json.dumps(rows, indent=2) + "\n"
