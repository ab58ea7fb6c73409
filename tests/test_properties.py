"""Property tests: the generator routes against the hand-expanded oracles,
over omega in [1e-3, 1e3] and amplitudes across 200 decades, the aux seed
against a 60-digit reference over amplitudes across 24 decades, the
closed form's step defect over amplitudes across 12 decades,
simulate's JSON table against ``json.dumps`` for any finite doubles, and
the CLI's exit contract under extreme flag values."""

import contextlib
import io
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
    closed_form_path,
    lax_generator,
    operadic_lax,
    step_defect,
)
from reference_rhs import (  # noqa: E402
    _explicit_rhs,
    assert_within_ulps,
    aux_rhs,
    g_values,
    misrotated_flow,
)

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
@given(omega=omegas, x=rows)
def test_lax_generator_matches_eight_ode_reference(omega, x):
    bound = 4.0 * EPS * omega * np.abs(x).max()
    assert (np.abs(x @ lax_generator(omega).T - _explicit_rhs(x, omega)) <= bound).all()


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


# the constant of the step-defect bound, fixed from the sweep below and not
# from any probe: run on 5.5e4 drawn examples, its worst ratio was 10.8
KAPPA = 32.0


def max_step_defect_ratio(s0, c, t_end, steps):
    """max step_defect of the closed form over kappa eps (1 + omega t_end) max|mu|."""
    ts = np.linspace(0.0, t_end, steps + 1)
    mu = closed_form_path(aux_algebraic(s0), s0.omega, ts, c)
    bound = KAPPA * EPS * (1.0 + s0.omega * t_end) * np.abs(mu).max()
    defect = step_defect(mu, s0.omega, t_end / steps).max()
    return defect / bound if bound else defect


@properties
@given(omega=omegas, amplitude=st.floats(-6.0, 6.0).map(lambda x: 10.0 ** x),
       phase=st.floats(-math.pi, math.pi), c=st.lists(units, min_size=8, max_size=8),
       turn=st.floats(-4.0, 3.0).map(lambda x: 10.0 ** x), steps=st.integers(2, 1000))
def test_step_defect_of_the_closed_form_is_rounding(omega, amplitude, phase, c, turn, steps):
    # sqrt(2H) = amplitude, and the flow turns by omega t_end = turn
    s0 = OscState(amplitude * math.sin(phase) / omega, amplitude * math.cos(phase), omega)
    assert max_step_defect_ratio(s0, c, turn / omega, steps) <= 1.0


def test_step_defect_sees_a_wrong_rotation_law_on_a_short_horizon(monkeypatch):
    # (D+, D-) at 3.0003 omega / 2: over t_end = 1e-4 every verify check passes
    s0, c = OscState(0.0, 2.0, 1.0), np.random.default_rng(0).uniform(-1.0, 1.0, 8)
    assert max_step_defect_ratio(s0, c, 1e-4, 100) <= 1.0
    monkeypatch.setattr(operadic_lax, "aux_exact_flow", misrotated_flow(3.0003))
    assert max_step_defect_ratio(s0, c, 1e-4, 100) >= 1e3


@properties
@given(values=tables)
def test_json_table_matches_json_dumps(values):
    table = np.array(values).reshape(-1, 17)
    names = cli.CSV_HEADER.split(",")
    rows = [dict(zip(names, row)) for row in table.tolist()]
    assert cli._format_table(table, "json") == json.dumps(rows, indent=2) + "\n"


# flag values: signed zeros, the least subnormal, 1e-300 to 1.7e308 of
# either sign (their repr is in exponent form), and omega in [1e-3, 1e3]
# and amplitudes across 24 decades, with either sign
signs = st.sampled_from([1.0, -1.0])
magnitudes = st.one_of(
    st.sampled_from([0.0, 5e-324, 1.7e308]),
    st.floats(-300.0, 308.0).map(lambda x: 10.0 ** x),
    omegas,
    st.floats(-12.0, 12.0).map(lambda x: 10.0 ** x),
)
flag_values = st.builds(lambda s, m: s * m, signs, magnitudes)
commands = st.sampled_from(
    [["verify", "{config}"]]
    + [["simulate", "--integrator", i, "--format", f] for i in ("exact", "rk4")
       for f in ("csv", "json")]
)


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process run; an argparse usage
    error is an exit code too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@properties
@given(command=commands, steps=st.integers(2, 64),
       values=st.fixed_dictionaries({}, optional={
           flag: flag_values for flag in ("--omega", "--q0", "--p0", "--t-end", "--c")}))
def test_cli_keeps_its_exit_contract(tmp_path_factory, command, steps, values):
    config = tmp_path_factory.getbasetemp() / "empty.json"
    config.write_text("{}")
    texts = {flag: repr(x) + (",0.5,-0.25,0,0,0,0,0" if flag == "--c" else "")
             for flag, x in values.items()}
    argv = [a.format(config=config) for a in command] + ["--steps", str(steps)]
    space = argv + [a for flag, text in texts.items() for a in (flag, text)]
    code, out, err = run_cli(space)
    # the same argv gives the same bytes, and a value after "=" reads the same
    assert run_cli(space) == (code, out, err)
    assert run_cli(argv + [f"{flag}={text}" for flag, text in texts.items()]) == (code, out, err)
    assert code in (0, 1, 2)
    if code == 0 or (code == 1 and err == ""):
        assert err == ""
        if command[0] == "verify":
            report = json.loads(out)
            assert not any(math.isnan(c["max_residual"]) for c in report["checks"])
        elif "csv" in command:
            lines = out.splitlines()
            assert lines[0] == cli.CSV_HEADER and len(lines) == steps + 2
            assert all(math.isfinite(float(x)) for line in lines[1:] for x in line.split(","))
        else:
            rows = json.loads(out)
            assert len(rows) == steps + 1 and list(rows[0]) == cli.CSV_HEADER.split(",")
    else:
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ")
