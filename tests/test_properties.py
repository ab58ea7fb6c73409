"""Property tests: the generator routes against the hand-expanded oracles,
over omega in [1e-3, 1e3] and amplitudes across 200 decades, the aux seed
against a 60-digit reference over amplitudes across 24 decades, the
closed form's step defect over amplitudes across 12 decades,
simulate's JSON table against ``json.dumps`` for any finite doubles,
verify's report read back from its JSON text bit for bit, the CLI's exit
contract under extreme flag values, and the component-major RK4 rows and
products against their sample-major forms, and the axiom suites against
the trial loop that built an ``Operation`` per draw, bit for bit."""

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
    CheckResult,
    OscState,
    SolutionParams,
    VerificationReport,
    aux_algebraic,
    aux_generator,
    cli,
    hamilton_generator,
    lax_generator,
    operad,
    operadic_lax,
    verify_lax_representation,
)
from operadlax.oscillator import _rk4_linear_rows  # noqa: E402
from reference_rhs import (  # noqa: E402
    _explicit_rhs,
    assert_within_ulps,
    aux_rhs,
    axiom_suites_reference,
    g_values,
    max_step_defect_ratio,
    misrotated_flow,
    rk4_linear_rows_sample_major,
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


@properties
@given(omega=omegas, amplitude=st.floats(-6.0, 6.0).map(lambda x: 10.0 ** x),
       phase=st.floats(-math.pi, math.pi), c=st.lists(units, min_size=8, max_size=8),
       turn=st.floats(-4.0, 3.0).map(lambda x: 10.0 ** x), steps=st.integers(2, 1000))
def test_step_defect_of_the_closed_form_is_rounding(omega, amplitude, phase, c, turn, steps):
    # sqrt(2H) = amplitude, and the flow turns by omega t_end = turn
    s0 = OscState(amplitude * math.sin(phase) / omega, amplitude * math.cos(phase), omega)
    assert max_step_defect_ratio(s0, c, turn / omega, steps) <= 1.0


def test_step_defect_sees_a_wrong_rotation_law_on_a_short_horizon():
    # (D+, D-) at 3.0003 omega / 2: over t_end = 1e-4 every verify check passes
    s0, c = OscState(0.0, 2.0, 1.0), np.random.default_rng(0).uniform(-1.0, 1.0, 8)
    assert max_step_defect_ratio(s0, c, 1e-4, 100) <= 1.0
    assert max_step_defect_ratio(s0, c, 1e-4, 100, misrotated_flow(3.0003)) >= 1e3


@properties
@given(values=tables)
def test_json_table_matches_json_dumps(values):
    table = np.array(values).reshape(-1, 17)
    names = cli.CSV_HEADER.split(",")
    rows = [dict(zip(names, row)) for row in table.tolist()]
    text = b"".join(cli._table_chunks(table, "json")).decode("ascii")
    assert text == json.dumps(rows, indent=2) + "\n"


# report values: signed zeros, the least subnormal and the largest double,
# infinities and NaN among any doubles, as floats and np.float64
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
report_floats = st.one_of(st.sampled_from(EDGES + [math.inf, -math.inf]), st.floats())
report_reals = st.one_of(report_floats, report_floats.map(np.float64), st.integers())
VERIFY_KEYS = ("omega", "q0", "p0", "c", "t_end", "steps", "tol", "seed")
verify_configs = st.tuples(
    report_reals, report_reals, report_reals, st.lists(report_floats, min_size=8, max_size=8),
    report_floats, st.integers(2), report_floats, st.none() | st.integers(0),
).map(lambda values: dict(zip(VERIFY_KEYS, values)))
# verify's config, and configs with one more key, one key fewer or their
# keys in another order
report_configs = st.one_of(
    verify_configs,
    st.tuples(verify_configs, st.text().filter(lambda k: k not in VERIFY_KEYS),
              report_reals | st.none() | st.lists(report_floats))
    .map(lambda t: {**t[0], t[1]: t[2]}),
    st.tuples(verify_configs, st.sampled_from(VERIFY_KEYS))
    .map(lambda t: {k: v for k, v in t[0].items() if k != t[1]}),
    verify_configs.flatmap(lambda cfg: st.permutations(list(cfg.items())).map(dict)),
)
report_checks = st.lists(st.builds(CheckResult, st.sampled_from(
    ["closed_form_vs_rk4", "lax_equation_residual", "mu_norm_drift", "hamiltonian_drift"]),
    report_floats, report_floats, st.booleans()), max_size=4)


def same_value(got, want):
    """got, read back from JSON, holds want: the same keys in the same order,
    floats bit for bit (any NaN as NaN), and ints, bools and None alike."""
    if isinstance(want, dict):
        return list(got) == list(want) and all(same_value(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(same_value, got, want))
    if isinstance(want, float):
        return type(got) is float and (math.isnan(got) and math.isnan(want)
                                       or struct.pack("<d", got) == struct.pack("<d", want))
    return type(got) is type(want) and got == want


@properties
@given(checks=report_checks, config=report_configs)
def test_report_json_reads_back_its_dict(checks, config):
    report = VerificationReport(tuple(checks), config)
    assert same_value(json.loads(report.to_json()), report.to_dict())


@properties
@given(state=st.tuples(*[st.one_of(st.sampled_from(EDGES[:4]), st.integers(-3, 3),
                                   st.integers(-3, 3).map(np.int64),
                                   st.floats(-3.0, 3.0).map(np.float64))] * 2),
       omega=st.one_of(st.integers(1, 30), st.integers(1, 30).map(np.int64),
                       omegas.map(np.float64)),
       c=st.lists(st.one_of(st.sampled_from(EDGES[:4]), st.floats(-1.0, 1.0)),
                  min_size=8, max_size=8),
       tol=st.sampled_from([5e-324, 1e-7, 1.7976931348623157e308]),
       seed=st.none() | st.integers(0, 2**40) | st.integers(0, 2**40).map(np.int64),
       steps=st.integers(2, 16))
def test_verify_prints_its_report_to_json(tmp_path_factory, state, omega, c, tol, seed, steps):
    # library callers may pass ints, np.int64 and np.float64, and the report
    # echoes them: ints as ints, floats as the same double
    q0, p0 = state
    report = verify_lax_representation(SolutionParams(c), OscState(q0, p0, omega), 3.0, steps,
                                       tol, seed=seed)
    echo = json.loads(report.to_json())["config"]
    for key, value in zip(("omega", "q0", "p0", "seed"), (omega, q0, p0, seed)):
        assert same_value(echo[key], value if value is None or isinstance(value, float)
                          else int(value))
    # the CLI reads floats, and prints what the library reports for them
    config = tmp_path_factory.getbasetemp() / "empty.json"
    config.write_text("{}")
    argv = ["verify", str(config), f"--q0={float(q0)!r}", f"--p0={float(p0)!r}",
            f"--omega={float(omega)!r}", "--c=" + ",".join(map(repr, c)), "--t-end=3.0",
            f"--steps={steps}", f"--tol={tol!r}", f"--seed={seed or 0}"]
    want = verify_lax_representation(SolutionParams(c), OscState(float(q0), float(p0),
                                     float(omega)), 3.0, steps, tol, seed=seed or 0)
    assert run_cli(argv) == (0 if want.all_passed() else 1, want.to_json(), "")


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


# RK4 runs: the three generators the package integrates, over omega in
# [1e-3, 1e3], and random ones of dims 1 to 8; step counts 1 to 5000, with
# each 2^j - 1, 2^j and 2^j + 1 among them; steps h omega from 1e-4 to 1e3,
# so that long runs overflow, and the steps at which the first to fifth rung
# of the ladder of powers of Hamilton's P is the first to overflow
def random_generator(d):
    entries = st.lists(st.floats(-2.0, 2.0), min_size=d * d, max_size=d * d)
    return st.tuples(entries, st.floats(-4.0, 3.0).map(lambda x: 10.0 ** x)).map(
        lambda e: (np.reshape(e[0], (d, d)), e[1]))


def package_generator(make):
    return st.tuples(omegas, st.floats(-4.0, 3.0)).map(
        lambda x: (make(x[0]), 10.0 ** x[1] / x[0]))


RUNG_STEPS = [1e80] + [(24.0 * 10.0 ** (231.0 / 2 ** (rung - 1))) ** 0.25 for rung in (1, 2, 3, 4)]
runs = st.one_of(
    package_generator(lax_generator),
    package_generator(hamilton_generator),
    package_generator(aux_generator),
    st.integers(1, 8).flatmap(random_generator),
    st.sampled_from(RUNG_STEPS).map(lambda h: (hamilton_generator(1.0), h)),
)
step_counts = st.one_of(
    st.sampled_from([n for j in range(13) for n in (2**j - 1, 2**j, 2**j + 1) if 1 <= n <= 5000]),
    st.integers(1, 5000),
)


@properties
@given(run=runs, steps=step_counts, amplitude=st.floats(-300.0, 300.0), data=st.data())
def test_rk4_component_rows_match_the_sample_major_rows(run, steps, amplitude, data):
    a, h = run
    y0 = 10.0 ** amplitude * np.array(data.draw(st.lists(units, min_size=len(a),
                                                         max_size=len(a))))
    want = rk4_linear_rows_sample_major(a, y0, h * steps, steps)
    assert _rk4_linear_rows(a, y0, h * steps, steps).T.tobytes() == want.tobytes()
    # into a block, as verify runs them: every entry is written
    out = np.full((len(a), steps + 1), np.nan)
    assert _rk4_linear_rows(a, y0, h * steps, steps, out) is out
    assert out.T.tobytes() == want.tobytes()


def test_products_keep_their_bits_in_either_orientation():
    """The component-major layout assumes that BLAS rounds a product the same
    way whichever operand is the long one and however it is laid out:
    K @ X is (X.T @ K.T).T, E @ Y is (Y.T @ E.T).T, and each product of the
    RK4 ladder, P^s on a block of samples inside a wider array, is the same
    in both orientations.  numpy's OpenBLAS sums each entry's short inner
    product in one order either way.
    A numpy or OpenBLAS upgrade that breaks this moves the bytes of verify's
    report and of simulate's lax_residual column."""
    rng = np.random.default_rng(2026)
    k, _ = operadic_lax._k_matrix(rng.uniform(-1.0, 1.0, 8))
    e = operadic_lax._propagator(1.7, 0.01)
    ladder = rng.standard_normal((8, 8)) * 10.0 ** rng.uniform(-8, 8, (8, 8))
    for n in (1, 2, 3, 7, 8, 9, 63, 64, 65, 1000, 4097):
        # columns of every scale, so that any change of order shows
        for short, left in ((4, k), (4, k @ aux_generator(1.7)), (8, e), (8, ladder),
                            (2, hamilton_generator(3.0)), (4, aux_generator(0.3))):
            x = rng.standard_normal((short, n)) * 10.0 ** rng.uniform(-150, 150, n)
            want = (np.ascontiguousarray(x.T) @ left.T).T.tobytes()
            assert (left @ x).tobytes() == (x.T @ left.T).T.tobytes() == want
            # the rows read through the transpose of C-ordered samples
            assert (left @ np.asfortranarray(x)).tobytes() == want
        # a block of samples inside a wider run, into the block beside it
        rows = rng.standard_normal((8, 2 * n + 1))
        samples = np.ascontiguousarray(rows.T)
        np.matmul(ladder, rows[:, 1 : n + 1], out=rows[:, n + 1 :])
        np.matmul(samples[1 : n + 1], ladder.T, out=samples[n + 1 :])
        assert rows.T.tobytes() == samples.tobytes()


@properties
@given(seed=st.integers(0, 2**63), trials=st.integers(1, 10), dim_max=st.integers(1, 3),
       deg_max=st.integers(1, 3))
def test_axiom_suites_score_the_operation_loops_bits(seed, trials, dim_max, deg_max):
    got = operad.axiom_suites(trials, dim_max, deg_max, seed)
    want = axiom_suites_reference(trials, dim_max, deg_max, seed)
    assert list(got) == list(want)
    assert all(type(value) is float for value in got.values())
    assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]
