"""CLI contract: determinism, exact CSV header, exit-code semantics."""

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import astuple
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import operadlax
from operadlax import (
    OscState,
    _g17,
    aux_algebraic,
    aux_exact_flow,
    cli,
    closed_form_path,
    energy,
    exact_flow,
    exact_path,
    step_defect,
)

HEADER = (
    "t,q,p,H,Aplus,Aminus,Dplus,Dminus,"
    "mu111,mu112,mu121,mu122,mu211,mu212,mu221,mu222,lax_residual"
)

C1 = "1,0,0,0,0,0,0,0"
# the error line for q0 = 1e200 at p0 = 2, omega = 1
INFINITE_ENERGY = "error: energy H of (q, p, omega) = (1e+200, 2.0, 1.0) is not a finite double"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    cols = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return cols, data


# ---------------------------------------------------------------- axioms --


def test_axioms_passes_and_is_deterministic(capsys):
    argv = ["axioms", "--trials", "20", "--dim-max", "2", "--deg-max", "3",
            "--tol", "1e-12", "--seed", "7"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "composition_relations" in out1 and "PASS" in out1


def test_axioms_single_trial_deterministic(capsys):
    argv = ["axioms", "--trials", "1", "--seed", "7"]
    assert run(capsys, argv) == run(capsys, argv)


def test_axioms_rejects_bad_ranges(capsys):
    for argv in (
        ["axioms", "--dim-max", "9"],
        ["axioms", "--deg-max", "0"],
        ["axioms", "--trials", "0"],
        ["axioms", "--tol", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_axioms_fails_with_impossible_tol(capsys):
    code, out, _ = run(capsys, ["axioms", "--trials", "5", "--tol", "1e-30",
                                "--seed", "1"])
    assert code == 1
    assert "FAIL" in out


def random_operations_reference(rng, dim_max, deg_max, size=None):
    """The draw before it was grouped: one normal call per operation, and a
    scalar degree draw when size is None."""
    d = int(rng.integers(1, dim_max + 1))
    degs = np.atleast_1d(rng.integers(1, deg_max + 1, size=size))
    return [operadlax.Operation(d, int(n), rng.standard_normal((d,) * (int(n) + 1)))
            for n in degs]


@pytest.mark.parametrize("dim_max", [1, 2, 3])
@pytest.mark.parametrize("deg_max", [1, 2, 3])
def test_grouped_draw_takes_the_same_numbers(dim_max, deg_max):
    # one trial's draws, twice over: a triple, a single operation (drawn
    # with size 1, once with a scalar degree), and a triple of which two
    # are kept; the stream must stand where it stood before
    calls = [(3, 3, None), (1, None, None), (3, 3, 2)] * 2
    for seed in range(100):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for size, want_size, kept in calls:
            got = cli._random_operations(got_rng, dim_max, deg_max, size)[:kept]
            want = random_operations_reference(want_rng, dim_max, deg_max, want_size)[:kept]
            assert len(got) == len(want) == (kept or size)
            for op, ref in zip(got, want):
                assert (op.dim, op.degree) == (ref.dim, ref.degree)
                assert op.coeffs.shape == ref.coeffs.shape
                assert op.coeffs.tobytes() == ref.coeffs.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


# -------------------------------------------------------------- simulate --


def test_simulate_header_and_first_row(capsys):
    code, out, _ = run(capsys, [
        "simulate", "--c", C1, "--omega", "1", "--q0", "0", "--p0", "2",
        "--t-end", str(2 * math.pi), "--steps", "100",
    ])
    assert code == 0
    cols, data = parse_csv(out)
    assert ",".join(cols) == HEADER
    assert data.shape == (101, 17)
    first = dict(zip(cols, data[0]))
    assert first["t"] == 0.0
    assert first["mu112"] == 2.0 and first["mu121"] == -2.0
    assert first["Aplus"] == 2.0 and first["Dplus"] == 4.0


def test_simulate_zero_params_zero_mu(capsys):
    code, out, _ = run(capsys, [
        "simulate", "--c", "0,0,0,0,0,0,0,0", "--steps", "20", "--t-end", "1",
    ])
    assert code == 0
    cols, data = parse_csv(out)
    mu_block = data[:, cols.index("mu111"): cols.index("mu222") + 1]
    assert not mu_block.any()
    assert not data[:, cols.index("lax_residual")].any()


def test_simulate_energy_column_constant(capsys):
    code, out, _ = run(capsys, [
        "simulate", "--c", C1, "--steps", "10000", "--t-end", str(2 * math.pi),
    ])
    cols, data = parse_csv(out)
    energy = data[:, cols.index("H")]
    assert code == 0
    assert np.abs(energy - energy[0]).max() <= 1e-10


def test_simulate_rk4_energy_column(capsys):
    code, out, _ = run(capsys, [
        "simulate", "--c", C1, "--steps", "10000", "--t-end", str(2 * math.pi),
        "--integrator", "rk4",
    ])
    cols, data = parse_csv(out)
    energy = data[:, cols.index("H")]
    assert code == 0
    assert np.abs(energy - energy[0]).max() <= 1e-10


def test_simulate_rk4_residual_column_shrinks_with_dt(capsys):
    def max_resid(steps):
        _, out, _ = run(capsys, [
            "simulate", "--c", C1, "--steps", str(steps), "--t-end", "6.0",
            "--integrator", "rk4",
        ])
        cols, data = parse_csv(out)
        return data[:, cols.index("lax_residual")].max()

    # the defect against the exact flow is RK4's local truncation, O(h^5):
    # halving the step divides it by 32
    ratio = max_resid(200) / max_resid(400)
    assert 24.0 < ratio < 40.0


def test_simulate_rk4_residual_column_is_the_step_defect():
    # test_simulate_columns_come_from_the_library pins the exact integrator's
    cfg = cli.RunConfig(omega=1.3, q0=0.4, p0=-1.1, t_end=5.0, steps=50, seed=3)
    columns = cli._simulate_samples(cfg, "rk4")
    mu = np.stack(columns[8:16], axis=1)
    np.testing.assert_array_equal(columns[16], step_defect(mu, 1.3, 0.1))
    assert columns[16][0] == 0.0


def test_simulate_deterministic_file_output(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "omega": 1.0, "q0": 0.0, "p0": 2.0, "t_end": 3.0, "steps": 50,
        "seed": 5, "format": "csv",
    }))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_json_format_round_trips(capsys):
    code, out, _ = run(capsys, [
        "simulate", "--c", C1, "--steps", "5", "--t-end", "1", "--format", "json",
    ])
    assert code == 0
    samples = json.loads(out)
    assert len(samples) == 6
    assert list(samples[0]) == HEADER.split(",")
    assert samples[0]["mu112"] == 2.0


def test_simulate_columns_come_from_the_library():
    cfg = cli.RunConfig(omega=1.3, q0=0.4, p0=-1.1, t_end=5.0, steps=50, seed=3)
    s0 = OscState(0.4, -1.1, 1.3)
    a0 = aux_algebraic(s0)
    ts = np.linspace(0.0, 5.0, 51)
    q, p = exact_path(s0, ts)
    flow = aux_exact_flow(a0, 1.3, ts)
    aux = astuple(flow)
    mu = closed_form_path(flow, cfg.resolved_c())
    want = [ts, q, p, energy(q, p, 1.3), *aux, *mu.T, step_defect(mu, 1.3, 0.1)]
    got = cli._simulate_samples(cfg, "exact")
    assert len(got) == len(want) == len(HEADER.split(","))
    for column, expected in zip(got, want):
        np.testing.assert_array_equal(column, expected)
    # the scalar APIs agree with the array forms elementwise
    for k, t in enumerate(ts):
        assert exact_flow(s0, t) == OscState(q[k], p[k], 1.3)
        assert astuple(aux_exact_flow(a0, 1.3, t)) == tuple(x[k] for x in aux)


def reference_csv(table):
    rows = [",".join(format(x, ".17g") for x in row) for row in table.tolist()]
    return "\n".join([HEADER] + rows) + "\n"


def reference_json(table):
    names = HEADER.split(",")
    rows = [{name: float(x) for name, x in zip(names, row)} for row in table.tolist()]
    return json.dumps(rows, indent=2) + "\n"


def table_text(table, fmt):
    """The whole text ``simulate`` writes for the table: its chunks, joined."""
    return b"".join(cli._table_chunks(table, fmt)).decode("ascii")


def test_format_table_matches_reference_formatters():
    cfg = cli.RunConfig(omega=2.3, q0=-0.7, p0=1.9, t_end=7.0, steps=300, seed=4)
    samples = np.column_stack(cli._simulate_samples(cfg, "exact"))
    awkward = np.resize(
        [-0.0, 0.0, 5e-324, 1e300, -1e-17, 123456789012345678.0, 2.0, -3.0,
         0.1, 1e16, 1e-5, 1e22, -2.2250738585072014e-308, 1.7976931348623157e308],
        (3, 17),
    )
    for table in (samples, awkward, samples[:1]):
        assert table_text(table, "csv") == reference_csv(table)
        assert table_text(table, "json") == reference_json(table)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [1, 2, 1023, 1024, 1025, 2048, 2049])
def test_simulate_writes_the_same_bytes_to_file_and_stdout(tmp_path, capsys, monkeypatch,
                                                           rows, fmt):
    # tables of one row, two rows and around the formatter's block edges
    # (1024 rows); simulate itself never makes fewer than three rows
    cfg = cli.RunConfig(omega=1.7, q0=0.4, p0=-1.2, t_end=37.0, steps=2048, seed=14)
    table = np.column_stack(cli._simulate_samples(cfg, "exact"))[:rows]
    monkeypatch.setattr(cli, "_simulate_samples", lambda cfg, integrator: list(table.T))
    code, out, err = run(capsys, ["simulate", "--format", fmt])
    assert (code, err) == (0, "")
    path = tmp_path / f"table.{fmt}"
    assert run(capsys, ["simulate", "--format", fmt, "--out", str(path)]) == (0, "", "")
    reference = reference_csv if fmt == "csv" else reference_json
    assert path.read_bytes() == out.encode() == reference(table).encode()


def test_simulate_non_finite_sample_writes_no_file(tmp_path, capsys):
    # H overflows at q0 = 1e200, so the state is refused; the closed form
    # overflows at c = 1e308, so the scan fails: both before any output is opened
    path = tmp_path / "table.csv"
    for flags, want, line in [
        (["--q0", "1e200", "--c", C1], 2, INFINITE_ENERGY),
        (["--c", ",".join(["1e308"] * 8)], 1, "error: non-finite value in sample 0"),
    ]:
        code, out, err = run(capsys, ["simulate", *flags, "--out", str(path)])
        assert (code, out) == (want, "")
        assert err.splitlines() == [line]
        assert not path.exists()


def g17_edge_values(rng):
    """Doubles at the edges of the vectorised %.17g kernel and its fallback."""
    bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64)
    edges = np.array([5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                      1e-280, 1e280])
    powers = np.array([float(f"1e{e}") for e in range(-320, 309)])
    # exact ties: odd m times 2^-(e+1) with m * 5^e in [2e16, 2e17), so that
    # |x| * 10^(16-k) ends in .5
    ties = []
    for e in range(1, 25):
        low, high = -(-2 * 10**16 // 5**e), min(2 * 10**17 // 5**e, 2**53)
        if low < high:
            m = rng.integers(low, high, 200) | 1
            ties.append(np.ldexp(m.astype(np.float64), -(e + 1)))
    nines = np.array([float(f"9.99999999999999999e{e}") for e in range(-300, 301)])
    near = np.concatenate([edges, powers, nines])
    return np.concatenate([
        bits[np.isfinite(bits)],
        rng.integers(1, 2**52, 2000).view(np.float64),  # subnormals
        [0.0, -0.0, 1.7976931348623157e308], near, -near,
        np.nextafter(near, 0.0), np.nextafter(near, np.inf),
        *ties,
    ])


def test_csv_kernel_matches_percent_format():
    values = g17_edge_values(np.random.default_rng(2026))
    values = np.resize(values, (-(-values.size // 17), 17))
    for table in (values, values[:1], values[-3:]):
        got, want = (text.split("\n") for text in
                     (table_text(table, "csv"), reference_csv(table)))
        # the differing rows, not a diff of megabytes
        assert len(got) == len(want) and not [(g, w) for g, w in zip(got, want) if g != w]


def test_csv_kernel_decides_all_but_near_ties_exactly():
    # the fallback alone would also match %.17g: the vectorised path must
    # round every value it takes exactly, and hand back only values whose
    # scaled |x| * 10^(16-k) lies within 1e-6 of a tie (exact ties, common
    # above 1e12 where doubles have few fraction bits)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(20_000) * 10.0 ** rng.uniform(-30.0, 30.0, 20_000)
    d, kidx, slow = _g17._decimal(x, _g17._tables())
    for value, digits, k, fallback in zip(x.tolist(), d.tolist(), kidx.tolist(), slow.tolist()):
        mantissa, exponent = ("%.16e" % abs(value)).split("e")
        if fallback:
            scaled = Fraction(abs(value)) * Fraction(10) ** (16 - int(exponent))
            assert abs(scaled - math.floor(scaled) - Fraction(1, 2)) < 1e-6
        else:
            assert (digits, k + _g17.K_MIN) == (int(mantissa.replace(".", "")), int(exponent))


def test_csv_kernel_keeps_zeros_and_powers_of_ten():
    # D = 1e16 is only ambiguous where 10^k is no double and |x| may lie
    # below it; zeros (scaled as 1.0) and exact powers of ten are not
    x = np.array([0.0, -0.0, 1.0, 10.0, 1e-3, 1e22])
    d, kidx, slow = _g17._decimal(x, _g17._tables())
    assert not slow.any()
    assert (kidx + _g17.K_MIN).tolist() == [0, 0, 0, 1, -3, 22]
    assert d.tolist() == [0, 0] + [10**16] * 4
    table = np.resize(x, (1, 17))
    assert table_text(table, "csv") == reference_csv(table)


def repr_edge_values(rng):
    """Doubles at the edges of the vectorised shortest-repr kernel: repr's
    notation switch, powers of two (whose interval below is half as wide),
    short decimals, integers whose rounding interval ends exactly on a
    multiple of 10 (even and odd mantissas), and integers above 1e17 whose
    scaled value is an integer too."""
    switch = np.array([1e16, 9999999999999998.0, 1e15 + 0.5, 1e-4, 1e-5])
    twos = np.ldexp(1.0, np.arange(-1000, 1001))
    near = np.concatenate([switch, twos])
    short = np.array([0.1, 0.5, 2.0, 100.0, 1.0, 10.0, 1e15, 123456.0, 0.001, 1e-3 + 1e-4])
    # x = 10c + 2h: x - 2h = 10c, with half-ulp h = 2 in [2^54, 2^55) and 4 in
    # [2^55, 2^56), and x a multiple of the ulp 2h
    edges = []
    for low, half in ((2**54, 2), (2**55, 4)):
        c = rng.integers(low // 10 + 1, 2 * low // 10 - 1, 2000)
        x = 10 * c + 2 * half
        edges.append(x[x % (2 * half) == 0].astype(np.float64))
    # integers at k = 17 ... 22 that are multiples of 10^(k-16), where the
    # scaled |x| * 10^(16-k) is an integer too
    for k in range(17, 23):
        ulp = 2 ** ((2 * 10**k).bit_length() - 53)
        step = ulp * 10 ** (k - 16) // math.gcd(ulp, 10 ** (k - 16))
        edges.append(np.array([float(int(c) * step) for c in
                               rng.integers(10**k // step + 1, 2 * 10**k // step, 500)]))
    return np.concatenate([
        near, -near, np.nextafter(near, 0.0), np.nextafter(near, np.inf),
        short, -short, np.round(rng.standard_normal(2000), 3), *edges,
    ])


def test_json_kernel_matches_json_dumps():
    rng = np.random.default_rng(2027)
    values = np.concatenate([g17_edge_values(rng), repr_edge_values(rng)])
    values = np.resize(values, (-(-values.size // 17), 17))
    for table in (values, values[:1], values[-3:]):
        got, want = (text.split("\n") for text in
                     (table_text(table, "json"), reference_json(table)))
        # the differing rows, not a diff of megabytes
        assert len(got) == len(want) and not [(g, w) for g, w in zip(got, want) if g != w]


def repr_digits(value):
    """repr's significant digits of |value| as an integer, and the decimal
    exponent of the first."""
    _, digits, exponent = Decimal(repr(abs(value))).normalize().as_tuple()
    return int("".join(map(str, digits))), exponent + len(digits) - 1


def test_json_kernel_decides_all_but_boundary_cases():
    # the repr fallback alone would also match json: the vectorised path
    # must find repr's digits for every value it keeps, and hand back only
    # values with a candidate near the rounding interval's edge or a tie,
    # or with a power-of-two mantissa
    rng = np.random.default_rng(8)
    x = np.concatenate([
        rng.standard_normal(20_000) * 10.0 ** rng.uniform(-30.0, 30.0, 20_000),
        np.round(rng.uniform(-1000.0, 1000.0, 5000), 3),
    ])
    # and values it must hand back: powers of two, and x in [1e23, 2^77),
    # beyond exact arithmetic, whose interval ends on a multiple of 10^8,
    # x = 10^8 * 2^15 * odd + 2^23 with the ulp 2^24
    odd = 2 * rng.integers(15_300_000_000, 22_900_000_000, 200) + 1
    boundary = np.concatenate([np.ldexp(1.0, np.arange(-90, 91)),
                               [float(10**8 * 2**15 * int(m) + 2**23) for m in odd]])
    d, kidx, slow = _g17._shortest(np.concatenate([x, boundary]), _g17._tables())
    assert slow[:x.size].mean() < 1e-3 and slow[x.size:].all()
    for value, digits, k, fallback in zip([*x.tolist(), *boundary.tolist()], d.tolist(),
                                          kidx.tolist(), slow.tolist()):
        if not fallback:
            assert 10**16 <= digits < 10**17
            assert (int(str(digits).rstrip("0")), k + _g17.K_MIN) == repr_digits(value)
            continue
        mantissa, exponent = math.frexp(abs(value))
        if mantissa == 0.5:
            continue
        # N and the half-ulp u in the scale of 17 digits, exactly
        scale = Fraction(10) ** (16 - repr_digits(value)[1])
        scaled = Fraction(abs(value)) * scale
        half_ulp = Fraction(2) ** (exponent - 54) * scale
        near = []
        for j in range(3):
            rest = scaled % 10**j  # the candidates are scaled - rest and + 10^j
            near += [abs(rest - half_ulp), abs(10**j - rest - half_ulp),
                     abs(rest - Fraction(10**j, 2))]
        assert min(near) < _g17.TIE_GUARD


def test_simulate_rejects_bad_steps(capsys):
    code, _, err = run(capsys, ["simulate", "--c", C1, "--steps", "1"])
    assert code == 2
    assert "steps" in err


def test_simulate_unwritable_path(capsys):
    code, _, err = run(capsys, [
        "simulate", "--c", C1, "--steps", "5", "--t-end", "1",
        "--out", "/nonexistent-dir/out.csv",
    ])
    assert code == 2
    assert "cannot write" in err


def test_simulate_overflow_exits_one(capsys):
    # unstable RK4 step: the state stays finite but H overflows to inf
    code, _, err = run(capsys, [
        "simulate", "--c", C1, "--omega", "100", "--t-end", "600",
        "--steps", "12", "--integrator", "rk4",
    ])
    assert code == 1
    assert "sample" in err or "step" in err


# ---------------------------------------------------------------- verify --


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "omega": 1.0, "q0": 0.0, "p0": 2.0,
        "t_end": 2 * math.pi, "steps": 10000, "tol": 1e-7, "seed": 2026,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_verify_canonical_config_passes(tmp_path, capsys):
    code, out, _ = run(capsys, ["verify", str(write_config(tmp_path))])
    assert code == 0
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    assert names == ["closed_form_vs_rk4", "lax_equation_residual",
                     "mu_norm_drift", "hamiltonian_drift"]
    assert all(c["pass"] for c in report["checks"])
    assert all(c["max_residual"] <= c["tolerance"] for c in report["checks"])
    assert report["config"]["seed"] == 2026
    assert len(report["config"]["c"]) == 8


def test_verify_zero_params_passes(tmp_path, capsys):
    path = write_config(tmp_path, c=[0] * 8, steps=2000)
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 0
    report = json.loads(out)
    by_name = {c["name"]: c["max_residual"] for c in report["checks"]}
    assert by_name["closed_form_vs_rk4"] == 0.0
    assert by_name["lax_equation_residual"] == 0.0


def test_verify_deterministic_output(tmp_path, capsys):
    path = write_config(tmp_path, steps=500, tol=1e-3)
    code1, out1, _ = run(capsys, ["verify", str(path)])
    code2, out2, _ = run(capsys, ["verify", str(path)])
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_impossible_tolerance_fails(tmp_path, capsys):
    path = write_config(tmp_path, steps=2000, tol=1e-30)
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 1
    assert not all(c["pass"] for c in json.loads(out)["checks"])


def test_verify_invalid_steps_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, steps=1)
    code, _, err = run(capsys, ["verify", str(path)])
    assert code == 2
    assert "steps" in err


def test_verify_parse_error_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"omega": 1.0,\n  "steps": }\n')
    code, _, err = run(capsys, ["verify", str(path)])
    assert code == 2
    assert "line 2" in err and "column" in err


def test_verify_unknown_key_exits_two(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text('{"omege": 1.0}')
    code, _, err = run(capsys, ["verify", str(path)])
    assert code == 2
    assert "omege" in err


def test_verify_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, ["verify", str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("raw, fragment", [
    ({"steps": "ten"}, "steps"),
    ({"omega": True}, "omega"),
    ({"c": "nope"}, "c"),
    ({"c": [1, "x", 3, 4, 5, 6, 7, 8]}, "c"),
])
def test_verify_rejects_wrong_config_types(tmp_path, capsys, raw, fragment):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(raw))
    code, _, err = run(capsys, ["verify", str(path)])
    assert code == 2
    assert fragment in err


def test_verify_accepts_integer_reals(tmp_path, capsys):
    # JSON integers are fine where reals are expected
    path = write_config(tmp_path, omega=1, tol=1, steps=100)
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 0
    assert json.loads(out)["config"]["omega"] == 1.0


@pytest.mark.parametrize("argv", [
    ["simulate", "--q0", "nan"],
    ["simulate", "--p0", "inf"],
    ["simulate", "--config", "{nan_config}"],
    ["simulate", "--c", "nan,0,0,0,0,0,0,0"],
    ["simulate", "--seed", "-1"],
    ["verify", "{config}", "--c", "1,inf,0,0,0,0,0,0"],
    ["verify", "{config}", "--seed", "-1"],
    ["axioms", "--seed", "-1"],
    ["verify", "{big_q0_config}"],
    ["verify", "{big_c_config}"],
    # steps whose sample table numpy cannot index; never a merely huge one
    ["verify", "{big_steps_config}"],
    ["simulate", "--steps", "100000000000000000000000000"],
    ["simulate", "--steps", "4611686018427387904"],
    # a flag simulate no longer takes, and a config that is not UTF-8
    ["simulate", "--tol", "1"],
    ["verify", "{latin1_config}"],
    # a tolerance no residual can exceed
    ["axioms", "--tol", "inf"],
    ["axioms", "--tol", "1e400"],
])
def test_bad_input_exits_two(tmp_path, capsys, argv):
    # in-process, so an uncaught exception (a traceback) fails the test
    names_steps = "--steps" in argv or "{big_steps_config}" in argv
    nan_config = tmp_path / "nan.json"
    nan_config.write_text('{"q0": NaN}')
    # JSON integers beyond the float range
    big = "1" + "0" * 400
    big_q0_config = tmp_path / "big_q0.json"
    big_q0_config.write_text('{"q0": %s}' % big)
    big_c_config = tmp_path / "big_c.json"
    big_c_config.write_text('{"c": [0, 0, %s, 0, 0, 0, 0, 0]}' % big)
    big_steps_config = tmp_path / "big_steps.json"
    big_steps_config.write_text('{"steps": %s}' % big)
    latin1_config = tmp_path / "latin1.json"
    latin1_config.write_bytes(b'{"format": "\xe9"}')  # not UTF-8
    config = write_config(tmp_path)
    argv = [a.format(config=config, nan_config=nan_config, big_q0_config=big_q0_config,
                     big_c_config=big_c_config, big_steps_config=big_steps_config,
                     latin1_config=latin1_config)
            for a in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert "Traceback" not in err
    assert "steps" in line or not names_steps


def test_verify_overflow_is_one_error_line(tmp_path, capsys):
    # the closed form overflows at t = 0; no numpy warning may reach stderr
    path = write_config(tmp_path, c=[1e308] * 8, steps=100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, ["verify", str(path)])
    assert code == 1
    assert err.splitlines() == [
        "error: closed_form: non-finite value at sample 0 (t = 0)"
    ]


def test_verify_names_the_first_overflowing_sample(tmp_path, capsys):
    # mu = 4e307 (D- + D+) in its first component: 1.6e308 at t = 0, where
    # D = (4, 0), and past the largest double from t = 0.09 on
    path = write_config(tmp_path, c=[0, 0, 0, 0, 0, 0, 4e307, 4e307], t_end=1.0, steps=100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, ["verify", str(path)])
    assert code == 1
    assert err.splitlines() == [
        "error: closed_form: non-finite value at sample 9 (t = 0.09)"
    ]


def test_verify_overflowing_derivative_is_one_error_line(tmp_path, capsys):
    # the closed form is finite (|mu| about 4e305), but d(mu)/dt and
    # [M, mu] reach past the largest double at omega = 1000
    path = write_config(tmp_path)
    argv = ["verify", str(path), "--c", ",".join(["1e307"] * 8), "--q0", "0",
            "--p0", "1e-4", "--omega", "1000", "--t-end", "0.00628", "--steps", "1000"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: lax_equation_residual: non-finite value at sample 0 (t = 0)"
    ]


@pytest.mark.parametrize("flags, line", [
    # the RK4 run of mu turns non-finite first (omega h = 250 is past its
    # stability bound); the closed form stays finite
    (["--omega", "1000", "--t-end", "10", "--steps", "40"],
     "error: closed_form_vs_rk4: non-finite state at step 35 (t = 8.75)"),
    # with C = 0, mu is zero in both runs and only the (q, p) run grows
    (["--omega", "1000", "--t-end", "10", "--steps", "40", "--c", "0,0,0,0,0,0,0,0"],
     "error: hamiltonian_drift: non-finite state at step 38 (t = 9.5)"),
    # both the closed form and the RK4 run of mu are non-finite at sample 1:
    # the closed form, which seeds the run, is named
    (["--c", "0,0,0,0,0,0,4e307,4e307", "--q0", "0", "--p0", "2", "--omega", "1000",
      "--t-end", "1", "--steps", "40"],
     "error: closed_form: non-finite value at sample 1 (t = 0.025)"),
], ids=["rk4_mu", "rk4_qp", "closed_form_first"])
def test_verify_names_the_first_failing_stage(tmp_path, capsys, flags, line):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["verify", str(path), *flags])
    assert (code, out) == (1, "")
    assert err.splitlines() == [line]


@pytest.mark.parametrize("argv", [
    ["verify", "{config}", "--q0", "1e200"],
    ["simulate", "--q0", "1e200", "--c", C1],
], ids=["verify", "simulate"])
def test_infinite_energy_is_one_error_line(tmp_path, capsys, argv):
    # H overflows at q0 = 1e200: the state is refused as bad input
    config = write_config(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, [a.format(config=config) for a in argv])
    assert (code, out) == (2, "")
    assert err.splitlines() == [INFINITE_ENERGY]


def test_simulate_step_underflowing_to_zero_is_one_error_line(tmp_path, capsys):
    # t_end / steps rounds to 0: refused as bad input, as verify refuses it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["simulate", "--t-end", "5e-324", "--steps", "2",
                                      "--c", C1])
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: step t_end / steps must be positive, got 5e-324 / 2"]


def test_verify_step_underflowing_to_zero_is_one_error_line(tmp_path, capsys):
    # with t_end / steps = 0 neither RK4 run moves, which would pass every check
    path = tmp_path / "empty.json"
    path.write_text("{}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["verify", str(path), "--t-end", "5e-324", "--steps", "2"])
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: step t_end / steps must be positive, got 5e-324 / 2"]


def reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_verify_overflowing_energy_drift_is_reported_quietly(tmp_path, capsys):
    # C = 0 keeps mu at 0; the (q, p) run grows past the stability bound
    # but stays finite while its energies overflow: the drift is reported
    # as Infinity, and no numpy warning reaches stderr
    path = tmp_path / "empty.json"
    path.write_text("{}")
    argv = ["verify", str(path), "--omega", "1000", "--t-end", "5", "--steps", "20",
            "--c", "0,0,0,0,0,0,0,0"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv)
    assert (code, err) == (1, "")
    checks = {c["name"]: (c["max_residual"], c["pass"]) for c in json.loads(out)["checks"]}
    assert checks == {"closed_form_vs_rk4": (0.0, True), "lax_equation_residual": (0.0, True),
                      "mu_norm_drift": (0.0, True), "hamiltonian_drift": (math.inf, False)}


def test_verify_overflowing_norm_drift_is_infinite(tmp_path, capsys):
    # the closed form is finite, but its norm is past the largest double
    # from t = 0 on: the drift is Infinity, not inf - inf = NaN
    path = write_config(tmp_path, c=[1.7e308, 0, 0, 0, 0, 0, 0, 0], p0=0.5, t_end=1.0, steps=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["verify", str(path)])
    assert (code, err) == (1, "")
    checks = {c["name"]: (c["max_residual"], c["pass"]) for c in json.loads(out)["checks"]}
    assert checks["mu_norm_drift"] == (math.inf, False)


@pytest.mark.parametrize("p0", ["1e30", "1e-30"])
@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_extreme_momentum_runs_to_a_report(tmp_path, capsys, command, p0):
    # q0 = 0 and p0 far from 1: the aux seed stays finite, so the command
    # prints its report or table and exits 0 or 1
    path = tmp_path / "empty.json"
    path.write_text("{}")
    argv = ["verify", str(path)] if command == "verify" else ["simulate"]
    code, out, err = run(capsys, [*argv, "--p0", p0])
    assert code in (0, 1)
    assert out and "Traceback" not in err


def test_huge_finite_closed_form_has_finite_norms(tmp_path, capsys):
    # |mu| is about 1e201, so its squares overflow but its norms do not
    path = write_config(tmp_path, c=[1e200] * 8, steps=2000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["verify", str(path)])
    # the absolute tolerance fails residuals this large; the report stays strict
    assert (code, err) == (1, "")
    report = json.loads(out, parse_constant=reject_constant)
    assert all(math.isfinite(c["max_residual"]) for c in report["checks"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["simulate", "--config", str(path)])
    assert (code, err) == (0, "")
    cols, data = parse_csv(out)
    assert np.isfinite(data[:, cols.index("lax_residual")]).all()


@pytest.mark.parametrize("command", ["simulate", "verify", "simulate-blocks"])
def test_closed_stdout_exits_one_quietly(tmp_path, command):
    # simulate-blocks writes three blocks of rows, one at a time
    argv = {"simulate": ["simulate", "--steps", "5"],
            "verify": ["verify", str(write_config(tmp_path, steps=100))],
            "simulate-blocks": ["simulate", "--steps", "3000"]}[command]
    # the read end is closed before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(operadlax.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    try:
        # buffered, the write fails at main's flush; unbuffered, in the command
        for unbuffered in ("", "1"):
            env = dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED=unbuffered)
            proc = subprocess.run([sys.executable, "-m", "operadlax", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
            assert (proc.returncode, proc.stderr) == (1, b"")
    finally:
        os.close(write_end)


def test_flag_overrides_config(tmp_path, capsys):
    path = write_config(tmp_path, steps=500, tol=1e-3)
    code, out, _ = run(capsys, ["verify", str(path), "--tol", "1e-30"])
    assert code == 1
    assert json.loads(out)["config"]["tol"] == 1e-30


@pytest.mark.parametrize("flag, value, line", [
    ("--q0", "-1e-9", None),
    ("--p0", "-2e-3", None),
    ("--q0", "-.5", None),
    ("--c", "-0.5,0,0,0,0,0,0,0", None),
    ("--t-end", "-1e3", "error: t_end must be positive, got -1000.0"),
    ("--omega", "-1", "error: omega must be positive and finite, got -1.0"),
])
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_negative_flag_value_reads_the_same_in_both_forms(tmp_path, capsys, command, flag,
                                                          value, line):
    # a value in exponent or list form after the flag is a value, not a flag
    argv = (["simulate", "--steps", "20"] if command == "simulate"
            else ["verify", str(write_config(tmp_path, steps=20))])
    code, out, err = run(capsys, [*argv, flag, value])
    assert (code, out, err) == run(capsys, [*argv, f"{flag}={value}"])
    if line is None:
        assert code in (0, 1) and out and err == ""
    else:
        assert (code, out, err.splitlines()) == (2, "", [line])
