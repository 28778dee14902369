"""Command-line front-end tests.

Claims checked here:
    - the walks table reproduces the published counts, byte for byte,
      lists every (n, k) up to n_max/2 - 1 with exact counts past int64,
      has the bytes of one f-string per entry, and is built one row of
      counts per block it yields
    - CSV schemas and the pinned single-row alpha output are stable
    - a chain length is echoed only when one was chosen
    - one certification serves every subcommand: alpha --method matrix
      and bloch echo the same length for the same chain, alpha's error
      column is the truncation bound at it, and witness builds moments
      once for equal couplings and twice for distinct ones
    - the closed route gives the matrix route's 1 for a decoupled qubit
    - the series route, which floats unreduced coefficient pairs, prints
      the bits of evaluate_series on build_series' reduced Fractions
    - identical invocations produce byte-identical files
    - config files merge under flags; --help and --version return 0,
      junk arguments return 2 (no SystemExit escapes main) and
      computational dead ends return 1, a NaN in any column, a series
      error term past the float range and a failed allocation included,
      with nothing on stderr but the error line
    - every bound declared in the parameter table is enforced, as a flag
      and as a config key, before any output file is written; any value
      outside a bound, or any token that is no finite number, exits 2
      and leaves no file
    - the witness sidecar and SVG plotting work end to end
    - chi-scan looks chi_metric up on spinwire.channels at each call, so
      a patch there is seen, and a negative chi exits 1 with no file;
      a series whose middle coefficients pass the float range still
      gives a finite chi, with the truncation warning
    - main's one parser per process gives every call, in any order, the
      exit code, output and files of that call in a fresh interpreter
    - CSV rows stream in chunks with the bytes of per-row formatting; a
      failure mid-stream leaves no output and no temporary file, and
      memory stays bounded on a million-row grid
    - only a missing or regular-file target is replaced through a
      temporary file; a device or a symlink is written through
    - the SVG points equal per-point formatting across chunk joins, a
      200001-point plot needs no more memory than a one-chunk plot, and
      the SVG is written with "\n" line endings on every platform
    - the package import, every README command, the spectral reference
      and truncation_gap run in a process where importing scipy raises
    - every name in spinwire.__all__ resolves
"""

from __future__ import annotations

import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spinwire
from spinwire import (build_series, channels, choose_chain_length, cli, evaluate_series,
                      propagator, svg_plot, truncation_bound)
from spinwire.cli import (COMMANDS, FLOAT_FORMAT, GENERATED_BY, build_parser, floats, main,
                          resolve_params)
from spinwire.numerics import CHUNK
from spinwire.walks import walk_count, walk_rows

TABLE_CSV = """# generated-by: spinwire 0.1.0
n,k,count
2,0,1
2,1,0
2,2,0
2,3,0
2,4,0
2,5,0
4,0,1
4,1,1
4,2,0
4,3,0
4,4,0
4,5,0
6,0,2
6,1,2
6,2,1
6,3,0
6,4,0
6,5,0
8,0,5
8,1,5
8,2,3
8,3,1
8,4,0
8,5,0
10,0,14
10,1,14
10,2,9
10,3,4
10,4,1
10,5,0
12,0,42
12,1,42
12,2,28
12,3,14
12,4,5
12,5,1
"""


def run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_walks_reproduces_published_table(capsys):
    assert run_cli(capsys, "walks", "--n-max", "12") == TABLE_CSV


@pytest.mark.parametrize("n_max", [2, 12, 74])
def test_walks_counts_past_int64_stay_exact(capsys, n_max):
    # every even n lists k = 0 .. n_max/2 - 1 in (n, k) order, zero past
    # k = n/2 - 1; Catalan(36) at n = 74 lies between 2**63 and 2**64.
    lines = run_cli(capsys, "walks", "--n-max", str(n_max)).splitlines()[2:]
    rows = [tuple(map(int, line.split(","))) for line in lines]
    half = n_max // 2
    assert len(rows) == half * half
    assert [(n, k) for n, k, _ in rows] == [
        (n, k) for n in range(2, n_max + 1, 2) for k in range(half)
    ]
    assert all(count == walk_count(n, k) for n, k, count in rows)
    assert all(count == 0 for n, k, count in rows if k > n // 2 - 1)
    if n_max == 74:
        assert max(count for _, _, count in rows) > 2**63


@pytest.mark.parametrize("n_max", [2, 12, 74, 200, 304, 404])
def test_walks_has_the_bytes_of_one_f_string_per_entry(capsys, n_max):
    half = n_max // 2
    expected = f"{GENERATED_BY}\nn,k,count\n" + "".join(
        f"{n},{k},{count}\n"
        for n, row in zip(range(2, n_max + 1, 2), walk_rows(n_max))
        for k, count in enumerate(row + [0] * (half - len(row)))
    )
    assert run_cli(capsys, "walks", "--n-max", str(n_max)) == expected


def test_walks_streams_one_row_of_counts_at_a_time(monkeypatch):
    made = []

    def recording_walk_rows(n_max):
        for row in walk_rows(n_max):
            made.append(len(row))
            yield row

    monkeypatch.setattr(cli, "walk_rows", recording_walk_rows)
    blocks, _, _ = cli._run_walks({"n_max": 12, "out": None})
    assert next(blocks) == f"{GENERATED_BY}\nn,k,count\n"
    assert made == []
    assert next(blocks) == "2,0,1\n2,1,0\n2,2,0\n2,3,0\n2,4,0\n2,5,0\n"
    assert made == [1]  # the row of n = 2 alone


def test_alpha_closed_single_row(capsys):
    out = run_cli(
        capsys, "alpha", "--method", "closed", "--k0", "1", "--k", "1",
        "--tmax", "0", "--steps", "1",
    )
    assert out.splitlines()[-1] == "0,1,1,0"
    assert out.splitlines()[1] == "t,alpha0,alphaZ,error_estimate"


def test_alpha_methods_agree(capsys):
    args = ("--k0", "1", "--k", "1", "--tmax", "2", "--steps", "5")
    rows = {}
    for method in ("series", "matrix", "closed"):
        out = run_cli(capsys, "alpha", "--method", method, *args)
        data = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
        rows[method] = [float(r[1]) for r in data[1:]]
    for a, b, c in zip(rows["series"], rows["matrix"], rows["closed"]):
        assert abs(a - b) < 1e-9
        assert abs(a - c) < 1e-9


@pytest.mark.parametrize("k0, k, order", [("1.5", "2", 30), ("0.7", "1.3", 60)])
def test_series_route_has_the_bits_of_build_series(capsys, k0, k, order):
    out = run_cli(capsys, "alpha", "--method", "series", "--k0", k0, "--k", k,
                  "--order", str(order), "--tmax", "3", "--steps", "301")
    coeffs = build_series(Fraction(float(k0)) ** 2, Fraction(float(k)) ** 2, order)
    values, errors = evaluate_series(coeffs, np.linspace(0.0, 3.0, 301))
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert [float(row[1]).hex() for row in rows] == [v.hex() for v in values.tolist()]
    assert [float(row[3]).hex() for row in rows] == [e.hex() for e in errors.tolist()]


def test_closed_decoupled_qubit_equals_matrix(capsys):
    # K0 = 0: the qubit never sees the wire, so alpha0 is 1 on both routes
    args = ("--k0", "0", "--k", "1", "--tmax", "3", "--steps", "7")
    columns = {}
    for method in ("matrix", "closed"):
        out = run_cli(capsys, "alpha", "--method", method, *args)
        rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
        columns[method] = [row[1] for row in rows[1:]]
    assert columns["closed"] == columns["matrix"] == ["1"] * 7


def test_matrix_echoes_chosen_length(capsys):
    out = run_cli(
        capsys, "alpha", "--method", "matrix", "--k0", "1", "--k", "1",
        "--tmax", "1", "--steps", "2",
    )
    assert "# n_sites=52" in out  # ceil(2*1*1) + 50
    out = run_cli(
        capsys, "alpha", "--method", "matrix", "--k0", "1", "--k", "1",
        "--tmax", "1", "--steps", "2", "--n-sites", "40",
    )
    assert "# n_sites" not in out


@pytest.mark.parametrize("argv", [
    ["alpha", "--method", "matrix", "--tmax", "0", "--steps", "2"],
    ["bloch", "--tmax", "0", "--steps", "2"],
])
def test_no_chain_comment_at_time_zero(capsys, argv):
    # a grid that stays at t = 0 needs no chain, so none is reported
    lines = run_cli(capsys, *argv).splitlines()
    assert not any(line.startswith("# n_sites") for line in lines)
    assert [line.split(",")[:2] for line in lines[2:]] == [["0", "1"], ["0", "1"]]


def test_identical_invocations_byte_identical(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert main([
            "alpha", "--method", "matrix", "--k0", "1", "--k", "1",
            "--tmax", "10", "--steps", "1000", "--out", str(path),
        ]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes().startswith(b"# generated-by: spinwire")


def test_witness_sidecar_file(tmp_path):
    out = tmp_path / "w.csv"
    assert main([
        "witness", "--k0a", "4", "--ka", "1", "--k0b", "4", "--kb", "1",
        "--tmax", "2", "--steps", "200", "--out", str(out),
    ]) == 0
    sidecar = json.loads((tmp_path / "w.csv.json").read_text())
    assert set(sidecar) == {"death_time", "rebirth_times", "intervals"}
    assert sidecar["death_time"] == pytest.approx(0.16012, abs=1e-4)
    assert sidecar["rebirth_times"]
    assert out.read_text().splitlines()[1] == "t,witness"


def test_witness_sidecar_on_stdout(capsys):
    # the window ends before the first crossing, so the interval is
    # open-ended and no death is declared
    out = run_cli(
        capsys, "witness", "--k0a", "1", "--ka", "1", "--k0b", "1", "--kb", "1",
        "--tmax", "0.5", "--steps", "50",
    )
    last = out.splitlines()[-1]
    assert last.startswith("# sidecar ")
    assert json.loads(last.removeprefix("# sidecar "))["death_time"] is None


def test_config_file_merges_under_flags(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"k0": 1.0, "k": 1.0, "tmax": 0.0, "steps": 1}))
    out = run_cli(
        capsys, "alpha", "--method", "closed", "--config", str(config),
    )
    assert out.splitlines()[-1] == "0,1,1,0"
    # flags win: override steps via the command line
    out = run_cli(
        capsys, "alpha", "--method", "closed", "--config", str(config),
        "--steps", "3", "--tmax", "1",
    )
    assert len(out.splitlines()) == 5


def test_config_rejects_unknown_keys(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"n_max": 12, "bogus": 1}))
    assert main(["walks", "--config", str(config)]) == 2
    # chi is exact, so chi-scan takes no quadrature tolerance
    config.write_text(json.dumps({"ratios": [2.0], "quad_tol": 1e-9}))
    assert main(["chi-scan", "--config", str(config), "--out", str(tmp_path / "chi.csv")]) == 2
    assert list(tmp_path.iterdir()) == [config]


def test_argument_errors_exit_2(tmp_path):
    out = str(tmp_path / "out.csv")
    for argv in (
        ["walks", "--n-max", "7"],
        ["walks", "--n-max", "0"],
        ["alpha", "--method", "warp", "--k0", "1", "--k", "1"],
        ["alpha", "--method", "series", "--steps", "0"],
        ["chi-scan", "--ratios", "-1"],
        ["chi-scan"],
        ["recurrence", "--freqs", "1.0"],
        ["recurrence", "--freqs", "1,nan"],
        ["recurrence", "--freqs", "1,inf"],
        ["recurrence", "--freqs", "1,,3"],
        ["witness", "--tmax", "0"],
        ["chi-scan", "--ratios", "2", "--quad-tol", "1e-9", "--out", out],
    ):
        assert main(argv) == 2
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["alpha", "--help"]])
def test_help_and_version_return_0(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(("usage: spinwire", "spinwire "))


def test_computational_errors_exit_1(capsys):
    code = main([
        "alpha", "--method", "closed", "--k0", "1", "--k", "0.7",
        "--tmax", "1", "--steps", "2",
    ])
    assert code == 1
    assert "matrix propagator" in capsys.readouterr().err
    # u**order overflows a float far outside the series window
    code = main([
        "alpha", "--method", "series", "--order", "80", "--tmax", "1000",
        "--steps", "2",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("spinwire alpha: error:") and "overflow" in err
    # chi of the order-60 polynomial at ratio 32 is about 1e396
    assert main(["chi-scan", "--ratios", "32", "--order", "60"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("spinwire chi-scan: error: chi at ratio 32.0 overflows")
    # the closed-form argument overflows to inf, which has no cos or Bessel value
    for couplings, tmax, name in ((["--k0", "1.4142135623730951", "--k", "1"], "1e308", "2*K*t"),
                                  (["--k0", "1", "--k", "1"], "1e308", "2*K*t"),
                                  (["--k0", "1e308", "--k", "0"], "1e10", "K0*t")):
        argv = ["alpha", "--method", "closed", *couplings, "--tmax", tmax, "--steps", "3"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"spinwire alpha: error: alpha0 needs a finite {name}\n"


def test_failed_allocation_exits_1(monkeypatch, capsys, tmp_path):
    # as numpy's MemoryError for a grid past the memory at hand, raised without allocating it
    def runner(params):
        raise MemoryError("Unable to allocate 149. GiB for an array with shape (2, 10000000000)")

    monkeypatch.setitem(cli.RUNNERS, "alpha", runner)
    out = tmp_path / "a.csv"
    assert main(["alpha", "--method", "matrix", "--tmax", "1e10", "--steps", "2",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "spinwire alpha: error: Unable to allocate 149. GiB for an array with shape "
        "(2, 10000000000)\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, column", [
    # 2 * 2 * t overflows at t = 1e308, and cos(inf) is NaN
    (["recurrence", "--freqs", "1,2", "--tmax", "1e308", "--steps", "3"], "p"),
    # 2 * 1e308 * t overflows, and cos(inf) is NaN
    (["recurrence", "--freqs", "1,1e308", "--tmax", "1", "--steps", "3"], "p"),
])
@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.filterwarnings("error")
def test_nan_in_a_column_exits_1_and_writes_nothing(tmp_path, capsys, argv, column, to_file):
    out = tmp_path / "nan.csv"
    code = main(argv + (["--out", str(out)] if to_file else []))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"spinwire {argv[0]}: error: column {column} holds NaN\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.filterwarnings("error")
def test_series_overflow_exits_1_and_writes_nothing(tmp_path, capsys, to_file):
    # far outside the series window t * t overflows before the tail power does, also
    # where the last coefficient is 0 (K0 = 0); at K0 = K = 100, t = 1e7 the power
    # (t t)^20 = 1e280 is finite but 2 |c_20| (t t)^20 is not, which printed alpha0 = inf
    out = tmp_path / "series.csv"
    for k0, k, tmax in (("1", "1", "1e200"), ("1", "1", "1e300"), ("0", "1", "1e200"),
                        ("100", "100", "1e7")):
        argv = ["alpha", "--method", "series", "--k0", k0, "--k", k, "--tmax", tmax,
                "--steps", "3"]
        code = main(argv + (["--out", str(out)] if to_file else []))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "spinwire alpha: error: series tail power t**40 overflows a float\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key", ["out", "plot"])
def test_config_rejects_non_string_paths(tmp_path, key):
    # an int would be taken for a file descriptor; this one is never open
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: 987654}))
    out = tmp_path / "alpha.csv"
    argv = ["alpha", "--method", "closed", "--tmax", "1", "--steps", "2",
            "--config", str(config)]
    if key == "plot":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("config", [
    {"k0": True}, {"k": "1"}, {"k0": True, "k": "1"}, {"tmax": [1.0]},
])
def test_config_rejects_non_numbers(tmp_path, config):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "alpha.csv"
    assert main(["alpha", "--method", "closed", "--config", str(path), "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("ratios", ["1,2", [1.0, True], 2.0])
def test_config_list_must_hold_numbers(tmp_path, ratios):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"ratios": ratios}))
    assert main(["chi-scan", "--config", str(path), "--out", str(tmp_path / "chi.csv")]) == 2
    assert list(tmp_path.iterdir()) == [path]


def _error_column(out):
    rows = [line.split(",") for line in out.splitlines()[2:]]
    return {float(row[3]) for row in rows}


def test_matrix_error_column_with_chosen_length(capsys):
    # 8 sites are far too few for t = 5: the bound is loose but must hold
    out = run_cli(
        capsys, "alpha", "--method", "matrix", "--k0", "1", "--k", "1",
        "--tmax", "5", "--steps", "101", "--n-sites", "8",
    )
    (bound,) = _error_column(out)
    assert 0 < bound < 2
    rows = [list(map(float, line.split(","))) for line in out.splitlines()[2:]]
    # K0 = K: alpha0 = J1(2t)/t on the semi-infinite chain
    worst = max(abs(a - (scipy.special.j1(2 * t) / t if t else 1.0)) for t, a, *_ in rows)
    assert worst <= bound
    # a 2-site chain at a huge time: the bound overflows and is capped at 2
    out = run_cli(
        capsys, "alpha", "--method", "matrix", "--tmax", "1e6", "--steps", "3",
        "--n-sites", "2",
    )
    assert _error_column(out) == {2.0}
    out = run_cli(
        capsys, "alpha", "--method", "matrix", "--tmax", "0", "--steps", "2",
        "--n-sites", "2",
    )
    assert _error_column(out) == {0.0}


@pytest.mark.parametrize("k0, k, tmax", [("1", "1", "10"), ("4", "0.5", "30"), ("300", "1", "10")])
def test_one_certification_serves_every_subcommand(capsys, k0, k, tmax):
    chain = ["--k0", k0, "--k", k, "--tmax", tmax, "--steps", "11"]
    alpha = run_cli(capsys, "alpha", "--method", "matrix", *chain).splitlines()
    bloch = run_cli(capsys, "bloch", *chain).splitlines()
    assert alpha[1] == bloch[1]
    n_sites = int(re.fullmatch(r"# n_sites=(\d+)", alpha[1]).group(1))
    assert n_sites == choose_chain_length(float(k), float(tmax), k0=float(k0))
    bound = truncation_bound(float(k0), float(k), n_sites, float(tmax))
    assert {float(row.split(",")[3]) for row in alpha[3:]} == {bound}


@pytest.mark.parametrize("chain_b, builds", [(("4", "1"), 1), (("1", "1"), 2)])
def test_witness_builds_moments_once_per_distinct_chain(monkeypatch, capsys, chain_b, builds):
    counts = []
    real = propagator._signed_moments

    def counting(*args):
        counts.append(args[0])
        return real(*args)

    monkeypatch.setattr(propagator, "_signed_moments", counting)
    run_cli(capsys, "witness", "--k0a", "4", "--ka", "1", "--k0b", chain_b[0],
            "--kb", chain_b[1], "--tmax", "8", "--steps", "2000")
    assert len(counts) == builds, counts


def _edges(interval, integer):
    """(just outside, just inside) at each finite end of an interval like "(0, 1]"."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))

    def near(x, d):  # d = 0 is the end itself, d = +-1 the next value that way
        if integer:
            return int(x) + d
        return math.nextafter(x, x + d) if d else x

    edges = []
    if math.isfinite(lo):
        open_end = interval[0] == "("
        edges.append((near(lo, 0), near(lo, 1)) if open_end else (near(lo, -1), near(lo, 0)))
    if math.isfinite(hi):
        open_end = interval[-1] == ")"
        edges.append((near(hi, 0), near(hi, -1)) if open_end else (near(hi, 1), near(hi, 0)))
    return edges


def _bound_cases():
    for command, (_, _, table) in COMMANDS.items():
        for param in table:
            if param.bounds:
                for outside, inside in _edges(param.bounds, param.type is int):
                    case = f"{command}-{param.name}-{inside!r}"
                    if param.type is floats:
                        outside, inside = [outside], [inside]
                    yield pytest.param(command, param, outside, inside, id=case)
            if param.type is floats:
                for outside, inside in _edges(param.count, integer=True):
                    yield pytest.param(command, param, [1.0] * outside, [1.0] * inside,
                                       id=f"{command}-{param.name}-count-{inside}")


@pytest.mark.parametrize("command,param,outside,inside", list(_bound_cases()))
def test_every_declared_bound_is_enforced(tmp_path, command, param, outside, inside):
    base = ["--ratios", "1"] if command == "chi-scan" and param.name != "ratios" else []

    def as_flag(value):
        text = ",".join(map(repr, value)) if isinstance(value, list) else repr(value)
        return [command, f"{param.flag}={text}", *base]

    def as_config(value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({param.name: value}))
        return [command, "--config", str(config), *base]

    out = tmp_path / "out.csv"
    for argv in (as_flag(outside), as_config(outside)):
        assert main(argv + ["--out", str(out)]) == 2
        assert [path.name for path in tmp_path.iterdir()] in ([], ["run.json"])
    parser = build_parser()
    want = tuple(inside) if isinstance(inside, list) else inside
    for argv in (as_flag(inside), as_config(inside)):
        assert resolve_params(parser, parser.parse_args(argv))[param.name] == want


_BOUNDED = [(command, param) for command, (_, _, table) in COMMANDS.items()
            for param in table if param.bounds]
_NOT_NUMBERS = ("", "x", "one", "1e", "0x1", "1,,2", "--", "nan", "-inf")


@st.composite
def _bad_value(draw, param):
    """A token outside param's bounds, or one that is not a finite number."""
    if draw(st.booleans()):
        return draw(st.sampled_from(_NOT_NUMBERS))
    if param.type is int:
        value = draw(st.integers(-10**6, 10**6))
    else:
        value = draw(st.floats(allow_nan=False, allow_infinity=False))
    assume(not cli._within(param.bounds, value))
    return repr(value)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bad_input_exits_2_and_leaves_no_file(data):
    command, param = data.draw(st.sampled_from(_BOUNDED))
    token = data.draw(_bad_value(param))
    base = ["--ratios", "1"] if command == "chi-scan" and param.name != "ratios" else []
    with tempfile.TemporaryDirectory() as folder:
        out = os.path.join(folder, "out.csv")
        assert main([command, f"{param.flag}={token}", *base, "--out", out]) == 2
        assert os.listdir(folder) == []


def test_plot_written(tmp_path):
    plot = tmp_path / "alpha.svg"
    assert main([
        "alpha", "--method", "closed", "--k0", "1", "--k", "1",
        "--tmax", "10", "--steps", "200", "--plot", str(plot),
        "--out", str(tmp_path / "alpha.csv"),
    ]) == 0
    body = plot.read_text()
    assert body.startswith("<svg ")
    assert "polyline" in body


def test_plot_rejects_empty_or_bad_data(tmp_path):
    from spinwire.svg_plot import emit_plot

    target = tmp_path / "empty.svg"
    with pytest.raises(ValueError):
        emit_plot([], [], xlabel="x", ylabel="y", title="t", path=str(target))
    with pytest.raises(ValueError):
        emit_plot([1.0], [math.nan], xlabel="x", ylabel="y", title="t",
                  path=str(target))
    assert not target.exists()


def test_plot_unwritable_path_exits_1(tmp_path, capsys):
    code = main([
        "alpha", "--method", "closed", "--k0", "1", "--k", "1",
        "--tmax", "1", "--steps", "5",
        "--plot", str(tmp_path / "missing-dir" / "plot.svg"),
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_recurrence_reports_first_exceedance(capsys):
    out = run_cli(
        capsys, "recurrence", "--freqs", f"1,{math.pi}", "--tmax", "5",
        "--steps", "5001",
    )
    header = [line for line in out.splitlines() if line.startswith("#")]
    assert any("first_exceedance=2.8810000000000002" in line for line in header)


def test_chi_scan_csv_schema(capsys):
    out = run_cli(capsys, "chi-scan", "--ratios", "1.4142135623730951,2")
    lines = out.splitlines()
    assert lines[1] == "ratio,chi,log_chi"
    ratio, chi, log_chi = (float(x) for x in lines[2].split(","))
    assert chi > 0 and log_chi == pytest.approx(math.log(chi), rel=1e-12)


def test_chi_scan_calls_chi_metric_through_channels(monkeypatch, capsys):
    calls = []

    def fake_chi(ratio, order):
        calls.append((ratio, order))
        return 0.25

    monkeypatch.setattr(channels, "chi_metric", fake_chi)
    out = run_cli(capsys, "chi-scan", "--ratios", "1.5,2", "--order", "20")
    assert calls == [(1.5, 20), (2.0, 20)]
    assert out.splitlines()[2:] == ["1.5,0.25,-1.3862943611198906", "2,0.25,-1.3862943611198906"]


def test_chi_scan_with_coefficients_past_float_range(capsys):
    # the order-1079 series at ratio 20 has coefficients near 1e338 in the
    # middle; its last one, about -1.3e-3, and chi are finite
    with pytest.warns(RuntimeWarning, match="truncation-dominated"):
        out = run_cli(capsys, "chi-scan", "--ratios", "20", "--order", "1079")
    assert out.splitlines()[2] == "20,3.3825139980901043e-07,-14.899476431518236"


def test_negative_chi_exits_1_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(channels, "_chi_closed_form", lambda coeffs: -1e-3)
    target = tmp_path / "chi.csv"
    assert main(["chi-scan", "--ratios", "2", "--order", "20", "--out", str(target)]) == 1
    assert "negative" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_streamed_csv_equals_per_row_format(rows):
    # zeros, the extremes, infinities, %g switch points, a decade carry and an exact tie
    special = [0.0, -0.0, 5e-324, -sys.float_info.max, math.inf, -math.inf, 1e-5, 1e-4,
               np.nextafter(1e17, 0.0), 1e16, 1e-176, (2 ** 53 - 1) / 4]
    columns = [np.linspace(0.0, 3.0, rows), [math.pi * i for i in range(rows)], np.arange(rows) / 7,
               [special[i % len(special)] for i in range(rows)]]
    row = ",".join([FLOAT_FORMAT] * 4)
    expected = "\n".join(
        [GENERATED_BY, "# note", "a,b,c,d", *(row % r for r in zip(*(list(c) for c in columns)))]
    ) + "\n"
    chunks = list(cli._csv("a,b,c,d", columns, ["# note"]))
    assert "".join(chunks) == expected
    assert len(chunks) == 1 + -(-rows // CHUNK)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("stage", ["csv", "plot"])
@pytest.mark.parametrize("existing", [False, True])
def test_failure_mid_stream_leaves_no_partial_file(
    tmp_path, monkeypatch, capsys, error, stage, existing
):
    module = cli if stage == "csv" else svg_plot
    real_chunks = module.chunks

    def failing_chunks(n):
        blocks = real_chunks(n)
        yield next(blocks)
        raise error("injected")

    monkeypatch.setattr(module, "chunks", failing_chunks)
    out, plot = tmp_path / "p.csv", tmp_path / "p.svg"
    target = out if stage == "csv" else plot
    if existing:
        target.write_text("old contents\n")
    argv = ["recurrence", "--steps", str(3 * CHUNK), "--out", str(out), "--plot", str(plot)]
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == 1
        assert "injected" in capsys.readouterr().err
    # a failing plot comes after the CSV, which is complete by then
    expected = {"p.csv"} if stage == "plot" else set()
    assert {p.name for p in tmp_path.iterdir()} == expected | ({target.name} if existing else set())
    if existing:
        assert target.read_text() == "old contents\n"


WITNESS_ARGV = ["witness", "--tmax", "0.5", "--steps", "3"]


def test_device_target_is_written_through(tmp_path, monkeypatch):
    out, plot = tmp_path / "w.csv", tmp_path / "w.svg"
    devices = {str(out), str(out) + ".json", str(plot)}
    real_lstat, replaced = os.lstat, []

    def lstat(path, *args, **kwargs):
        if os.fspath(path) in devices:
            return os.stat_result((stat.S_IFCHR | 0o666,) + (0,) * 9)
        return real_lstat(path, *args, **kwargs)

    monkeypatch.setattr(cli.os, "lstat", lstat)
    monkeypatch.setattr(cli.os, "replace", lambda *args: replaced.append(args))
    assert main([*WITNESS_ARGV, "--out", str(out), "--plot", str(plot)]) == 0
    assert replaced == []
    assert {p.name for p in tmp_path.iterdir()} == {"w.csv", "w.csv.json", "w.svg"}
    assert out.read_text().startswith(GENERATED_BY + "\n")
    assert json.loads((tmp_path / "w.csv.json").read_text())["death_time"] is None
    assert plot.read_text().endswith("</svg>\n")


def test_symlinked_target_is_written_through(tmp_path, capsys):
    printed = run_cli(capsys, *WITNESS_ARGV)
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("old contents\n")
    link.symlink_to(real.name)
    assert main([*WITNESS_ARGV, "--out", str(link)]) == 0
    assert link.is_symlink()
    assert printed.startswith(real.read_text()) and real.read_text() != "old contents\n"


def test_sidecar_is_last_line_after_streamed_chunks(capsys):
    steps = 2 * CHUNK + 1
    out = run_cli(
        capsys, "witness", "--k0a", "1", "--ka", "1", "--k0b", "1", "--kb", "1",
        "--tmax", "0.5", "--steps", str(steps),
    )
    lines = out.splitlines()
    assert len(lines) == 2 + steps + 1
    assert lines[-1].startswith("# sidecar ")


def test_plot_memory_stays_one_block(tmp_path, traced_peak):
    xs = np.linspace(0.0, 20.0, 200001)
    ys = np.cos(xs)

    def peak(n):
        return traced_peak(lambda: svg_plot.emit_plot(
            xs[:n], ys[:n], xlabel="x", ylabel="y", title="t", path=str(tmp_path / "p.svg")))[1]

    peak(2)  # the formatter's tables, outside the comparison
    assert peak(xs.size) < peak(CHUNK) + 300_000


def test_plot_points_equal_per_point_format(tmp_path):
    xs = np.linspace(-3.0, 7.0, 3 * CHUNK + 1)
    ys = np.sin(3.0 * xs) * 1e3
    path = tmp_path / "p.svg"
    svg_plot.emit_plot(xs, ys, xlabel="x", ylabel="y", title="t", path=str(path))
    x_lo, x_hi = svg_plot._padded_range(min(xs.tolist()), max(xs.tolist()))
    y_lo, y_hi = svg_plot._padded_range(min(ys.tolist()), max(ys.tolist()))
    plot_w = svg_plot.WIDTH - svg_plot.MARGIN_LEFT - svg_plot.MARGIN_RIGHT
    plot_h = svg_plot.HEIGHT - svg_plot.MARGIN_TOP - svg_plot.MARGIN_BOTTOM
    expected = " ".join(
        f"{svg_plot.MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w:.2f},"
        f"{svg_plot.MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h:.2f}"
        for x, y in zip(xs.tolist(), ys.tolist())
    )
    body = path.read_text()
    assert re.search(r'points="([^"]*)"', body).group(1) == expected
    assert body.endswith('"/>\n</svg>\n')


def test_plot_pins_newlines(tmp_path, monkeypatch):
    newlines = []

    def spy(*args, **kwargs):
        newlines.append(kwargs.get("newline"))
        return open(*args, **kwargs)

    monkeypatch.setattr(svg_plot, "open", spy, raising=False)
    svg_plot.emit_plot([0.0, 1.0], [1.0, 0.0], xlabel="x", ylabel="y", title="t",
                       path=str(tmp_path / "p.svg"))
    assert newlines == ["\n"]


def test_recurrence_memory_stays_bounded(tmp_path):
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    script = (
        "import resource, sys\n"
        "from spinwire.cli import main\n"
        "unit = 1 if sys.platform == 'darwin' else 1024\n"
        "def peak(): return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit / 2**20\n"
        "base = peak()\n"
        "code = main(['recurrence', '--steps', '1000001', '--out', sys.argv[1]])\n"
        "print(code, peak() - base)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "r.csv")],
        capture_output=True, text=True, check=True,
    )
    code, growth_mb = result.stdout.split()
    assert code == "0"
    # the 8 MB time and value columns, the CSV blocks and the allocator's slack;
    # whole-grid temporaries in recurrence_demo once took it to 39 MB
    assert float(growth_mb) < 30.0


RUN_CALLS = """
import contextlib, io, json, os, sys
from spinwire import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    files = {}
    for name in sorted(os.listdir()):
        if name.endswith(".csv"):
            with open(name, encoding="utf-8") as handle:
                files[name] = handle.read()
            os.remove(name)
    results.append([code, out.getvalue(), err.getvalue(), files])
print(json.dumps(results))
"""


def test_reused_parser_matches_fresh_interpreters(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"tmax": 0.0, "steps": 1}))
    calls = [
        ["alpha", "--method", "warp"],
        ["--version"],
        ["--help"],
        ["alpha", "--method", "closed", "--config", str(config), "--out", "alpha.csv"],
        ["alpha", "--method", "closed", "--out", "alpha.csv"],
    ]
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def run(batch):
        result = subprocess.run(
            [sys.executable, "-c", RUN_CALLS, json.dumps(batch)],
            cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
        )
        return json.loads(result.stdout)

    in_one_process = run(calls)
    assert in_one_process == [run([argv])[0] for argv in calls]
    assert [code for code, *_ in in_one_process] == [2, 0, 0, 0, 0]
    # the config's tmax and steps stay with its own call
    with_config, without = (files["alpha.csv"] for *_, files in in_one_process[3:])
    assert len(with_config.splitlines()) == 3 and len(without.splitlines()) == 1002
    assert cli._parser() is cli._parser()


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "spinwire", "walks", "--n-max", "4"],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.endswith("4,1,1\n")
    # main returns the argument-error code, and the process exits with it
    result = subprocess.run(
        [sys.executable, "-m", "spinwire", "walks", "--n-max", "7"],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert "error:" in result.stderr


README_EXAMPLES_WITHOUT_SCIPY = """
import contextlib, os, sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises ImportError
import spinwire, spinwire.cli
with open(sys.argv[1], encoding="utf-8") as readme:
    lines = [line.split()[1:] for line in readme if line.startswith("spinwire ")]
assert lines, "no spinwire lines in README.md"
for argv in lines:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert spinwire.cli.main(argv) == 0, argv
from spinwire.propagator import ChainSpec, ChebyshevAlpha, SpectralAlpha, truncation_gap
spec = ChainSpec(1.0, 1.0, 8)
times = [0.0, 0.5, 1.7, 4.0]
gap = max(abs(SpectralAlpha(spec)(t) - ChebyshevAlpha(spec)(t)) for t in times)
assert gap <= 1e-12, gap
assert truncation_gap(ChainSpec(1.0, 1.0, 60), 5.0) <= 1e-12
assert sys.modules["scipy"] is None
"""


def test_cli_never_imports_scipy(tmp_path):
    # each `spinwire ...` line of README.md, split on whitespace as the CI step does,
    # then the spectral reference, all in a process where importing scipy raises
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    result = subprocess.run(
        [sys.executable, "-c", README_EXAMPLES_WITHOUT_SCIPY, str(root / "README.md")],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


def test_every_public_name_resolves():
    missing = [name for name in spinwire.__all__ if not hasattr(spinwire, name)]
    assert spinwire.__all__ and not missing, missing
