"""Command-line front-end tests.

Claims checked here:
    - the walks table reproduces the published counts, byte for byte
    - CSV schemas and the pinned single-row alpha output are stable
    - identical invocations produce byte-identical files
    - config files merge under flags; junk arguments exit 2 and
      computational dead ends exit 1
    - every bound declared in the parameter table is enforced, as a flag
      and as a config key
    - the witness sidecar and SVG plotting work end to end
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

from spinwire.cli import COMMANDS, build_parser, floats, main, resolve_params
from spinwire.walks import walk_count

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


def test_walks_counts_past_int64_stay_exact(capsys):
    # Catalan(36) at n = 74 lies between 2**63 and 2**64.
    lines = run_cli(capsys, "walks", "--n-max", "74").splitlines()[2:]
    rows = [tuple(map(int, line.split(","))) for line in lines]
    assert max(count for _, _, count in rows) > 2**63
    assert all(count == walk_count(n, k) for n, k, count in rows)


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
    with pytest.raises(SystemExit) as excinfo:
        main(["walks", "--config", str(config)])
    assert excinfo.value.code == 2


def test_argument_errors_exit_2():
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
        ["witness", "--tmax", "0"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


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
    assert capsys.readouterr().err.startswith("spinwire alpha: error:")


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
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert list(tmp_path.iterdir()) == [config]


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

    for argv in (as_flag(outside), as_config(outside)):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
    parser = build_parser()
    want = tuple(inside) if isinstance(inside, list) else inside
    for argv in (as_flag(inside), as_config(inside)):
        assert resolve_params(parser, parser.parse_args(argv))[param.name] == want


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


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "spinwire", "walks", "--n-max", "4"],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.endswith("4,1,1\n")
