"""Command-line front end.

Every subcommand validates its full parameter set before computing,
computes everything in memory, then writes: an interrupted or invalid
invocation never leaves a partial output file.  Output is deterministic
for identical argv; data files carry no timestamps, only a generated-by
comment naming the tool and version.  Floats are printed with 17
significant digits so files round-trip to the exact doubles.

Exit codes: 0 success, 1 computational failure, 2 argument errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import __version__
from .channels import (DEFAULT_QUAD_TOL, chi_scan, magnetized_bloch_trace, recurrence_demo,
                       singlet_witness)
from .closed_forms import alpha_closed, classify_couplings
from .propagator import (DEFAULT_TRUNCATION_TOL, MATRIX, METHODS, SERIES, ChainSpec,
                         SpectralAlpha, choose_chain_length, truncation_gap)
from .series import DEFAULT_ORDER, alpha_z, build_series, evaluate_series
from .svg_plot import emit_plot
from .walks import WalkTable

GENERATED_BY = f"# generated-by: spinwire {__version__}"
FLOAT_FORMAT = "%.17g"


class Param(NamedTuple):
    """One subcommand parameter, the only place its flag, type, default,
    bounds and help are declared.

    ``type`` is int, float, str, :func:`floats` or a tuple of allowed
    strings.  ``bounds`` is an interval such as "(0, 0.999]" that a
    number, or every element of a list, must lie in; ``count`` is the
    interval for the length of a list.  A None default lets the parameter
    stay unset, except for a list.
    """

    name: str
    type: object
    default: object
    bounds: str | None
    help: str
    count: str = "[1, inf)"
    even: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def _within(interval: str, x: float) -> bool:
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = lo < x if interval[0] == "(" else lo <= x
    return above and (x < hi if interval[-1] == ")" else x <= hi)


def floats(text) -> tuple[float, ...]:
    """Comma-separated floats, or a list of numbers from a config file."""
    if isinstance(text, (list, tuple)):
        return tuple(float(v) for v in text)
    return tuple(float(part) for part in str(text).split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinwire",
        description="Qubit decoherence through a semi-infinite xx spin chain, "
        "by exact series, matrix propagator, and Bessel closed forms.",
    )
    parser.add_argument("--version", action="version", version=f"spinwire {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _, table) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for param in table:
            choices = isinstance(param.type, tuple)
            kind = {"choices": param.type} if choices else {"type": param.type}
            p.add_argument(param.flag, dest=param.name, help=param.help, **kind)
        p.add_argument("--config", help="JSON file whose keys mirror flags; flags win")
    return parser


def resolve_params(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """Merge flag values over config-file values over built-in defaults."""
    _, _, table = COMMANDS[args.command]
    config: dict[str, object] = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
                config = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config {args.config}: {exc}")
        if not isinstance(config, dict):
            parser.error(f"config {args.config} must hold a JSON object")
        unknown = set(config) - {param.name for param in table}
        if unknown:
            parser.error(f"unknown config keys for {args.command}: {sorted(unknown)}")

    params: dict[str, object] = {}
    for param in table:
        value = getattr(args, param.name)
        if value is None:
            value = config.get(param.name, param.default)
        try:
            params[param.name] = _check(param, value)
        except ValueError as exc:
            parser.error(f"{args.command}: {param.flag} {exc}")
    return params


def _check(param: Param, value):
    """value converted to the parameter's type; ValueError names the broken rule."""
    if value is None and param.default is None:
        if param.type is floats:
            raise ValueError("is required")
        return None
    if isinstance(param.type, tuple):
        if value not in param.type:
            raise ValueError(f"must be one of {', '.join(param.type)}")
        return value
    if param.type is str:
        if not isinstance(value, str):
            raise ValueError("must be a string")
        return value
    if param.type is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError("must be an integer")
        numbers = (value,)
    else:
        try:
            numbers = floats(value) if param.type is floats else (float(value),)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("must be a number") from None
        if not all(map(math.isfinite, numbers)):
            raise ValueError("must be finite")
    if not _within(param.count, len(numbers)):
        raise ValueError(f"needs a number of values in {param.count}")
    if param.bounds and not all(_within(param.bounds, x) for x in numbers):
        raise ValueError(f"must be in {param.bounds}")
    if param.even and value % 2:
        raise ValueError("must be even")
    return numbers if param.type is floats else numbers[0]


# ---------------------------------------------------------------------------
# Subcommand runners: each returns (csv text, sidecar dict or None, plot spec)
# ---------------------------------------------------------------------------

def _csv(header: str, columns, comments=(), spec: str = FLOAT_FORMAT) -> str:
    """Generated-by line, comment lines, header, then one row per sample."""
    row = ",".join([spec] * len(columns))
    # Only arrays go through .tolist(): numpy makes floats of ints past 2**63.
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    return "\n".join([GENERATED_BY, *comments, header, *map(row.__mod__, rows)]) + "\n"


def _chain_length(k0: float, k: float, tmax: float, tol: float) -> int:
    """Certified chain length for a run to tmax; a run that stays at t=0 gets 2 sites."""
    return choose_chain_length(k, tmax, tol, k0=k0) if tmax > 0 else 2


def _run_walks(params):
    table = WalkTable.build(params["n_max"])
    rows = [(n, k, count) for (n, k), count in sorted(table.entries.items())]
    return _csv("n,k,count", list(zip(*rows)), spec="%d"), None, None


def _run_alpha(params):
    method, k0, k = params["method"], params["k0"], params["k"]
    tmax, steps = params["tmax"], params["steps"]
    times = np.linspace(0.0, tmax, steps)
    comments = []

    if method == SERIES:
        coeffs = build_series(Fraction(k0) ** 2, Fraction(k) ** 2, params["order"])
        values, errors = zip(*(evaluate_series(coeffs, t) for t in times.tolist()))
    elif method == MATRIX:
        n_sites = params["n_sites"]
        if n_sites is None:
            n_sites = _chain_length(k0, k, tmax, params["tol"])
            comments.append(f"# n_sites={n_sites}")
        spec = ChainSpec(k0, k, n_sites)
        if tmax > 0:
            values, gap = SpectralAlpha(spec)(times), truncation_gap(spec, tmax)
        else:
            values, gap = np.ones(steps), 0.0
        errors = np.full(steps, gap)
    else:
        case = classify_couplings(k0, k)
        values = [alpha_closed(case, t) for t in times.tolist()]
        errors = np.zeros(steps)

    values = np.asarray(values)
    columns = [times, values, alpha_z(values), errors]
    plot = (times, values, "t", "alpha0", f"alpha0, method={method}")
    return _csv("t,alpha0,alphaZ,error_estimate", columns, comments), None, plot


def _run_chi_scan(params):
    scan = chi_scan(params["ratios"], params["order"], params["quad_tol"])
    log_chi = [math.log(c) if c > 0 else -math.inf for c in scan.chi]
    plot = (scan.ratios, log_chi, "K/K0", "log chi", "exponentiality metric")
    return _csv("ratio,chi,log_chi", [scan.ratios, scan.chi, log_chi]), None, plot


def _run_bloch(params):
    k0, k, tmax = params["k0"], params["k"], params["tmax"]
    n = _chain_length(k0, k, tmax, params["tol"])
    pairs = magnetized_bloch_trace(ChainSpec(k0, k, n), np.linspace(0.0, tmax, params["steps"]))
    times, v_sq = zip(*pairs)
    plot = (times, v_sq, "t", "v^2", "Bloch length, magnetized chain")
    return _csv("t,v_sq", [times, v_sq], [f"# n_sites={n}"]), None, plot


def _run_witness(params):
    tmax, tol = params["tmax"], params["tol"]
    spec_a, spec_b = (
        ChainSpec(params[k0], params[k], _chain_length(params[k0], params[k], tmax, tol))
        for k0, k in (("k0a", "ka"), ("k0b", "kb"))
    )
    trace = singlet_witness(spec_a, spec_b, np.linspace(0.0, tmax, params["steps"]))
    sidecar = {
        "death_time": trace.death_time,
        "rebirth_times": list(trace.rebirth_times),
        "intervals": [list(pair) for pair in trace.entangled_intervals],
    }
    plot = (trace.times, trace.witness, "t", "witness", "singlet correlation witness")
    return _csv("t,witness", [trace.times, trace.witness]), sidecar, plot


def _run_recurrence(params):
    times = np.linspace(0.0, params["tmax"], params["steps"])
    values, first = recurrence_demo(params["freqs"], times, params["threshold"])
    comments = [] if first is None else [f"# first_exceedance={FLOAT_FORMAT % first}"]
    plot = (times, values, "t", "P", "finite-frequency survival probability")
    return _csv("t,p", [times, values], comments), None, plot


K = Param("k", float, 1.0, "[0, inf)", "wire coupling")
TMAX = Param("tmax", float, 10.0, "[0, inf)", "end of the time grid")
STEPS = Param("steps", int, 1000, "[1, inf)", "number of samples, t=0 included")
ORDER = Param("order", int, DEFAULT_ORDER, "[2, inf)", "series truncation order")
TOL = Param(
    "tol", float, DEFAULT_TRUNCATION_TOL, "(0, 0.999]", "truncation certification tolerance"
)
OUT = Param("out", str, None, None, "output CSV path (default: stdout)")
PLOT = Param("plot", str, None, None, "also write an SVG line plot here")

# subcommand -> (summary, runner, parameters in --help order)
COMMANDS: dict[str, tuple[str, object, tuple[Param, ...]]] = {
    "walks": ("table of origin-returning walk counts", _run_walks, (
        Param("n_max", int, 12, "[2, inf)", "largest (even) step count", even=True),
        OUT,
    )),
    "alpha": ("auto-fidelity alpha0 on a time grid", _run_alpha, (
        Param("method", METHODS, MATRIX, None, "series, matrix propagator or closed form"),
        Param("k0", float, 1.0, "[0, inf)", "plug coupling"),
        K, TMAX, STEPS, ORDER,
        Param("n_sites", int, None, "[2, inf)", "chain length (default: certified choice)"),
        TOL, OUT, PLOT,
    )),
    "chi-scan": ("exponentiality metric over coupling ratios", _run_chi_scan, (
        Param("ratios", floats, None, "(0, inf)", "comma-separated K/K0 values"),
        ORDER,
        Param("quad_tol", float, DEFAULT_QUAD_TOL, "(0, inf)", "chi quadrature tolerance"),
        OUT, PLOT,
    )),
    "bloch": ("Bloch length against a magnetized chain", _run_bloch, (
        Param("k0", float, math.sqrt(2.0), "[0, inf)", "plug coupling"),
        K, TMAX, TOL, STEPS, OUT, PLOT,
    )),
    "witness": ("two-qubit singlet witness trace", _run_witness, (
        Param("k0a", float, 1.0, "[0, inf)", "plug coupling of chain A"),
        Param("ka", float, 1.0, "[0, inf)", "wire coupling of chain A"),
        Param("k0b", float, 1.0, "[0, inf)", "plug coupling of chain B"),
        Param("kb", float, 1.0, "[0, inf)", "wire coupling of chain B"),
        Param("tmax", float, 10.0, "(0, inf)", "end of the time grid"),
        TOL,
        Param("steps", int, 2000, "[2, inf)", "number of samples, t=0 included"),
        OUT, PLOT,
    )),
    "recurrence": ("finite-frequency survival probability", _run_recurrence, (
        Param("freqs", floats, (1.0, math.pi), None, "comma-separated angular frequencies",
              count="[2, 8]"),
        Param("threshold", float, 0.9, "(0, 1]", "survival level that counts as a return"),
        Param("tmax", float, 500.0, "(0, inf)", "end of the time grid"),
        Param("steps", int, 500001, "[2, inf)", "number of samples, t=0 included"),
        OUT, PLOT,
    )),
}


RUNNERS = {command: runner for command, (_, runner, _) in COMMANDS.items()}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    params = resolve_params(parser, args)

    try:
        csv_text, sidecar, plot_spec = RUNNERS[args.command](params)
        sidecar_text = (
            json.dumps(sidecar, sort_keys=True) if sidecar is not None else None
        )
        if params["out"]:
            with open(params["out"], "w", encoding="utf-8", newline="\n") as handle:
                handle.write(csv_text)
            if sidecar_text is not None:
                with open(
                    params["out"] + ".json", "w", encoding="utf-8", newline="\n"
                ) as handle:
                    handle.write(sidecar_text + "\n")
        else:
            if sidecar_text is not None:
                csv_text += f"# sidecar {sidecar_text}\n"
            sys.stdout.write(csv_text)
        if params.get("plot"):
            xs, ys, xlabel, ylabel, title = plot_spec
            emit_plot(xs, ys, xlabel=xlabel, ylabel=ylabel, title=title, path=params["plot"])
    except (ValueError, RuntimeError, OSError, ArithmeticError) as exc:
        print(f"spinwire {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
