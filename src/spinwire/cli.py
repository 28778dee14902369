"""Command-line front end.

Every subcommand validates its full parameter set before computing,
then formats its CSV in chunks of rows.  Every alpha route, bloch,
witness, recurrence, the SVG points and the formatters work one
``numerics.CHUNK`` of samples at a time, and a constant column is a
broadcast view, so working memory is the output columns plus O(CHUNK)
however large the grid.  With --out the chunks stream to a
temporary file beside the output, which is renamed over it only once
complete (the --plot SVG likewise): a failed or interrupted invocation
never leaves a partial output file.  A target that exists and is not a
regular file (a symlink, a device such as /dev/null, a FIFO) is written
through instead.  On stdout the chunks follow one another once computing is
done.  Output is deterministic for identical argv; data files carry no
timestamps, only a generated-by comment naming the tool and version.
Floats are printed as %.17g, so files round-trip to the exact doubles;
floatfmt produces those bytes in bulk.  A NaN in any column is a
computational failure.

Exit codes, which main returns and the spinwire script exits with: 0
success (--help and --version too), 1 computational failure (a failed
allocation included), 2 argument errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import __version__, channels
from .channels import magnetized_bloch_trace, recurrence_demo, singlet_witness
from .closed_forms import alpha_closed
from .floatfmt import FORMAT as FLOAT_FORMAT, format_rows
from .numerics import chunks
# truncation_gap is unused here but stays importable: perfbench/tracer.py patches it by name.
from .propagator import (DEFAULT_TRUNCATION_TOL, ChainSpec, ChebyshevAlpha,
                         choose_chain_length, truncation_bound, truncation_gap)
from .series import DEFAULT_ORDER, _series_pairs, alpha_z, evaluate_series
from .svg_plot import emit_plot
from .walks import walk_rows

GENERATED_BY = f"# generated-by: spinwire {__version__}"
METHODS = ("series", "matrix", "closed")  # the alpha routes
SERIES, MATRIX, _ = METHODS


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


def floats(text: str) -> tuple[float, ...]:
    """Comma-separated floats; an empty item is an error."""
    return tuple(float(part) for part in text.split(","))


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
        # flags arrive parsed; a config value must be a JSON number, or a list of them
        items = value if param.type is floats else (value,)
        if not isinstance(items, (list, tuple)) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in items
        ):
            raise ValueError("must be a list of numbers" if param.type is floats
                             else "must be a number")
        try:
            numbers = tuple(map(float, items))
        except OverflowError:
            raise ValueError("must be finite") from None
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
# Subcommand runners: each returns (csv chunks, sidecar dict or None, plot spec)
# ---------------------------------------------------------------------------

def _header(header: str, comments=()) -> str:
    """The generated-by line, comment lines and the column header."""
    return "\n".join([GENERATED_BY, *comments, header]) + "\n"


def _csv(header: str, columns, comments=()):
    """The header block, then one string per CHUNK of float rows.

    The columns are formatted together by floatfmt.format_rows.  A NaN
    in a column is a ValueError naming the column, raised before
    anything is yielded; -inf and inf are kept.
    """
    columns = [np.asarray(column, dtype=float) for column in columns]
    for name, column in zip(header.split(","), columns):
        if np.isnan(column).any():
            raise ValueError(f"column {name} holds NaN")
    yield _header(header, comments)
    for block in chunks(len(columns[0])):
        yield format_rows(np.column_stack([column[block] for column in columns]))


def _chain_alpha(k0: float, k: float, params):
    """(alpha0 evaluator, comment lines) for the chain of couplings k0, k.

    The chain has --n-sites sites when given, and no comment; otherwise
    the length choose_chain_length certifies for --tmax and --tol, echoed
    as "# n_sites=" unless the run stays at t=0, where its 2 sites certify
    nothing.  choose_chain_length is looked up on this module at each
    call, so perfbench/tracer.py's patch of it is seen.
    """
    n_sites, tmax = params.get("n_sites"), params["tmax"]
    comments = []
    if n_sites is None:
        n_sites = choose_chain_length(k, tmax, params["tol"], k0=k0)
        comments = [f"# n_sites={n_sites}"] if tmax > 0 else []
    return ChebyshevAlpha(ChainSpec(k0, k, n_sites)), comments


def _run_walks(params):
    # every n lists k = 0 .. n_max/2 - 1, zero-padded past its own last walk;
    # one block per n, so only one row of exact counts is alive at a time
    n_max = params["n_max"]
    fields = [f",{k},%d\n" for k in range(n_max // 2)]
    zeros = [f",{k},0\n" for k in range(n_max // 2)]

    def blocks():
        yield _header("n,k,count")
        for n, row in zip(range(2, n_max + 1, 2), walk_rows(n_max)):
            # each line is n + ",k,count\n": the ",k,count\n" parts joined by n,
            # with the counts filled in by one % per block
            s = str(n)
            yield (s + s.join(fields[:len(row)] + zeros[len(row):])) % tuple(row)

    return blocks(), None, None


def _run_alpha(params):
    method, k0, k = params["method"], params["k0"], params["k"]
    tmax, steps = params["tmax"], params["steps"]
    times = np.linspace(0.0, tmax, steps)
    comments = []

    if method == SERIES:
        pairs = _series_pairs(Fraction(k0) ** 2, Fraction(k) ** 2, params["order"])
        # int / int is correctly rounded: the bits of float(Fraction(n, d))
        values, errors = evaluate_series([n / d for n, d in pairs], times)
    elif method == MATRIX:
        alpha, comments = _chain_alpha(k0, k, params)
        values = alpha(times)
        # |alpha| <= 1 on any chain, so 2 is the trivial bound
        bound = truncation_bound(k0, k, alpha.spec.n_sites, tmax)
        errors = np.broadcast_to(min(bound, 2.0), steps)
    else:
        values = alpha_closed(k0, k, times)
        errors = np.broadcast_to(0.0, steps)

    columns = [times, values, alpha_z(values), errors]
    plot = (times, values, "t", "alpha0", f"alpha0, method={method}")
    return _csv("t,alpha0,alphaZ,error_estimate", columns, comments), None, plot


def _run_chi_scan(params):
    ratios = params["ratios"]
    # looked up on the module at each call, so perfbench/tracer.py's patch of it is seen
    chi = [channels.chi_metric(r, params["order"]) for r in ratios]
    log_chi = [math.log(c) if c > 0 else -math.inf for c in chi]
    plot = (ratios, log_chi, "K/K0", "log chi", "exponentiality metric")
    return _csv("ratio,chi,log_chi", [ratios, chi, log_chi]), None, plot


def _run_bloch(params):
    alpha, comments = _chain_alpha(params["k0"], params["k"], params)
    times = np.linspace(0.0, params["tmax"], params["steps"])
    v_sq = magnetized_bloch_trace(alpha, times)
    plot = (times, v_sq, "t", "v^2", "Bloch length, magnetized chain")
    return _csv("t,v_sq", [times, v_sq], comments), None, plot


def _run_witness(params):
    chain_a, chain_b = (params["k0a"], params["ka"]), (params["k0b"], params["kb"])
    alpha_a = _chain_alpha(*chain_a, params)[0]
    alpha_b = alpha_a if chain_b == chain_a else _chain_alpha(*chain_b, params)[0]
    times = np.linspace(0.0, params["tmax"], params["steps"])
    trace = singlet_witness(alpha_a, alpha_b, times)
    sidecar = {
        "death_time": trace.death_time,
        "rebirth_times": list(trace.rebirth_times),
        "intervals": [list(pair) for pair in trace.entangled_intervals],
    }
    plot = (times, trace.witness, "t", "witness", "singlet correlation witness")
    return _csv("t,witness", [times, trace.witness]), sidecar, plot


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
        ORDER, OUT, PLOT,
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
# main's parser, built on first use and reused for the life of the process.
# build_parser itself stays uncached: perfbench/tracer.py wraps parse_args on
# the tree it returns, which must not reach other callers.
_parser = functools.cache(build_parser)


def _replacing(path: str, write) -> None:
    """Call write(temporary) for a temporary path beside path, then rename it to path.

    On any failure, an interrupt included, the temporary file is removed
    and path is left as it was.  Only a missing path or a regular file is
    replaced so; anything else (a symlink, a device, a FIFO) is written
    through by write(path).
    """
    try:
        regular = stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        write(path)
        return
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        write(temporary)
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temporary)
        raise


def _write_text(path: str, texts) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for text in texts:
            handle.write(text)


# numpy overflow and invalid-value warnings are not shown: _csv reports
# a NaN they lead to as the error, and an inf is a valid value
@np.errstate(over="ignore", invalid="ignore")
def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        params = resolve_params(parser, args)
    except SystemExit as exc:  # argparse: 2 for a bad argument, 0 after --help or --version
        return exc.code

    try:
        csv_chunks, sidecar, plot_spec = RUNNERS[args.command](params)
        sidecar_text = (
            json.dumps(sidecar, sort_keys=True) if sidecar is not None else None
        )
        if params["out"]:
            _replacing(params["out"], lambda path: _write_text(path, csv_chunks))
            if sidecar_text is not None:
                _replacing(params["out"] + ".json",
                           lambda path: _write_text(path, [sidecar_text + "\n"]))
        else:
            for chunk in csv_chunks:
                sys.stdout.write(chunk)
            if sidecar_text is not None:
                sys.stdout.write(f"# sidecar {sidecar_text}\n")
        if params.get("plot"):
            xs, ys, xlabel, ylabel, title = plot_spec
            _replacing(params["plot"], lambda path: emit_plot(
                xs, ys, xlabel=xlabel, ylabel=ylabel, title=title, path=path))
    except (ValueError, RuntimeError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"spinwire {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
