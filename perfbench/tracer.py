"""Span tracing of spinwire from outside the package.

``instrument(tracer)`` swaps wrapped versions into the module attributes
the program looks its collaborators up by, and restores them on exit.
``spinwire.cli`` and ``spinwire.channels`` import their collaborators by
name, so the wrappers go into those namespaces as well as the defining
ones.  Nothing inside ``src/`` changes.

Each span records (call id, span id, parent id, name, start, end, self
seconds); self time is the duration minus the time covered by child
spans, and minus the wrapper's own cost per child span, which falls
outside the child's clock reads (see ``Tracer.calibrate``).  Inclusive
times still carry that cost for the spans nested inside them.  Spans
stay in memory until ``write_spans``.

CSV formatting is measured as the self time of the subcommand runner:
wrapping ``cli.fmt`` per value would cost more than the formatting.
"""

from __future__ import annotations

import builtins
import contextlib
import os
import statistics
import time
from collections import defaultdict

LAYERS = ("walks", "series", "propagator", "closed_forms", "channels", "numerics", "cli", "svg_plot")

# metric name -> (span name, "incl" for total duration or "self" for self time)
TIMED = {
    "propagator.certify_s": ("propagator.certify", "incl"),
    "propagator.gap_s": ("propagator.gap", "incl"),
    "propagator.eigensolve_s": ("propagator.eigensolve", "incl"),
    "propagator.cossum_s": ("propagator.cossum", "incl"),
    "cli.format_s": ("cli.runner", "self"),
    "cli.write_s": ("cli.write", "incl"),
    "cli.parse_s": ("cli.parse", "incl"),
    "svg_plot.render_s": ("svg_plot.render", "incl"),
    "closed_forms.bessel_s": ("closed_forms.bessel", "incl"),
    "series.eval_s": ("series.eval", "incl"),
    "series.build_s": ("series.build", "incl"),
    "walks.count_s": ("walks.count", "incl"),
    "numerics.quad_s": ("numerics.quad", "incl"),
    "numerics.bisect_s": ("numerics.bisect", "incl"),
    "channels.chi_s": ("channels.chi", "incl"),
    "channels.witness_s": ("channels.witness", "incl"),
}

# metric name -> unit, for counters bumped by the wrappers
COUNTED = {
    "propagator.eigensolve_calls": "calls",
    "propagator.eigensolve_sites": "sites",
    "propagator.eigvec_mb": "MB",
    "propagator.n_sites_max": "sites",
    "propagator.cossum_cells": "cells",
    "cli.out_bytes": "bytes",
    "svg_plot.points": "points",
    "closed_forms.bessel_calls": "calls",
    "series.eval_calls": "calls",
    "series.build_calls": "calls",
    "walks.count_calls": "calls",
    "numerics.quad_evals": "evals",
    "numerics.bisect_evals": "evals",
    "channels.chi_truncation_warnings": "warnings",
}


class Tracer:
    """In-memory span recorder with per-batch counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.call_id = 0
        self._stack: list[list] = []  # [span id, child seconds, parent id, start]
        self._next_id = 0
        self.span_overhead = 0.0  # seconds charged to a parent per child span

    def calibrate(self, calls: int = 20000, repeats: int = 9) -> float:
        """Measure and keep the wrapper cost a child span leaves in its parent.

        A wrapped call costs its caller the call into the wrapper, the parts
        of begin() and end() on the far side of their clock reads, the span
        append and the counter.  Without a correction that cost would land in
        the parent's self time: 300k Bessel spans would read as CSV
        formatting in the runner.  Times wrapped no-op calls inside a parent
        span against bare no-op calls; the median over `repeats` is kept.
        """
        tally = defaultdict(int)

        def noop():
            return None

        def count(args, kwargs, result):
            tally["calls"] += 1

        wrapped = self.wrap("calibrate", noop, count)
        estimates = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - t0
            first = len(self.spans)
            frame = self.begin()
            for _ in range(calls):
                wrapped()
            self.end(frame, "calibrate")
            estimates.append((self.spans[-1][6] - bare) / calls)
            del self.spans[first:]
        self.span_overhead = max(0.0, statistics.median(estimates))
        return self.span_overhead

    def begin(self) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, 0.0, parent, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def end(self, frame: list, name: str) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, child, parent, start = frame
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration + self.span_overhead
        self.spans.append((self.call_id, span_id, parent, name, start, end, duration - child))

    def wrap(self, name: str, fn, count=None):
        """fn inside a span; count(args, kwargs, result) bumps counters afterwards."""

        def traced(*args, **kwargs):
            frame = self.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(frame, name)
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def layer_metrics(self, first_span: int = 0) -> dict[str, float]:
        """Per-layer metrics over spans[first_span:] and the current counters."""
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for span in self.spans[first_span:]:
            name = span[3]
            incl[name] += span[5] - span[4]
            self_s[name] += span[6]
        out = {}
        for metric, (span_name, kind) in TIMED.items():
            out[metric] = (incl if kind == "incl" else self_s)[span_name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        for metric in COUNTED:
            out[metric] = self.counts[metric]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("call_id,span_id,parent_id,name,start,end,self_s\n")
            for span in self.spans:
                handle.write(",".join(repr(x) if isinstance(x, float) else str(x) for x in span) + "\n")


class _TracedFile:
    """open(..., "w") for spinwire.cli: the whole open-write-close is one span."""

    def __init__(self, tracer: Tracer, path, args, kwargs):
        self._tracer, self._path = tracer, path
        self._frame = tracer.begin()
        self._handle = builtins.open(path, *args, **kwargs)

    def __enter__(self):
        return self

    def write(self, text):
        return self._handle.write(text)

    def __exit__(self, *exc):
        self._handle.close()
        self._tracer.end(self._frame, "cli.write")
        self._tracer.counts["cli.out_bytes"] += os.path.getsize(self._path)
        return False


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    from spinwire import channels, cli, closed_forms, numerics, propagator, series, svg_plot, walks

    counts = tracer.counts

    def bump(*metrics):
        def count(args, kwargs, result):
            for metric in metrics:
                counts[metric] += 1

        return count

    def eigensolve_count(args, kwargs, result):
        n = len(args[0])
        counts["propagator.eigensolve_calls"] += 1
        counts["propagator.eigensolve_sites"] += n
        counts["propagator.eigvec_mb"] += n * n * 8 / 1e6
        counts["propagator.n_sites_max"] = max(counts["propagator.n_sites_max"], n)

    def cossum_count(args, kwargs, result):
        self, t = args
        cells = (t.size if hasattr(t, "size") else 1) * self.eigenvalues.size
        counts["propagator.cossum_cells"] += cells

    def plot_count(args, kwargs, result):
        counts["svg_plot.points"] += len(args[0])

    def counting_first_arg(name, counter, fn):
        # Count evaluations of the callable a numerics routine is given.
        def routine(f, *args, **kwargs):
            def counted(x):
                counts[counter] += 1
                return f(x)

            return fn(counted, *args, **kwargs)

        return tracer.wrap(name, routine)

    original_parser = cli.build_parser

    def build_parser():
        parser = original_parser()
        parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)
        return parser

    def traced_open(path, mode="r", *args, **kwargs):
        if "w" not in mode:
            return builtins.open(path, mode, *args, **kwargs)
        return _TracedFile(tracer, path, (mode, *args), kwargs)

    eval_series = tracer.wrap("series.eval", series.evaluate_series, bump("series.eval_calls"))
    build = tracer.wrap("series.build", series.build_series, bump("series.build_calls"))
    walk_count = tracer.wrap("walks.count", walks.walk_count, bump("walks.count_calls"))
    patches = [
        (propagator, "eigh_tridiagonal", tracer.wrap("propagator.eigensolve", propagator.eigh_tridiagonal, eigensolve_count)),
        (propagator.SpectralAlpha, "__call__", tracer.wrap("propagator.cossum", propagator.SpectralAlpha.__call__, cossum_count)),
        (cli, "choose_chain_length", tracer.wrap("propagator.certify", cli.choose_chain_length)),
        (cli, "truncation_gap", tracer.wrap("propagator.gap", cli.truncation_gap)),
        (closed_forms, "bessel_j0", tracer.wrap("closed_forms.bessel", closed_forms.bessel_j0, bump("closed_forms.bessel_calls"))),
        (closed_forms, "bessel_j1", tracer.wrap("closed_forms.bessel", closed_forms.bessel_j1, bump("closed_forms.bessel_calls"))),
        (cli, "evaluate_series", eval_series),
        (channels, "evaluate_series", eval_series),
        (cli, "build_series", build),
        (channels, "build_series", build),
        (series, "walk_count", walk_count),
        (walks, "walk_count", walk_count),
        (channels, "adaptive_simpson", counting_first_arg("numerics.quad", "numerics.quad_evals", numerics.adaptive_simpson)),
        (channels, "bisect_root", counting_first_arg("numerics.bisect", "numerics.bisect_evals", numerics.bisect_root)),
        (channels, "chi_metric", tracer.wrap("channels.chi", channels.chi_metric)),
        (cli, "singlet_witness", tracer.wrap("channels.witness", cli.singlet_witness)),
        (cli, "magnetized_bloch_trace", tracer.wrap("channels.bloch", cli.magnetized_bloch_trace)),
        (cli, "recurrence_demo", tracer.wrap("channels.recurrence", cli.recurrence_demo)),
        (cli, "emit_plot", tracer.wrap("svg_plot.render", cli.emit_plot, plot_count)),
        (cli, "build_parser", tracer.wrap("cli.parse", build_parser)),
        (cli, "resolve_params", tracer.wrap("cli.parse", cli.resolve_params)),
    ]
    runners = dict(cli.RUNNERS)
    saved = [(owner, attr, owner.__dict__.get(attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        cli.open = traced_open  # shadows the builtin inside spinwire.cli only
        for command, runner in runners.items():
            cli.RUNNERS[command] = tracer.wrap("cli.runner", runner)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
        del cli.open
        cli.RUNNERS.update(runners)
