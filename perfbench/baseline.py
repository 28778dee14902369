"""Map each ROADMAP baseline figure to the per-layer metric that measures it.

    python3 perfbench/baseline.py

Runs each baseline case once under the tracer, with the benchmark's
pinned BLAS thread count, and prints the measured metric next to the
figure the ROADMAP baseline states (2-CPU machine, threads unpinned)
and their ratio.  Layers the baseline lists without a figure print
"-" as the baseline.
"""

from __future__ import annotations

import run  # pins the BLAS threads before numpy loads; keep first

import sys  # noqa: E402
import time  # noqa: E402

HEAVY_ALPHA = "alpha --method matrix --k0 32 --k 1024 --tmax 1 --steps 1001"
# The CLI never solves a chain just once, so this row calls the library.
ONE_EIGENSOLVE = "SpectralAlpha(ChainSpec(32.0, 1024.0, 2098))"

# (layer, metric, how to normalise, ROADMAP figure in seconds or None, command line)
# normalise: "total", or a counter to divide by.
CASES = (
    ("end to end", "call_s", "total", 4.22, HEAVY_ALPHA),
    ("end to end", "call_s", "total", 3.13, "alpha --method matrix --k0 1 --k 1 --tmax 1000 --steps 1001"),
    ("end to end", "call_s", "total", 0.63, "witness --k0a 16 --ka 256 --k0b 16 --kb 256 --tmax 1.5 --steps 3001"),
    ("end to end", "call_s", "total", 0.97, "recurrence --tmax 500 --steps 500001"),
    ("CSV formatting", "cli.format_s", "total", 0.93, "recurrence --tmax 500 --steps 500001"),
    ("certification", "propagator.certify_s", "total", 2.21, HEAVY_ALPHA),
    ("certification", "propagator.gap_s", "total", 2.26, HEAVY_ALPHA),
    ("cosine sum", "propagator.cossum_s", "total", 0.06, HEAVY_ALPHA),
    ("eigensolve", "propagator.eigensolve_s", "total", 0.36, ONE_EIGENSOLVE),
    ("series eval", "series.eval_s", "series.eval_calls", 20e-6, "alpha --method series --k0 1 --k 1 --order 20 --tmax 2 --steps 100000"),
    ("series build", "series.build_s", "series.build_calls", None, "chi-scan --ratios 1.41421,1.73205,2,2.23607 --order 20"),
    ("walk counts", "walks.count_s", "walks.count_calls", None, "walks --n-max 300"),
    ("Bessel", "closed_forms.bessel_s", "closed_forms.bessel_calls", 24e-6, "alpha --method closed --k0 1.4142135623730951 --k 1 --tmax 10 --steps 1000"),
    ("chi integral", "channels.chi_s", "ratios", (9e-3, 39e-3), "chi-scan --ratios 1.41421,1.73205,2,2.23607 --order 20"),
)


def main() -> int:
    cli = run.load_program()
    if cli is None:
        print(f"baseline: no spinwire sources under {run.SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer, instrument

    out = run.OUT / "baseline"
    out.mkdir(parents=True, exist_ok=True)
    span_overhead = Tracer().calibrate()
    print(f"{'layer':<15} {'metric':<34} {'measured':>11} {'ROADMAP':>15} {'ratio':>7}  case")
    for layer, metric, per, figure, command in CASES:
        argv = command.split() + ["--out", str(out / "case.csv")]
        tracer = Tracer()
        tracer.span_overhead = span_overhead
        with instrument(tracer):
            start = time.perf_counter()
            if command == ONE_EIGENSOLVE:
                from spinwire.propagator import ChainSpec, SpectralAlpha

                SpectralAlpha(ChainSpec(32.0, 1024.0, 2098))
                code = 0
            else:
                code = run.invoke(cli.main, argv)
            elapsed = time.perf_counter() - start
        if code != 0:
            print(f"baseline: {command} exited {code}", file=sys.stderr)
            return 1
        values = tracer.layer_metrics()
        value = elapsed if metric == "call_s" else values[metric]
        if per == "ratios":
            value /= len(command.split("--ratios ")[1].split()[0].split(","))
        elif per != "total":
            value /= values[per]
        label = metric if per == "total" else f"{metric}/{per.split('.')[-1]}"
        if figure is None:
            shown, ratio = "-", "-"
        elif isinstance(figure, tuple):
            shown, ratio = f"{figure[0]:.3g}-{figure[1]:.3g}", "-"
        else:
            shown, ratio = f"{figure:.3g}", f"{value / figure:.2f}"
        print(f"{layer:<15} {label:<34} {value:>11.4g} {shown:>15} {ratio:>7}  {command}")
    print(f"pinned blas_threads={run.BLAS_THREADS}; end-to-end rows are traced, so include tracing cost")
    return 0


if __name__ == "__main__":
    sys.exit(main())
