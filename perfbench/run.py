"""spinwire benchmark: seeded CLI workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload wide_chain --seed 1 --seconds 25 --trace 0

Runs ``spinwire.cli.main`` in-process on the workload's command lines
(see workloads.py), one workload per process, from ``src/`` of the
checkout this file sits in.  Every output is checked against an
independent oracle (oracles.py) after the first batch; later batches
must reproduce it byte for byte.  A call fails on a nonzero exit, a
failed check, or a digest that differs from the first batch.

``--trace 0`` repeats untraced batches for ``--seconds``, and at least
two whatever the time, so every workload has a second sample and a
repeat to compare digests with.  It reports the end-to-end metrics:

    wall_s       median seconds per batch of CLI calls, writing files
    call_s.p50   median seconds per CLI call, pooled over the batches
    setup_s      median seconds a fresh interpreter takes to
                 ``import spinwire.cli`` (numpy, scipy.linalg included)
    peak_rss_mb  peak RSS of this process (ru_maxrss), read before the
                 oracles load their own data

``--trace 1`` alternates untraced and traced batches, at least U,T,U,
and reports the per-layer metrics of tracer.py (medians over the traced
batches) plus ``trace.overhead_s``, traced minus untraced batch seconds.
Spans go to ``.perfbench_out/spans-<workload>.csv``.

The BLAS thread count is pinned before numpy loads, because it changes
both the timings and the CSV bytes.  The last stdout line is one JSON
object; ``.perfbench_out/result-*.json`` also holds the per-call
digests, the machine record and the sample counts.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import spinwire.cli; print(time.perf_counter() - t)"
)
TRUNCATION_WARNING = "truncation-dominated"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("wide_chain", "dense_grid", "exact_series"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every call, for the smoke test")
    return parser.parse_args(argv)


def load_program():
    """spinwire.cli from this checkout's src/, or None when it is absent."""
    if not (SRC / "spinwire" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import spinwire.cli

    if SRC not in Path(spinwire.cli.__file__).resolve().parents:
        return None
    return spinwire.cli


def machine_record() -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": blas(numpy),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy),
        "machine": platform.machine(),
    }


def measure_setup(samples: int) -> list[float]:
    """Import time of spinwire.cli in fresh interpreters; one unmeasured warm-up."""
    times = []
    for i in range(samples + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            times.append(float(done.stdout.strip()))
    return times


def invoke(main, argv) -> int:
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed call; the batch goes on
        traceback.print_exc()
        return -1


def run_batch(cli, calls, tracer=None) -> dict:
    seconds, codes, truncations = [], [], 0
    start = time.perf_counter()
    for index, call in enumerate(calls):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tracer is not None:
                tracer.call_id = index
                frame = tracer.begin()
            t0 = time.perf_counter()
            code = invoke(cli.main, call.argv)
            seconds.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end(frame, "cli.main")
        codes.append(code)
        truncations += sum(TRUNCATION_WARNING in str(w.message) for w in caught)
    wall = time.perf_counter() - start
    gc.collect()
    return {"wall": wall, "seconds": seconds, "codes": codes,
            "digests": [digest(call) for call in calls], "truncations": truncations}


def digest(call) -> str | None:
    """sha256 over the CSV bytes and, for witness, the JSON sidecar bytes."""
    h = hashlib.sha256()
    try:
        h.update(Path(call.out).read_bytes())
        if call.argv[0] == "witness":
            h.update(Path(call.out + ".json").read_bytes())
    except OSError:
        return None
    return h.hexdigest()


def measure(cli, calls, seconds: float, trace: bool):
    """Batches until the next would overrun `seconds`; in trace mode U,T,U,T...

    At least two untraced batches run (U,T,U when tracing), however long
    they take.
    """
    from tracer import Tracer, instrument

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.calibrate()
    schedule = [False, True] if trace else [False]
    least = 3 if trace else 2
    batches, layer_rows, spent = [], [], 0.0
    while True:
        traced = schedule[len(batches) % len(schedule)]
        if traced:
            first_span = len(tracer.spans)
            tracer.counts.clear()
            with instrument(tracer):
                batch = run_batch(cli, calls, tracer)
            tracer.counts["channels.chi_truncation_warnings"] = batch["truncations"]
            layer_rows.append(tracer.layer_metrics(first_span))
        else:
            batch = run_batch(cli, calls)
        batch["traced"] = traced
        batches.append(batch)
        spent += batch["wall"]
        if len(batches) < least:
            continue
        following = schedule[len(batches) % len(schedule)]
        if spent + max(b["wall"] for b in batches if b["traced"] == following) > seconds:
            return batches, layer_rows, tracer


def score(calls, batches) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): oracle checks on batch 0, digests after."""
    from oracles import check_call

    reference = batches[0]
    problems_per_call = []
    for call, code, dig in zip(calls, reference["codes"], reference["digests"]):
        if code != 0 or dig is None:
            problems_per_call.append([f"exit code {code}" if code != 0 else "no output file"])
        else:
            try:
                problems_per_call.append(check_call(call.argv, call.out, call.plot))
            except Exception as exc:  # an unreadable output is a wrong output
                problems_per_call.append([f"check raised {type(exc).__name__}: {exc}"])
    attempted = failed = 0
    problems = []
    for number, batch in enumerate(batches):
        for index, call in enumerate(calls):
            attempted += 1
            issues = list(problems_per_call[index])  # a wrong output stays wrong when repeated
            if number and batch["codes"][index] != 0:
                issues.append(f"exit code {batch['codes'][index]}")
            elif number and batch["digests"][index] != reference["digests"][index]:
                issues.append("output differs from the first batch")
            if issues:
                failed += 1
                problems.append(f"batch {number} call {index} ({' '.join(call.argv[:1])}): {'; '.join(issues)}")
    return attempted, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_program()
    if cli is None:
        print(f"perfbench: no spinwire sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import generate, warmup

    tiny = args.size == "tiny"
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)  # stale files would enter the digest
    out_dir.mkdir(parents=True)
    calls = generate(args.workload, args.seed, str(out_dir), tiny=tiny)

    setup = measure_setup(2 if tiny else SETUP_SAMPLES)
    (OUT / "warmup").mkdir(exist_ok=True)
    run_batch(cli, warmup(str(OUT / "warmup")))  # lazy imports and first-call costs

    batches, layer_rows, tracer = measure(cli, calls, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, problems = score(calls, batches)
    for line in problems:
        print(f"perfbench: FAILED {line}", file=sys.stderr)

    plain = [b for b in batches if not b["traced"]]
    call_seconds = [s for b in plain for s in b["seconds"]]
    samples = {
        "wall_s": len(plain),
        "call_s.p50": len(call_seconds),
        "setup_s": len(setup),
        "peak_rss_mb": 1,
    }
    if args.trace:
        metrics = {name: (statistics.median(row[name] for row in layer_rows), unit)
                   for name, unit in layer_units().items() if name != "trace.overhead_s"}
        traced_wall = statistics.median(b["wall"] for b in batches if b["traced"])
        metrics["trace.overhead_s"] = (traced_wall - statistics.median(b["wall"] for b in plain), "s")
        tracer.write_spans(str(OUT / f"spans-{args.workload}.csv"))
    else:
        metrics = {
            "wall_s": (statistics.median(b["wall"] for b in plain), "s"),
            "call_s.p50": (statistics.median(call_seconds), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    workload_digest = hashlib.sha256("".join(d or "-" for d in batches[0]["digests"]).encode()).hexdigest()
    machine = machine_record()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": machine,
        "batches": len(batches), "calls_per_batch": len(calls),
        "batch_walls": [{"traced": b["traced"], "wall": b["wall"], "calls": b["seconds"]} for b in batches],
        "attempted": attempted, "failed": failed, "problems": problems,
        "chi_truncation_warnings": batches[0]["truncations"],
        "digest": workload_digest,
        "span_overhead_s": tracer.span_overhead if tracer is not None else None,
        "calls": [{"argv": list(c.argv), "sha256": d} for c, d in zip(calls, batches[0]["digests"])],
        "metrics": {k: {"value": v, "unit": u, "samples": samples.get(k)} for k, (v, u) in metrics.items()},
    }
    tag = ("-trace" if args.trace else "") + ("-tiny" if tiny else "")
    (OUT / f"result-{args.workload}-seed{args.seed}{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"batches={len(batches)} calls_per_batch={len(calls)} attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted:.6g} chi_truncation_warnings={batches[0]['truncations']}")
    print(f"digest sha256:{workload_digest}")
    if tracer is not None:
        print(f"span overhead {tracer.span_overhead * 1e6:.3g} us per child span, taken out of parent self times")
    for name, (value, unit) in metrics.items():
        n = samples.get(name)
        print(f"  {name:<36} {value:>14.6g} {unit}" + (f"  (n={n})" if n else ""))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_units() -> dict[str, str]:
    from tracer import COUNTED, LAYERS, TIMED

    units = {name: "s" for name in TIMED}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update(COUNTED)
    units["trace.overhead_s"] = "s"
    return units


if __name__ == "__main__":
    sys.exit(main())
