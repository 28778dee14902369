"""Run every workload once, untraced, and print the end-to-end table.

    python3 perfbench/summary.py --seed 1 --seconds 25

Each workload runs in its own fresh process (run.py).  Prints wall_s,
call_s.p50, setup_s, peak_rss_mb and error_rate with units, and the
sha256 digest of every output file of the first batch: two summaries
of the same seed must show the same digests.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".perfbench_out"
WORKLOADS = ("wide_chain", "dense_grid", "exact_series")
COLUMNS = ("wall_s", "call_s.p50", "setup_s", "peak_rss_mb")


def run_workload(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        sys.exit(f"{workload}: exit code {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)

    rows = []
    for workload in WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds)
        record = json.loads((RESULTS / f"result-{workload}-seed{args.seed}.json").read_text())
        rows.append((workload, result, record))

    units = {name: rows[0][1]["metrics"][name]["unit"] for name in COLUMNS}
    header = ["workload"] + [f"{name} ({units[name]})" for name in COLUMNS] + ["error_rate", "digest"]
    print("  ".join(f"{h:>16}" for h in header))
    for workload, result, record in rows:
        cells = [workload] + [f"{result['metrics'][name]['value']:.6g}" for name in COLUMNS]
        cells += [f"{result['failed'] / result['attempted']:.3g}", record["digest"][:16]]
        print("  ".join(f"{c:>16}" for c in cells))
    print("machine " + " ".join(f"{k}={v}" for k, v in rows[0][2]["machine"].items()))
    ok = all(result["correct"] for _, result, _ in rows)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
