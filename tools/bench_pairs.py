"""Alternating base/head pairs of the benchmark, and one verdict per workload and metric.

    python tools/bench_pairs.py --out BENCH_<pr>.json --pairs 10 --seconds 10

Exports two commits (--base, default HEAD~1, and --head, default HEAD)
with ``git archive`` into ``.perfbench_out/pairs/``, and runs each tree's
own ``perfbench/run.py --workload W --seed S --seconds X --trace 0`` in a
fresh process, with no bytecode written.  Pair i runs seed --first-seed + i
on both trees, the base first on even i and the head first on odd i.  Then
both trees run seeds 101 and 202, and the sha256 of every file their calls
wrote (CSV, witness sidecar, SVG) are compared.  The tool times nothing
itself: every number comes from run.py's result JSON.  Standard library
only; an A/A run passes the same commit twice.

A metric's verdict, from one value per run of each tree, with the bound
of BENCHMARK.json and a spread that is the larger IQR of the two trees,
relative to its median:

    better      the head won at least 9 in 10 of the pairs, its median is
                better than the base median by more than the base IQR, and
                the spread is within the bound or every head run is better
                than every base run
    worse       the head median is worse than the base median by more than
                the bound, and the spread is within the bound or every head
                run is worse than every base run
    unresolved  neither, and the spread is above the bound
    unchanged   otherwise: a change within the bound, or not shown
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS_DIR = ROOT / ".perfbench_out" / "pairs"
WORKLOADS = ("wide_chain", "dense_grid", "exact_series")
DIGEST_SEEDS = (101, 202)
WIN_SHARE = 0.9


def verdict(base: list[float], head: list[float], bound: float, better: str = "lower") -> dict:
    """Medians, IQRs, pairs won and the verdict of one metric; base[i] and head[i] are pair i."""
    sign = 1.0 if better == "lower" else -1.0  # sign * value is lower when better
    medians = statistics.median(base), statistics.median(head)
    iqrs = _iqr(base), _iqr(head)
    won = sum(sign * h < sign * b for b, h in zip(base, head))
    gain = sign * (medians[0] - medians[1])  # > 0 when the head is better
    resolved = all(iqr <= bound * abs(median) for iqr, median in zip(iqrs, medians))
    if won >= WIN_SHARE * len(base) and gain > iqrs[0] and (
            resolved or max(sign * h for h in head) < min(sign * b for b in base)):
        outcome = "better"
    elif -gain > bound * abs(medians[0]) and (
            resolved or min(sign * h for h in head) > max(sign * b for b in base)):
        outcome = "worse"
    else:
        outcome = "unchanged" if resolved else "unresolved"
    return {
        "base": {"median": medians[0], "iqr": iqrs[0], "values": base},
        "head": {"median": medians[1], "iqr": iqrs[1], "values": head},
        "change": (medians[1] - medians[0]) / medians[0] if medians[0] else None,
        "won": won, "pairs": len(base), "bound": bound, "better": better, "verdict": outcome,
    }


def _iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def export(commit: str, name: str) -> Path:
    """The commit's files, by git archive, in a clean directory."""
    tree = PAIRS_DIR / name
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return tree


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """run.py's result record for one workload and seed, run from the tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                   cwd=tree, env=env, capture_output=True, check=True, timeout=1800)
    results = tree / ".perfbench_out"
    return json.loads((results / f"result-{workload}-seed{seed}.json").read_text())


def _rev_parse(name: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", name], capture_output=True,
                          text=True, check=True).stdout.strip()


def written(tree: Path, workload: str) -> dict[str, str]:
    """sha256 of each file the workload's calls wrote."""
    folder = tree / ".perfbench_out" / workload
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(folder.iterdir())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="the JSON file to write, such as BENCH_<pr>.json")
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--head", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--first-seed", type=int, default=901)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    workloads = args.workloads.split(",")
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in config["end_to_end"]}
    commits = {name: _rev_parse(commit) for name, commit in (("base", args.base), ("head", args.head))}
    trees = {name: export(commit, name) for name, commit in commits.items()}

    seeds = [args.first_seed + i for i in range(args.pairs)]
    records = {w: {"base": [], "head": []} for w in workloads}
    for workload in workloads:
        for i, seed in enumerate(seeds):
            for name in (("base", "head") if i % 2 == 0 else ("head", "base")):
                records[workload][name].append(run(trees[name], workload, seed, args.seconds))
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}", file=sys.stderr)

    digests = {}
    for workload in workloads:
        for seed in DIGEST_SEEDS:
            files = {}
            for name, tree in trees.items():
                run(tree, workload, seed, 0.0)
                files[name] = written(tree, workload)
            digests.setdefault(workload, {})[str(seed)] = {
                "files": len(files["head"]), "equal": files["base"] == files["head"]}

    report = {
        # the src/ tree hashes identify the measured code across a rebase
        **{name: {"commit": commit, "src": _rev_parse(f"{commit}:src")} for name, commit in commits.items()},
        "pairs": args.pairs,
        "seconds": args.seconds, "seeds": seeds,
        "machine": records[workloads[0]]["head"][0]["machine"],
        "digests": digests,
        "failed": {w: {name: {"failed": sum(r["failed"] for r in runs),
                              "attempted": sum(r["attempted"] for r in runs)}
                       for name, runs in records[w].items()}
                   for w in workloads},
        "workloads": {
            w: {m: verdict([r["metrics"][m]["value"] for r in records[w]["base"]],
                           [r["metrics"][m]["value"] for r in records[w]["head"]],
                           metrics[m]["bound"], metrics[m]["better"]) | {"unit": metrics[m]["unit"]}
                for m in metrics}
            for w in workloads},
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for w, rows in report["workloads"].items():
        for m, row in rows.items():
            print(f"{w:<13} {m:<12} {row['base']['median']:>10.4g} -> {row['head']['median']:>10.4g} "
                  f"{row['unit']:<3} won {row['won']}/{row['pairs']}  {row['verdict']}")
    print("digests " + ("equal" if all(d["equal"] for s in digests.values() for d in s.values())
                        else "DIFFER"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
