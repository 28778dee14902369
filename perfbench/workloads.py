"""Seeded CLI workloads.

Each workload is a batch of spinwire command lines made from the seed
alone.  The seed varies the couplings, time spans, ratios and sizes
within fixed strata, so two seeds give different inputs but the same
amount of work: the sizes that set the cost (sites 2*K*tmax, samples,
series orders, walk table sizes) are fixed per slot up to a jitter of
a few percent.
Across the three workloads every README and ROADMAP command line is in
every seed verbatim.

Every workload also carries a few light README calls that touch the
layers it does not stress, so each per-layer metric measures something
on each workload.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

SQRT2 = 1.4142135623730951

# README.md command lines.
README = {
    "walks": "walks --n-max 12",
    "alpha_series": "alpha --method series --k0 1 --k 1 --order 20 --tmax 2 --steps 200",
    "alpha_matrix": "alpha --method matrix --k0 1 --k 1 --tmax 10 --steps 1000",
    "alpha_closed": "alpha --method closed --k0 1.4142135623730951 --k 1 --tmax 10 --steps 1000",
    "chi": "chi-scan --ratios 1.41421,1.73205,2,2.23607 --order 20",
    "bloch": "bloch --k0 1.4142135623730951 --k 1 --tmax 10 --steps 1000",
    "witness": "witness --k0a 4 --ka 1 --k0b 4 --kb 1 --tmax 8 --steps 2000",
    "recurrence": "recurrence --freqs 1,3.141592653589793 --threshold 0.9 --tmax 500 --steps 500001",
}

# ROADMAP.md baseline heavy cases.
HEAVY = (
    "alpha --method matrix --k0 32 --k 1024 --tmax 1 --steps 1001",
    "alpha --method matrix --k0 1 --k 1 --tmax 1000 --steps 1001",
    "witness --k0a 16 --ka 256 --k0b 16 --kb 256 --tmax 1.5 --steps 3001",
)


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    out: str
    plot: str | None


def _num(x: float) -> str:
    return repr(float(x))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


class _Batch:
    def __init__(self, rng: random.Random, out_dir: str):
        self.rng, self.out_dir, self.calls = rng, out_dir, []

    def jitter(self, value: float) -> float:
        return value * (1.0 + self.rng.uniform(-0.01, 0.01))

    def add(self, command: str, plot: bool = False) -> None:
        stem = os.path.join(self.out_dir, f"c{len(self.calls):02d}")
        argv = command.split() + ["--out", stem + ".csv"]
        plot_path = stem + ".svg" if plot else None
        if plot:
            argv += ["--plot", plot_path]
        self.calls.append(Call(tuple(argv), stem + ".csv", plot_path))

    def span(self, sites: float) -> tuple[float, float]:
        """A wire coupling K and tmax with 2*K*tmax = sites (1% jitter)."""
        k = _log_uniform(self.rng, 0.25, 64.0)
        return k, self.jitter(sites) / (2.0 * k)

    def generic_plug(self, k: float) -> float:
        """K0 away from both closed-form ratios."""
        return k * self.rng.choice((self.rng.uniform(0.3, 0.9), self.rng.uniform(1.1, 1.35)))


def wide_chain(b: _Batch, tiny: bool) -> None:
    """Long certified chains on ~1001-sample grids: the eigensolves dominate."""
    scale = 0.05 if tiny else 1.0
    b.add(README["chi"], plot=True)
    b.add(README["alpha_closed"])
    if tiny:
        b.add("alpha --method matrix --k0 2 --k 64 --tmax 1 --steps 101")
        b.add("witness --k0a 4 --ka 16 --k0b 4 --kb 16 --tmax 1.5 --steps 301")
    else:
        for command in HEAVY:
            b.add(command)
    # K0 = sqrt(2) K keeps the scipy j0 oracle on every row; K0 = K would
    # be one solvable ratio too, but its uniform chain solves ~40% faster.
    k, tmax = b.span(1700 * scale)
    b.add(f"alpha --method matrix --k0 {_num(SQRT2 * k)} --k {_num(k)} --tmax {_num(tmax)} --steps 1001")
    k, tmax = b.span(1700 * scale)
    b.add(f"bloch --k0 {_num(b.generic_plug(k))} --k {_num(k)} --tmax {_num(tmax)} --steps 1001")
    ka, tmax = b.span(1500 * scale)
    kb = b.jitter(0.9 * ka)
    b.add(
        f"witness --k0a {_num(b.generic_plug(ka))} --ka {_num(ka)} "
        f"--k0b {_num(b.generic_plug(kb))} --kb {_num(kb)} --tmax {_num(tmax)} --steps 1001"
    )


def dense_grid(b: _Batch, tiny: bool) -> None:
    """Short chains (under 200 sites) on 1e5-5e5-sample grids: per-sample work dominates.

    2*K*tmax is pinned at 40 so the Bessel arguments, and with them the
    cost of each in-repo Bessel call, are the same for every seed.  The
    calls come in three groups: four of about half a second or less, three
    500001-step recurrences of about a second, and four of two seconds
    or more.  With eleven calls the median call is the middle
    recurrence: these write CSV rows and allocate little, so they are
    the steadiest calls here, where short or array-heavy calls vary by
    up to 40% between repeats on a loaded machine.
    """
    steps = (lambda n: n // 100 + 1) if tiny else (lambda n: n + 1)
    b.add(README["chi"], plot=True)
    b.add(README["witness"])
    k, tmax = b.span(40)
    b.add(f"bloch --k0 {_num(b.generic_plug(k))} --k {_num(k)} --tmax {_num(tmax)} --steps {steps(100000)}")
    freqs = ",".join(_num(b.rng.uniform(0.5, 4.0)) for _ in range(3))
    threshold = b.rng.uniform(0.6, 0.8)
    b.add(f"recurrence --freqs {freqs} --threshold {_num(threshold)} --tmax 300 --steps {steps(100000)}", plot=True)
    b.add(README["recurrence"].replace("500001", str(steps(500000))))
    for _ in range(2):
        freqs = ",".join(_num(b.rng.uniform(0.5, 4.0)) for _ in range(2))
        threshold = b.rng.uniform(0.6, 0.8)
        b.add(f"recurrence --freqs {freqs} --threshold {_num(threshold)} --tmax 500 --steps {steps(500000)}")
    k, tmax = b.span(40)
    b.add(f"alpha --method closed --k0 {_num(SQRT2 * k)} --k {_num(k)} --tmax {_num(tmax)} --steps {steps(100000)}", plot=True)
    k, tmax = b.span(40)
    b.add(f"alpha --method closed --k0 {_num(k)} --k {_num(k)} --tmax {_num(tmax)} --steps {steps(100000)}")
    k = _log_uniform(b.rng, 0.25, 4.0)
    k0 = b.generic_plug(k)
    tmax = b.jitter(4.0) / max(k0 + k, 2 * k)  # inside the order-20 window
    b.add(f"alpha --method series --k0 {_num(k0)} --k {_num(k)} --order 20 --tmax {_num(tmax)} --steps {steps(100000)}")
    k, tmax = b.span(40)
    b.add(f"alpha --method matrix --k0 {_num(b.generic_plug(k))} --k {_num(k)} --tmax {_num(tmax)} --steps {steps(200000)}", plot=True)


def exact_series(b: _Batch, tiny: bool) -> None:
    """Exact-rational series work: chi scans, walk tables, high-order series.

    Ratios are stratified over [1, 2.8] and drawn as full-mantissa
    doubles, whose exact rationals all have the same bit length, so the
    Fraction arithmetic costs the same for every seed.
    """
    for name in ("walks", "alpha_series", "alpha_matrix", "alpha_closed", "chi", "bloch", "witness"):
        b.add(README[name], plot=name == "alpha_series")
    orders = (20, 24) if tiny else (20, 24, 28, 32, 36, 40)
    for order in orders:
        ratios = ",".join(_num(1.0 + 1.8 * (i + b.rng.random()) / 3) for i in range(3))
        b.add(f"chi-scan --ratios {ratios} --order {order}")
    for n_max in (40, 60) if tiny else (200, 300, 400):
        b.add(f"walks --n-max {n_max + 2 * b.rng.randint(-2, 2)}")
    for order in (24, 32) if tiny else (40, 60, 80):
        k0, k = b.rng.uniform(0.5, 2.0), b.rng.uniform(0.5, 2.0)
        tmax = b.jitter(10.0) / max(k0 + k, 2 * k)
        b.add(f"alpha --method series --k0 {_num(k0)} --k {_num(k)} --order {order} --tmax {_num(tmax)} --steps 401")


def warmup(out_dir: str) -> list[Call]:
    """Light README calls that load every lazily imported module once."""
    batch = _Batch(random.Random(0), out_dir)
    for name in ("alpha_matrix", "alpha_closed", "chi", "witness"):
        batch.add(README[name], plot=name == "chi")
    return batch.calls


WORKLOADS = {"wide_chain": wide_chain, "dense_grid": dense_grid, "exact_series": exact_series}


def generate(name: str, seed: int, out_dir: str, tiny: bool = False) -> list[Call]:
    """The workload's command lines for this seed, writing under out_dir."""
    batch = _Batch(random.Random(f"{name}:{seed}"), out_dir)
    WORKLOADS[name](batch, tiny)
    return batch.calls
