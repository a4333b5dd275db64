"""Per-layer probes that the traced run of every workload makes.

They measure what no workload's operations show from inside this process:
a cold import, the Monte Carlo harness with one BLAS thread or with
worker threads, the size of the package, and a check of the tracer's
linear-algebra counter.  The same probes run on
every workload so that every per-layer metric is reported on each.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import multirdd
import multirdd.estimator
import multirdd.montecarlo
from layouts import SAMPLE_CSV
from spans import profile_linalg_calls
from workloads import CHILD_TIMEOUT_S, MC_LAYOUTS, child_env, run_mc_child

IMPORT_CODE = "import time; t = time.perf_counter(); import multirdd; print(time.perf_counter() - t)"


def scipy_import_s(importtime_log: str) -> float:
    """Seconds spent importing scipy, from ``python -X importtime`` output.

    The log lists each module after the modules it imported, indented by
    depth.  scipy's share is the cumulative time of every scipy module
    that no other scipy module imported.
    """
    pending: dict[int, list] = {}
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:") or "imported package" in line:
            continue
        field = parts[2].rstrip()
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        node = (field.strip(), int(parts[1]), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)

    def top_scipy(node) -> int:
        name, cumulative_us, children = node
        if name == "scipy" or name.startswith("scipy."):
            return cumulative_us
        return sum(top_scipy(child) for child in children)

    return sum(top_scipy(node) for nodes in pending.values() for node in nodes) / 1e6


def cold_imports(root: Path, runs: int) -> tuple[list[float], list[float]]:
    """Wall time of ``import multirdd`` in fresh interpreters, and scipy's share of it."""
    total, scipy_part = [], []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT_CODE],
            cwd=root,
            env=child_env(root),
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        total.append(float(proc.stdout.split()[-1]))
        scipy_part.append(scipy_import_s(proc.stderr.decode(errors="replace")))
    return total, scipy_part


def blas1_reps_per_s(root: Path, seed: int, seconds: float) -> tuple[float, int, list[str]]:
    """COVERAGE replications per second in a child whose own environment sets one BLAS thread."""
    doc = run_mc_child(root, seed, seconds, "1", OPENBLAS_NUM_THREADS="1")
    times = doc["samples"].get("1") or [math.nan]
    return 1.0 / statistics.fmean(times), doc["failed"], doc["problems"]


def workers_reps_per_s(seed: int, seconds: float) -> tuple[float, list[str]]:
    """COVERAGE replications per second with ``workers=nproc``, checked against workers=1."""
    _, dgp, n, reps = MC_LAYOUTS[0]
    workers = os.cpu_count() or 1
    reference = multirdd.montecarlo.run_study(dgp, n=n, reps=reps, seed=seed, workers=1).to_json()
    problems, done, elapsed = [], 0, 0.0
    while elapsed < seconds:
        start = time.perf_counter()
        result = multirdd.montecarlo.run_study(dgp, n=n, reps=reps, seed=seed, workers=workers)
        elapsed += time.perf_counter() - start
        done += reps
        if result.to_json() != reference:
            problems.append(f"workers={workers}: SimResult JSON differs from workers=1")
    return done / elapsed, problems


def src_lines(root: Path) -> int:
    return sum(p.read_text(encoding="utf-8").count("\n") for p in (root / "src").rglob("*.py"))


# Tall calls in one homogeneous d=2 fit when the benchmark was added:
# matrix_rank 1, qr 2, lstsq 4.
SEED_TALL_CALLS_PER_FIT = 7


def counter_self_check(root: Path, tracer) -> dict:
    """Count one homogeneous d=2 fit's linear algebra twice: by the tracer and by the profiler."""
    schema = multirdd.TableSchema(
        outcome="delayed_care", running="age", cutoff=65.0, treatment="coverage",
        covariates=("race", "educ"), cluster="age", extra_controls=("region",),
    )
    ds = multirdd.load_table(root / SAMPLE_CSV, schema)
    cfg = multirdd.EstimationConfig(bandwidth=10.0, cutoff=65.0, cluster_by="age")
    spec = multirdd.ModelSpec()
    profiled = profile_linalg_calls(str(root / "src" / "multirdd"), multirdd.estimator.estimate, ds, spec, cfg)
    with tracer:
        tracer.op = "self-check"
        multirdd.estimator.estimate(ds, spec, cfg)
    fit = [s for s in tracer.spans if s.op == "self-check" and s.name == "estimator.estimate"][-1]
    return {
        "profiled": profiled,
        "wrapped": {"tall": fit.tall, "square": fit.square},
        "seed_tall": SEED_TALL_CALLS_PER_FIT,
    }
