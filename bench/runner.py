"""One run of a workload: set-up, timed operations, metrics and the result line.

``bench/run.py`` imports the package (timed, as part of set-up) and then
calls :func:`run`.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import probes
import workloads
from envinfo import environment, read_loadavg
from layouts import SAMPLE_ROWS
from spans import Tracer, self_time

SETUP_REPEATS = 3
MC_PROCESSES = 3
IMPORT_RUNS = 3
WARM_RUNS = 5
PROBE_SECONDS = 2.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op1_s": "s",
    "op1_tail_s": "s",
    "op2_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.main_warm_s": "s",
    "data_model.load_table.s": "s",
    "data_model.load_table.rows_per_s": "1/s",
    "data_model.encode_cells.s": "s",
    "data_model.validate_dataset.calls": "count",
    "kernels.weights_vector.calls": "count",
    "discontinuities.cell_table.calls": "count",
    "discontinuities.cell_jump.calls": "count",
    "discontinuities.cell_table.s": "s",
    "discontinuities.relevance.s": "s",
    "estimator.build_design.s": "s",
    "estimator.weighted_2sls.s": "s",
    "estimator.cluster_covariance.s": "s",
    "estimator.j_test.s": "s",
    "estimator.first_stage_diagnostics.s": "s",
    "estimator.estimate.s": "s",
    "estimator.estimate.self_s": "s",
    "estimator.tall_lapack_calls_per_fit": "count",
    "estimator.square_lapack_calls_per_fit": "count",
    "montecarlo.generate.s": "s",
    "montecarlo.estimate.s": "s",
    "montecarlo.failed_reps": "count",
    "montecarlo.reps_per_s_blas1": "1/s",
    "montecarlo.reps_per_s_workers_nproc": "1/s",
    "repo.src_lines": "count",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}

# Spans timed per call, by the name the tracer gives them.
TIMED_SPANS = (
    "data_model.load_table", "data_model.encode_cells", "discontinuities.cell_table",
    "discontinuities.relevance", "estimator.build_design", "estimator.weighted_2sls",
    "estimator.cluster_covariance", "estimator.j_test", "estimator.first_stage_diagnostics",
    "estimator.estimate", "montecarlo.generate",
)
# Spans counted per CLI estimate of the sample.
COUNTED_SPANS = (
    "discontinuities.cell_table", "discontinuities.cell_jump",
    "kernels.weights_vector", "data_model.validate_dataset",
)
PROBE_OPS = ("probe-estimate", "probe-mc")


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as (value, percentile).

    Below 21 samples no percentile at or above the median has ten beyond
    it, and the maximum is reported instead (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def summary(values: list[float]) -> dict:
    value, pct = tail(values)
    return {
        "median": statistics.median(values), "mean": statistics.fmean(values),
        "tail": value, "tail_pct": pct, "n": len(values), "samples": values,
    }


class Run:
    def __init__(self, args, root: Path, start: float, import_s: float):
        self.args = args
        self.root = root
        self.start = start
        self.import_s = import_s
        self.work = root / ".bench_work"
        self.work.mkdir(exist_ok=True)
        self.env = environment(root, args.seed, read_loadavg())
        self.workload = workloads.make(args.workload, root, self.work, args.seed)
        self.problems: list[str] = []
        self.tally = workloads.Tally()
        self.details: dict = {}
        self.op_slots: dict[str, int] = {}

    def set_up(self) -> float:
        """Import (already done), three input builds and one discarded op1; returns setup_s."""
        prepare = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.workload.prepare()
            prepare.append(time.perf_counter() - start)
        start = time.perf_counter()
        problems = self.workload.op(1)[3]
        warm_up = time.perf_counter() - start
        self.problems += [f"warm-up: {p}" for p in problems]
        self.details["setup"] = {"import_s": self.import_s, "prepare_s": prepare, "warm_up_s": warm_up}
        return self.import_s + statistics.median(prepare) + warm_up

    def measure(self, seconds: float, in_process: bool, tracer=None, tag: str = "") -> dict:
        """Run the workload's slots in turn for ``seconds``; returns seconds per unit by slot."""

        def tag_op(slot: int, attempt: int) -> None:
            tracer.op = f"{tag}{slot}:{attempt}"
            self.op_slots[tracer.op] = slot

        tally = workloads.Tally()
        workloads.run_slots(
            lambda slot: self.workload.op(slot, in_process), seconds, tally,
            before_op=None if tracer is None else tag_op,
        )
        self.tally.merge(tally)
        return tally.samples

    def end_to_end(self) -> dict:
        setup_s = self.set_up()
        if isinstance(self.workload, workloads.MonteCarloWorkload):
            workloads.run_mc_children(self.workload, self.args.seconds, MC_PROCESSES, self.tally)
            samples = self.tally.samples
        else:
            samples = self.measure(self.args.seconds, in_process=False)
        # Operations that run in children count with the largest child;
        # this process waits on one child at a time.
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {"setup_s": setup_s, "peak_rss_mb": usage / 1024.0}
        # A CLI call's timing is the median; a Monte Carlo slot reports the
        # inverse of completed replications per second, i.e. the mean.
        centre = "mean" if isinstance(self.workload, workloads.MonteCarloWorkload) else "median"
        for slot, times in samples.items():
            stats = summary(times) if times else {centre: math.nan, "tail": math.nan}
            self.details[f"op{slot}_s"] = stats
            values[f"op{slot}_s"] = stats[centre]
        self.details["op1_tail_s"] = self.details["op1_s"]
        values["op1_tail_s"] = self.details["op1_s"]["tail"]
        return values

    def per_layer(self) -> dict:
        self.set_up()
        seed = self.args.seed
        tracer = Tracer()
        out: dict[str, float] = {}

        imports, scipy_part = probes.cold_imports(self.root, IMPORT_RUNS)
        out["cli.import_s"] = statistics.median(imports)
        out["cli.import_scipy_s"] = statistics.median(scipy_part)

        sample = workloads.make("cli-sample", self.root, self.work, seed)
        warm = []
        for _ in range(WARM_RUNS):
            elapsed, _, _, problems = sample.op(1, in_process=True)
            warm.append(elapsed)
            self.problems += problems
        out["cli.main_warm_s"] = statistics.median(warm)

        self.details["counter_self_check"] = check = probes.counter_self_check(self.root, tracer)
        if check["wrapped"] != check["profiled"]:
            self.problems.append(f"linear-algebra counter disagrees with the profiler: {check}")

        blas1, blas1_failed, problems = probes.blas1_reps_per_s(self.root, seed, PROBE_SECONDS)
        out["montecarlo.reps_per_s_blas1"] = blas1
        self.problems += problems
        workers, problems = probes.workers_reps_per_s(seed, PROBE_SECONDS)
        out["montecarlo.reps_per_s_workers_nproc"] = workers
        self.problems += problems

        probe_mc = workloads.make("mc-acceptance", self.root, self.work, seed)
        with tracer:
            tracer.op = PROBE_OPS[0]
            self.problems += sample.op(1, in_process=True)[3]
            tracer.op = PROBE_OPS[1]
            self.problems += probe_mc.op(1)[3]

        # Untraced and traced quarters alternate, so that drift in the
        # machine's speed falls on both sides of the overhead estimate.
        untraced: dict[int, list[float]] = defaultdict(list)
        traced: dict[int, list[float]] = defaultdict(list)
        for part in range(2):
            for slot, times in self.measure(self.args.seconds / 4, in_process=True).items():
                untraced[slot] += times
            with tracer:
                measured = self.measure(self.args.seconds / 4, True, tracer, tag=f"part{part}-op")
            for slot, times in measured.items():
                traced[slot] += times
        if untraced[1] and traced[1]:
            base = statistics.median(untraced[1])
            overhead = statistics.median(traced[1]) - base
            out["trace.overhead_s"] = overhead
            out["trace.overhead_pct"] = 100.0 * overhead / base

        out.update(self.span_metrics(tracer))
        failed_reps = probe_mc.failed_reps + blas1_failed
        if isinstance(self.workload, workloads.MonteCarloWorkload):
            failed_reps += self.workload.failed_reps
        out["montecarlo.failed_reps"] = failed_reps
        out["repo.src_lines"] = probes.src_lines(self.root)
        self.write_spans(tracer)
        return out

    def span_metrics(self, tracer) -> dict:
        """Per-layer figures from the spans, preferring the workload's own op1.

        A layer that op1 does not call is taken from the workload's other
        operations, and failing those from the probe's operations.
        """
        spans = tracer.spans
        children = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                children[span.parent].append(span)
        sources = (
            ("op1", {op for op, slot in self.op_slots.items() if slot == 1}),
            ("all ops", set(self.op_slots)),
            ("probe", set(PROBE_OPS)),
        )

        def pick(name: str, site: str | None = None) -> tuple[list, str]:
            for label, ops in sources:
                found = [s for s in spans if s.op in ops and s.name == name and site in (None, s.site)]
                if found:
                    return found, label
            return [], "none"

        out = {}

        def timing(metric: str, values: list[float], source: str) -> None:
            if values:
                out[metric] = statistics.median(values)
                self.details[metric] = {**summary(values), "source": source}

        for name in TIMED_SPANS:
            found, source = pick(name)
            timing(f"{name}.s", [s.end - s.start for s in found], source)
        found, source = pick("estimator.estimate", site="montecarlo")
        timing("montecarlo.estimate.s", [s.end - s.start for s in found], source)
        fits, source = pick("estimator.estimate")
        timing("estimator.estimate.self_s", [self_time(s, children[s.index]) for s in fits], source)
        for kind in ("tall", "square") if fits else ():
            counts = [getattr(s, kind) for s in fits]
            out[f"estimator.{kind}_lapack_calls_per_fit"] = statistics.median_low(counts)
            self.details[f"estimator.{kind}_lapack_calls_per_fit"] = {
                "min": min(counts), "max": max(counts), "fits": len(counts), "source": source,
            }

        if "data_model.load_table.s" in out:
            rows = self.workload.rows
            if self.details["data_model.load_table.s"]["source"] == "probe" or not rows:
                rows = SAMPLE_ROWS
            out["data_model.load_table.rows_per_s"] = rows / out["data_model.load_table.s"]
        probe = [s for s in spans if s.op == PROBE_OPS[0]]
        for name in COUNTED_SPANS:
            out[f"{name}.calls"] = sum(s.name == name for s in probe)
        return out

    def write_spans(self, tracer) -> None:
        path = self.work / "results" / f"{self.args.workload}-seed{self.args.seed}-spans.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps([s.to_dict(self.start) for s in tracer.spans]), encoding="utf-8")

    def report(self, values: dict, units: dict) -> int:
        """Print every metric and the result line, write the result file; returns the exit code."""
        args = self.args
        missing = [name for name in units if not math.isfinite(values.get(name, math.nan))]
        if missing:
            self.problems.append(f"not measured: {', '.join(missing)}")
        metrics = {name: (None if name in missing else values[name], unit) for name, unit in units.items()}
        for name, (value, unit) in metrics.items():
            notes = []
            if name[:2] == "op" and name[2] in "12":
                notes.append(self.workload.labels[int(name[2]) - 1])
            detail = self.details.get(name, {})
            if "n" in detail:
                notes.append(
                    f"n={detail['n']} median {detail['median']:.6g} mean {detail['mean']:.6g}"
                    f" p{detail['tail_pct']:.0f} {detail['tail']:.6g}"
                )
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{name:<42} {shown:>14} {unit:<6} {'; '.join(notes)}".rstrip())
        print("# environment " + json.dumps(self.env, sort_keys=True))
        problems = self.problems + self.tally.problems
        for problem in problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)
        correct = self.tally.failed == 0 and not problems
        result = {
            "correct": correct,
            "attempted": max(self.tally.attempted, 1),
            "failed": self.tally.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
            "environment": self.env, "details": self.details, "problems": problems, **result,
        }
        results = self.work / "results"
        results.mkdir(exist_ok=True)
        (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
        )
        print(json.dumps(result))
        return 0 if correct else 1


def run(args, root: Path, start: float, import_s: float) -> int:
    """Run the workload untraced (end-to-end metrics) or traced (per-layer metrics)."""
    bench = Run(args, root, start, import_s)
    if args.trace:
        return bench.report(bench.per_layer(), PER_LAYER_UNITS)
    return bench.report(bench.end_to_end(), END_TO_END_UNITS)
