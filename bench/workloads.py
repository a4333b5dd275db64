"""The three workloads: their inputs, operations and output checks.

Each workload runs two kinds of operation in turn (slots 1 and 2).
``op(slot)`` performs one operation and returns its wall time, how many
units it did (one per CLI call, one per Monte Carlo replication), how
many of them failed, and the problems found.  The wall time covers the
operation alone, not the check of its output.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import multirdd.cli
import multirdd.montecarlo
from checks import check_diagnose, check_fit, check_study
from layouts import (
    COMMON_ARGS,
    CONDITIONAL_ARGS,
    COVERAGE_DGP,
    HOMOGENEOUS_ARGS,
    JPOWER_DGP,
    JSIZE_DGP,
    SAMPLE_CONDITIONAL,
    SAMPLE_CSV,
    SAMPLE_HOMOGENEOUS,
    SAMPLE_ROWS,
    TILE_COPIES,
)

CHILD_TIMEOUT_S = 60
SLOTS = (1, 2)


def child_env(root: Path, **extra: str) -> dict:
    """The caller's environment with the checkout's src/ first on the path."""
    env = dict(os.environ, **extra)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        return {"error": f"unreadable report {path.name}: {err}"}


class Tally:
    """Seconds per unit of each slot's operations, units attempted and failed, problems."""

    def __init__(self):
        self.samples: dict[int, list[float]] = {slot: [] for slot in SLOTS}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def merge(self, other: "Tally | dict") -> None:
        doc = other if isinstance(other, dict) else other.to_dict()
        for slot, times in doc["samples"].items():
            self.samples[int(slot)] += times
        self.attempted += doc["attempted"]
        self.failed += doc["failed"]
        self.problems += doc["problems"]

    def to_dict(self) -> dict:
        return {
            "samples": self.samples, "attempted": self.attempted,
            "failed": self.failed, "problems": self.problems,
        }


def run_slots(op, seconds: float, tally: Tally, slots=SLOTS, before_op=None) -> None:
    """Call ``op(slot)`` for the slots in turn until ``seconds`` pass and each has a sample.

    A slot whose operations keep failing is given up after two tries.
    """
    tries = dict.fromkeys(slots, 0)
    turn = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or any(
        not tally.samples[k] and tries[k] < 2 for k in slots
    ):
        slot = slots[turn % len(slots)]
        turn += 1
        tries[slot] += 1
        if before_op is not None:
            before_op(slot, tries[slot])
        try:
            elapsed, units, failed, problems = op(slot)
        except Exception as err:  # noqa: BLE001 - an exception is a failed operation
            elapsed, units, failed, problems = 0.0, 1, 1, [f"op{slot}: {type(err).__name__}: {err}"]
        tally.attempted += units
        tally.failed += failed
        tally.problems += problems
        if not problems:
            tally.samples[slot].append(elapsed / units)


def run_mc_child(root: Path, seed: int, seconds: float, slots: str, **env: str) -> dict:
    """Monte Carlo batches in a fresh interpreter (``bench/mc_child.py``); returns its tally."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("mc_child.py")), str(seed), str(seconds), slots],
        cwd=root,
        env=child_env(root, **env),
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        message = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return {"samples": {}, "attempted": 1, "failed": 1, "digests": {},
                "problems": [f"mc_child exit code {proc.returncode}: {' '.join(message)}"]}
    return json.loads(proc.stdout.decode().splitlines()[-1])


class CliWorkload:
    """Two CLI commands in turn.

    ``cli-sample`` runs an estimate and a ``diagnose --series``, each as a
    cold ``python -m multirdd`` child on the bundled sample;
    ``bigfile-200k`` runs a homogeneous and a conditional estimate
    through ``multirdd.cli.main`` in process on a 50-fold tiling of it.
    In a traced run the cold children are replaced by in-process calls,
    since wrappers installed in this process cannot reach a child.
    """

    def __init__(self, name: str, root: Path, work: Path, seed: int):
        self.name = name
        self.root = root
        self.work = work
        self.seed = seed
        self.cold = name == "cli-sample"
        self.copies = 1 if self.cold else TILE_COPIES
        self.rows = SAMPLE_ROWS * self.copies
        self.data = root / SAMPLE_CSV if self.cold else work / "tiled.csv"
        self.labels = (
            ("cli_estimate_s", "cli_diagnose_s")
            if self.cold
            else ("bigfile_estimate_s", "bigfile_conditional_s")
        )
        self.env = child_env(root)

    def prepare(self) -> None:
        """cli-sample: read the bundled file.  bigfile-200k: write the tiled file."""
        lines = (self.root / SAMPLE_CSV).read_text(encoding="utf-8").splitlines()
        header, body = lines[0], lines[1:]
        if len(body) != SAMPLE_ROWS:
            raise RuntimeError(f"{SAMPLE_CSV} has {len(body)} rows, expected {SAMPLE_ROWS}")
        if self.cold:
            return
        order = np.random.default_rng(self.seed).permutation(len(body) * self.copies)
        rows = body * self.copies
        text = "\n".join([header] + [rows[i] for i in order]) + "\n"
        self.data.write_text(text, encoding="utf-8")

    def _argv(self, slot: int) -> tuple[list[str], Path, Path | None]:
        out = self.work / f"report{slot}.json"
        series = None
        data = ["--data", str(self.data)]
        if slot == 1:
            argv = ["estimate", *data, *HOMOGENEOUS_ARGS, *COMMON_ARGS]
        elif not self.cold:
            argv = ["estimate", *data, *CONDITIONAL_ARGS, *COMMON_ARGS]
        else:
            series = self.work / "series.csv"
            argv = ["diagnose", *data, *HOMOGENEOUS_ARGS, *COMMON_ARGS, "--series", str(series)]
        return argv + ["--out", str(out)], out, series

    def op(self, slot: int, in_process: bool = False) -> tuple[float, int, int, list[str]]:
        argv, out, series = self._argv(slot)
        for path in (out, series):
            if path is not None and path.exists():
                path.unlink()
        start = time.perf_counter()
        if self.cold and not in_process:
            proc = subprocess.run(
                [sys.executable, "-m", "multirdd", *argv],
                cwd=self.root,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=CHILD_TIMEOUT_S,
            )
            elapsed = time.perf_counter() - start
            code, stderr = proc.returncode, proc.stderr.decode(errors="replace").strip()
        else:
            code, stderr = multirdd.cli.main(argv), ""
            elapsed = time.perf_counter() - start
        problems = self.check(slot, code, out, series)
        if problems and stderr:
            problems.append(stderr.splitlines()[-1])
        return elapsed, 1, int(bool(problems)), problems

    def check(self, slot: int, code: int, out: Path, series: Path | None) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        doc = _read_json(out)
        if slot == 1:
            problems = check_fit(doc, SAMPLE_HOMOGENEOUS, self.copies)
        elif not self.cold:
            problems = check_fit(doc, SAMPLE_CONDITIONAL, self.copies)
        else:
            problems = check_diagnose(doc)
        if series is not None:
            try:
                lines = series.read_text(encoding="utf-8").count("\n")
            except OSError:
                lines = 0
            if lines < 2:
                problems.append("series file missing or empty")
        return [f"{self.labels[slot - 1]}: {p}" for p in problems]


# (name, layout, rows per replication, replications per batch); with
# default BLAS threads on two cores a COVERAGE batch takes about 0.55 s,
# and a JSIZE batch with a JPOWER batch about 0.6 s.
MC_LAYOUTS = (
    ("coverage", COVERAGE_DGP, 5_000, 24),
    ("jsize", JSIZE_DGP, 5_000, 10),
    ("jpower", JPOWER_DGP, 20_000, 5),
)
# The layouts each slot runs: COVERAGE alone, then JSIZE and JPOWER together.
MC_SLOTS = {1: MC_LAYOUTS[:1], 2: MC_LAYOUTS[1:]}


class MonteCarloWorkload:
    """``run_study(workers=1)`` batches on the three acceptance layouts.

    Slot 1 runs a COVERAGE batch; slot 2 a JSIZE batch and then a JPOWER
    batch.  Every batch of a layout repeats the same study with the
    workload seed.  The first is checked against the population target;
    each later one must repeat its ``SimResult`` JSON byte for byte.
    """

    # seconds per replication, the inverse of replications per second
    labels = ("1/mc_reps_per_s", "1/mc_wide_large_reps_per_s")
    rows = None

    def __init__(self, name: str, root: Path, work: Path, seed: int):
        self.root = root
        self.seed = seed
        self.reference: dict[str, str] = {}
        self.failed_reps = 0

    def prepare(self) -> None:
        for _, dgp, _, _ in MC_LAYOUTS:
            multirdd.montecarlo.population_targets(dgp)

    def op(self, slot: int, in_process: bool = True) -> tuple[float, int, int, list[str]]:
        elapsed, units, failed, problems = 0.0, 0, 0, []
        for layout in MC_SLOTS[slot]:
            batch = self._batch(*layout)
            elapsed += batch[0]
            units += batch[1]
            failed += batch[2]
            problems += batch[3]
        return elapsed, units, failed, problems

    def _batch(self, label, dgp, n: int, reps: int) -> tuple[float, int, int, list[str]]:
        start = time.perf_counter()
        try:
            result = multirdd.montecarlo.run_study(dgp, n=n, reps=reps, seed=self.seed, workers=1)
        except Exception as err:  # noqa: BLE001 - run_study raises when every replication failed
            self.failed_reps += reps
            return time.perf_counter() - start, reps, reps, [f"{label}: {type(err).__name__}: {err}"]
        elapsed = time.perf_counter() - start
        self.failed_reps += result.failures
        text = result.to_json()
        if label not in self.reference:
            self.reference[label] = text
            problems = [f"{label}: {p}" for p in check_study(result)]
        elif text != self.reference[label]:
            problems = [f"{label}: SimResult JSON differs from the first run with seed {self.seed}"]
        else:
            problems = []
        return elapsed, reps, reps if problems else result.failures, problems


def make(name: str, root: Path, work: Path, seed: int):
    if name in ("cli-sample", "bigfile-200k"):
        return CliWorkload(name, root, work, seed)
    if name == "mc-acceptance":
        return MonteCarloWorkload(name, root, work, seed)
    raise ValueError(f"unknown workload {name!r}")


def run_mc_children(workload: MonteCarloWorkload, seconds: float, count: int, tally: Tally) -> None:
    """Split ``seconds`` of Monte Carlo batches over ``count`` fresh processes, one at a time.

    A process keeps its BLAS threads' speed for its whole life, and that
    speed differs from one process to the next, so the measurement is
    spread over several.  Every process must reproduce the same SimResult
    JSON for each layout, and this process's own first batch.
    """
    digests = {label: hashlib.sha256(text.encode()).hexdigest() for label, text in workload.reference.items()}
    for _ in range(count):
        doc = run_mc_child(workload.root, workload.seed, seconds / count, "12")
        tally.merge(doc)
        for label, digest in doc["digests"].items():
            if digests.setdefault(label, digest) != digest:
                tally.problems.append(f"{label}: SimResult JSON differs between processes")
                tally.failed += 1
