"""Command-line interface: estimate, diagnose, simulate.

Configuration may come from flags or from a JSON config file whose keys
are flag names (flags win); any other key is an error.  Reports are
JSON by default, with an optional aligned-text rendering.  Exit codes:
0 success, 1 input or configuration error, 2 identification/relevance
failure (diagnostics are still written where possible).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .data_model import EstimationConfig, ModelSpec, TableSchema
from .data_model import load_table, validate_dataset
from .discontinuities import cell_table, ratio_late, relevance
from .errors import EstimationError, InputError
from .kernels import KernelKind, window

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_IDENTIFICATION = 2
SUBCOMMANDS = ("estimate", "diagnose", "simulate")
SERIES_MAX_POINTS = 60  # a side with more distinct z in the series is binned by quantiles


def _csv_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multirdd",
        description=(
            "Regression discontinuity estimation with multivalued treatments: "
            "weighted 2SLS with cell-interacted instruments, cell-wise "
            "discontinuity diagnostics, and Monte Carlo verification."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(p):
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=["json", "text"], help="output format (default json)")

    def add_data(p):
        p.add_argument("--data", help="input CSV path")
        p.add_argument("--outcome", help="outcome column name")
        p.add_argument("--running", help="running-variable column name")
        p.add_argument("--cutoff", type=float, help="cutoff value (default 0)")
        p.add_argument("--treatment", help="integer-valued treatment column")
        p.add_argument(
            "--treatment-levels",
            dest="treatment_levels",
            help="comma-separated ordered treatment levels (default: observed values)",
        )
        p.add_argument(
            "--treatment-indicators",
            dest="treatment_indicators",
            help="comma-separated pre-built cumulative indicator columns",
        )
        p.add_argument("--w", help="comma-separated discrete covariate columns forming the cells")
        p.add_argument("--r", help="conditioning column for the conditional model")
        p.add_argument("--wtilde", help="comma-separated transform columns for the parametric model")
        p.add_argument("--controls", help="comma-separated extra exogenous control columns")
        p.add_argument("--cluster", help="cluster column name, or 'running' to cluster by z")
        p.add_argument("--kernel", help="uniform | triangular | epanechnikov")
        p.add_argument("--bandwidth", type=float, help="bandwidth in running-variable units")
        p.add_argument("--model", help="homogeneous | conditional | parametric")
        p.add_argument("--delimiter", help="CSV delimiter (default comma)")

    p_est = sub.add_parser("estimate", help="fit the weighted 2SLS estimator")
    add_data(p_est)
    add_io(p_est)

    p_diag = sub.add_parser("diagnose", help="cell-wise discontinuities and relevance")
    add_data(p_diag)
    p_diag.add_argument(
        "--series",
        help="also write per-cell binned means to this CSV (plotting data)",
    )
    add_io(p_diag)

    p_sim = sub.add_parser("simulate", help="Monte Carlo study from a DGP spec")
    p_sim.add_argument("--data", help="DGP spec JSON path")
    p_sim.add_argument("--n", type=int, help="sample size per replication")
    p_sim.add_argument("--reps", type=int, help="number of replications")
    p_sim.add_argument("--seed", type=int, help="master seed (default: spec's seed)")
    p_sim.add_argument("--kernel", help="uniform | triangular | epanechnikov")
    p_sim.add_argument("--bandwidth", type=float, help="bandwidth override")
    add_io(p_sim)
    return parser


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    merged: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except OSError as err:
            raise InputError(f"cannot read --config {path}: {err.strerror}") from None
        except json.JSONDecodeError as err:
            raise InputError(f"config file {path} is not valid JSON: {err}") from None
        if not isinstance(doc, dict):
            raise InputError(f"config file {path} must hold a JSON object")
        flags = {key for name in SUBCOMMANDS for key in vars(parser.parse_args([name]))}
        unknown = sorted(set(doc) - flags - {"subcommand"})
        if unknown:
            raise InputError(f"config file {path} has unknown key {unknown[0]!r}")
        merged.update((key, value) for key, value in doc.items() if value is not None)
    for key, value in vars(args).items():
        if key in ("config", "subcommand"):
            continue
        if value is not None:
            merged[key] = value
    if merged.get("format", "json") not in ("json", "text"):
        raise InputError(f"invalid --format: {merged['format']!r}, expected 'json' or 'text'")
    return merged


def _require(cfg: dict, key: str) -> object:
    if cfg.get(key) in (None, ""):
        raise InputError(f"missing required option --{key.replace('_', '-')}")
    return cfg[key]


def _convert(key: str, value, kind):
    """``kind(value)``; an :class:`InputError` naming the option if it does not convert."""
    try:
        return kind(value)
    except (TypeError, ValueError) as err:
        raise InputError(f"invalid --{key.replace('_', '-')}: {err}") from None


def _as_list(cfg: dict, key: str) -> list[str]:
    value = cfg.get(key)
    if value is None:
        return []
    if isinstance(value, str):
        return _csv_list(value)
    return [str(v) for v in _convert(key, value, list)]


def _schema_from(cfg: dict) -> TableSchema:
    levels = None
    if cfg.get("treatment_levels") is not None:
        levels = [_convert("treatment_levels", v, float) for v in _as_list(cfg, "treatment_levels")]
    return TableSchema(
        outcome=str(_require(cfg, "outcome")),
        running=str(_require(cfg, "running")),
        cutoff=_convert("cutoff", cfg.get("cutoff", 0.0), float),
        treatment=cfg.get("treatment"),
        treatment_indicators=tuple(_as_list(cfg, "treatment_indicators")),
        treatment_levels=None if levels is None else tuple(levels),
        covariates=tuple(_as_list(cfg, "w")),
        extra_controls=tuple(_as_list(cfg, "controls")),
        delimiter=str(cfg.get("delimiter", ",")),
    )


def _estimation_config(cfg: dict) -> EstimationConfig:
    cluster = cfg.get("cluster")
    return EstimationConfig(
        bandwidth=_convert("bandwidth", _require(cfg, "bandwidth"), float),
        kernel=_convert("kernel", str(cfg.get("kernel", "uniform")), KernelKind.from_name),
        # --cluster sets only this; build_design reads the column from Dataset.aux
        cluster_by=None if cluster is None else str(cluster),
    )


def _model_spec(cfg: dict) -> ModelSpec:
    kind = str(cfg.get("model", "homogeneous")).lower()
    # the treatment levels belong to the schema, which encodes the treatment at load
    return ModelSpec(
        kind=kind,
        r_column=cfg.get("r"),
        wtilde_columns=tuple(_as_list(cfg, "wtilde")),
    )


def _write(payload: str, out_path: str | None) -> None:
    if out_path:
        try:
            Path(out_path).write_text(payload + "\n", encoding="utf-8")
        except OSError as err:
            raise InputError(f"cannot write --out {out_path}: {err.strerror}") from None
    else:
        sys.stdout.write(payload + "\n")


def _render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _fit_text(doc: dict) -> str:
    rows = doc.get("coefficients", [])
    width = max([len(r["name"]) for r in rows] + [8])
    lines = [f"{'':{width}}  estimate", "-" * (width + 24)]
    for r in rows:
        lines.append(f"{r['name']:{width}}  {r['estimate']:12.4f}")
        lines.append(f"{'':{width}}  ({r['se']:.4f})")
    if doc.get("just_identified"):
        lines.append("[just identified; no over-identification test]")
    elif "j_pvalue" in doc:
        lines.append(f"[J-test p-value = {doc['j_pvalue']:.3f}]")
    lines.append(f"n (weight-positive) = {doc.get('n_effective')}")
    return "\n".join(lines)


def _diagnostics_doc(ds, cfg, ct=None) -> tuple[dict, bool]:
    if ct is None:
        ct = cell_table(ds, cfg)
    tw = relevance(ct)
    ratios = {}
    for l, cell in enumerate(ct.cells):
        ratios[cell.label] = {
            f"x{j}": ratio_late(ct, l, j).to_dict() for j in range(1, ct.d + 1)
        }
    doc = {
        "cell_table": ct.to_dict(),
        "relevance": tw.to_dict(),
        "ratio_late": ratios,
        "validation": validate_dataset(ds, cfg).to_dict(),
    }
    return doc, tw.passed


def _quantile_edges(sorted_z: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """``np.quantile(sorted_z, levels)`` by its "linear" rule, bit for bit, for sorted finite z.

    np.quantile also works, but it imports numpy.ma on every call (through
    np.unique), a sizable share of a cold ``diagnose``.
    """
    n = len(sorted_z)
    virtual = (n - 1) * levels
    top = virtual >= n - 1
    # numpy indexes the top value as -1 on both sides, so there t = virtual + 1
    lo = np.where(top, -1, np.floor(virtual)).astype(np.intp)
    hi = np.where(top, -1, lo + 1)
    t = virtual - lo
    a, b = sorted_z[lo], sorted_z[hi]
    diff = b - a
    # np.quantile's lerp: from b's end where t >= 0.5, so that t = 1 gives b exactly
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def _series_bins(ds, cfg) -> list[tuple[str, str, np.ndarray, np.ndarray, np.ndarray]]:
    """Per-cell, per-side bins of the window rows: (label, side, z, count, means).

    A bin is one distinct z, or one of SERIES_MAX_POINTS quantile bins
    (z at the midpoint of its edges) when the side has more distinct z.
    Bins with no rows are left out.  ``means`` holds one row per bin: the
    means of y and of each indicator, as bin sums over counts.
    """
    rows, _ = window(cfg.kernel, cfg.bandwidth, ds.z)
    out = []
    for l, label in enumerate(ds.cell_labels):
        in_cell = rows[ds.cells[rows] == l]
        right = ds.z[in_cell] >= 0
        for side, sel in (("left", in_cell[~right]), ("right", in_cell[right])):
            if not sel.size:
                continue
            z_vals = ds.z[sel]
            centers, bins = np.unique(z_vals, return_inverse=True)
            if len(centers) > SERIES_MAX_POINTS:
                levels = np.linspace(0, 1, SERIES_MAX_POINTS + 1)
                edges = _quantile_edges(np.sort(z_vals), levels)
                centers = 0.5 * (edges[:-1] + edges[1:])
                bins = np.searchsorted(edges[1:-1], z_vals, side="right")
            count = np.bincount(bins, minlength=len(centers))
            sums = np.column_stack([
                np.bincount(bins, weights=col, minlength=len(centers))
                for col in (ds.y[sel], *ds.x[sel].T)
            ])
            keep = count > 0
            out.append((label, side, centers[keep], count[keep], sums[keep] / count[keep, None]))
    return out


def write_series(path: str, ds, cfg) -> None:
    """Per-cell, per-side binned means of the outcome and each indicator.

    This is the plotting data behind first-stage figures; the toolkit
    does not plot, it emits the series for external tooling.
    """
    lines = [["cell", "side", "z", "count", "y_mean"] + [f"x{j + 1}_mean" for j in range(ds.d)]]
    for label, side, z, count, means in _series_bins(ds, cfg):
        for zb, nb, mb in zip(z.tolist(), count.tolist(), means.tolist()):
            lines.append([label, side, f"{zb:.6g}", nb, *(f"{m:.6g}" for m in mb)])
    try:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(lines)
    except OSError as err:
        raise InputError(f"cannot write --series {path}: {err.strerror}") from None


def estimate_cmd(cfg: dict) -> int:
    from .estimator import estimate  # here, so that diagnose never imports the estimator

    schema = _schema_from(cfg)
    ds = load_table(str(_require(cfg, "data")), schema)
    est_cfg = _estimation_config(cfg)
    spec = _model_spec(cfg)
    echo = {
        "data": str(cfg.get("data")),
        "kernel": est_cfg.kernel.value,
        "bandwidth": est_cfg.bandwidth,
        "cutoff": schema.cutoff,
        "model": spec.kind,
        "cluster": cfg.get("cluster"),
    }
    ct = min_eig = None
    if spec.kind == "homogeneous":
        try:
            ct = cell_table(ds, est_cfg)
            min_eig = float(relevance(ct).min_eigenvalue)
        except EstimationError:
            pass
    try:
        fit = estimate(ds, spec, est_cfg)
    except EstimationError as err:
        doc = {"error": str(err), "config": echo}
        try:
            diag, _ = _diagnostics_doc(ds, est_cfg, ct)
            doc["diagnostics"] = diag
        except EstimationError as diag_err:
            doc["diagnostics_error"] = str(diag_err)
        _write(_render_json(doc), cfg.get("out"))
        sys.stderr.write(f"estimation failed: {err}\n")
        return EXIT_IDENTIFICATION
    doc = fit.to_dict()
    doc["first_stage"]["joint_min_eigenvalue"] = min_eig
    doc["config"] = echo
    payload = _fit_text(doc) if cfg.get("format") == "text" else _render_json(doc)
    _write(payload, cfg.get("out"))
    return EXIT_OK


def diagnose_cmd(cfg: dict) -> int:
    if cfg.get("format", "json") != "json":
        raise InputError(
            f"invalid --format for diagnose: {cfg['format']!r}; its report is nested JSON only"
        )
    schema = _schema_from(cfg)
    ds = load_table(str(_require(cfg, "data")), schema)
    est_cfg = _estimation_config(cfg)
    doc, passed = _diagnostics_doc(ds, est_cfg)
    doc["config"] = {
        "data": str(cfg.get("data")),
        "kernel": est_cfg.kernel.value,
        "bandwidth": est_cfg.bandwidth,
        "cutoff": schema.cutoff,
    }
    if cfg.get("series"):
        write_series(str(cfg["series"]), ds, est_cfg)
    _write(_render_json(doc), cfg.get("out"))
    if not passed:
        sys.stderr.write("relevance check failed; see the report for diagnostics\n")
        return EXIT_IDENTIFICATION
    return EXIT_OK


def simulate_cmd(cfg: dict) -> int:
    from .montecarlo import default_config, load_dgp_spec, run_study

    dgp = load_dgp_spec(str(_require(cfg, "data")))
    reps = _convert("reps", cfg.get("reps", 0) or 0, int)
    if reps < 1:
        raise InputError(f"--reps must be at least 1, got {reps}")
    n = _convert("n", _require(cfg, "n"), int)
    # the DGP's default bandwidth; simulate has no --cluster, though a shared config may set it
    defaults = {"bandwidth": default_config(dgp).bandwidth}
    est_cfg = _estimation_config({**defaults, **cfg, "cluster": None})
    result = run_study(
        dgp,
        n=n,
        reps=reps,
        cfg=est_cfg,
        seed=None if cfg.get("seed") is None else _convert("seed", cfg["seed"], int),
    )
    payload = result.summary_text() if cfg.get("format") == "text" else result.to_json()
    _write(payload, cfg.get("out"))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args, parser)
        if args.subcommand == "estimate":
            return estimate_cmd(cfg)
        if args.subcommand == "diagnose":
            return diagnose_cmd(cfg)
        if args.subcommand == "simulate":
            return simulate_cmd(cfg)
        raise InputError(f"unknown subcommand {args.subcommand!r}")  # pragma: no cover
    except InputError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_INPUT
    except EstimationError as err:
        sys.stderr.write(f"estimation failed: {err}\n")
        return EXIT_IDENTIFICATION


def entrypoint() -> None:  # pragma: no cover - console-script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
