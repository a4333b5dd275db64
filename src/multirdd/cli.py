"""Command-line interface: estimate, diagnose, simulate.

Each option is declared once, in :data:`COMMANDS`.  Its value comes from
its flag or from its key in a JSON config file (flags win; any other key
is an error), and either way passes the option's one converter.  Reports
are JSON by default, with an optional aligned-text rendering.  Exit codes:
0 success; 1 an input, configuration or usage error, one ``error:`` line;
2 an identification or relevance failure, after the report is written.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .data_model import SIDES, Dataset, EstimationConfig, KernelWindow, ModelSpec, TableSchema
from .data_model import _window_of, kernel_window, load_table, validate_dataset
from .discontinuities import cell_table, ratio_late, relevance
from .errors import EstimationError, InputError
from .kernels import KernelKind

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_IDENTIFICATION = 2
SERIES_MAX_POINTS = 60  # a side with more distinct z in the series is binned by quantiles


def _text(value) -> str:
    """Text as given; any other JSON value is refused."""
    if not isinstance(value, str):
        raise TypeError(f"expected text, got {json.dumps(value)}")
    return value


def _count(value) -> int:
    """An integer, from a whole number or its text; 2.5 and "2.5" are refused."""
    if not (isinstance(value, (int, str)) or isinstance(value, float) and value.is_integer()):
        raise TypeError(f"expected an integer, got {json.dumps(value)}")
    return int(value)


def _names(value) -> tuple[str, ...]:
    """Comma-separated text, or a JSON list, as a tuple of names."""
    if isinstance(value, list):
        return tuple(str(v) for v in value)
    return tuple(part.strip() for part in _text(value).split(",") if part.strip())


def _format(value, choices=("json", "text")) -> str:
    if value not in choices:
        raise ValueError(f"{value!r}, expected {' or '.join(map(repr, choices))}")
    return value


DATA_OPTIONS = {
    "data": (_text, "input CSV path"),
    "outcome": (_text, "outcome column name"),
    "running": (_text, "running-variable column name"),
    "cutoff": (float, "cutoff value (default 0)"),
    "treatment": (_text, "integer-valued treatment column"),
    "treatment_levels": (
        lambda v: tuple(map(float, _names(v))),
        "comma-separated ordered treatment levels (default: observed values)",
    ),
    "treatment_indicators": (_names, "comma-separated pre-built cumulative indicator columns"),
    "w": (_names, "comma-separated discrete covariate columns forming the cells"),
    "r": (_text, "conditioning column for the conditional model"),
    "wtilde": (_names, "comma-separated transform columns for the parametric model"),
    "controls": (_names, "comma-separated extra exogenous control columns"),
    "cluster": (_text, "cluster column name, or 'running' to cluster by the running variable "
                "(default: each row its own cluster)"),
    "kernel": (lambda v: KernelKind.from_name(_text(v)), "uniform | triangular | epanechnikov"),
    "bandwidth": (float, "bandwidth in running-variable units"),
    "model": (lambda v: _text(v).lower(), "homogeneous | conditional | parametric"),
    "delimiter": (_text, "CSV delimiter (default comma)"),
}
OUTPUT_OPTIONS = {
    "out": (_text, "output path (default: stdout)"),
    "format": (_format, "output format: json | text (default json)"),
}
# each subcommand's help line, and its options by config key: each one's converter and help;
# an option's flag is its key with "-" for "_", and every flag is read as text
COMMANDS = {
    "estimate": ("fit the weighted 2SLS estimator", {**DATA_OPTIONS, **OUTPUT_OPTIONS}),
    "diagnose": ("cell-wise discontinuities and relevance", {
        **DATA_OPTIONS,
        "series": (_text, "also write per-cell binned means to this CSV (plotting data)"),
        "out": OUTPUT_OPTIONS["out"],
        "format": (lambda v: _format(v, ("json",)), "output format: json (a nested report)"),
    }),
    "simulate": ("Monte Carlo study from a DGP spec", {
        "data": (_text, "DGP spec JSON path"),
        "n": (_count, "sample size per replication"),
        "reps": (_count, "number of replications"),
        "seed": (_count, "master seed (default: spec's seed)"),
        "kernel": DATA_OPTIONS["kernel"],
        "bandwidth": (float, "bandwidth override"),
        **OUTPUT_OPTIONS,
    }),
}


def _flag(key: str) -> str:
    return f"--{key.replace('_', '-')}"


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors (exit 1)."""

    def error(self, message: str):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="multirdd",
        description=(
            "Regression discontinuity estimation with multivalued treatments: "
            "weighted 2SLS with cell-interacted instruments, cell-wise "
            "discontinuity diagnostics, and Monte Carlo verification."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (summary, options) in COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        command.add_argument("--config", help="JSON config file; flags override its keys")
        for key, (_, help_text) in options.items():
            command.add_argument(_flag(key), help=help_text)
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """This subcommand's options from the --config file, then the flags, each converted once."""
    merged: dict = {}
    if args.config:
        path = Path(args.config)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except OSError as err:
            raise InputError(f"cannot read --config {path}: {err.strerror}") from None
        except json.JSONDecodeError as err:
            raise InputError(f"config file {path} is not valid JSON: {err}") from None
        if not isinstance(doc, dict):
            raise InputError(f"config file {path} must hold a JSON object")
        # any subcommand's key, so that one file serves them all
        keys = {key for _, options in COMMANDS.values() for key in options}
        unknown = sorted(set(doc) - keys - {"config", "subcommand"})
        if unknown:
            raise InputError(f"config file {path} has unknown key {unknown[0]!r}")
        merged.update(doc)
    merged.update((key, value) for key, value in vars(args).items() if value is not None)
    cfg = {}
    for key, (convert, _) in COMMANDS[args.subcommand][1].items():
        if merged.get(key) is not None:
            try:
                cfg[key] = convert(merged[key])
            except (TypeError, ValueError, OverflowError) as err:
                raise InputError(f"invalid {_flag(key)}: {err}") from None
    return cfg


def _require(cfg: dict, key: str) -> object:
    if cfg.get(key) in (None, ""):
        raise InputError(f"missing required option {_flag(key)}")
    return cfg[key]


def _estimation_config(cfg: dict) -> EstimationConfig:
    # --cluster sets only cluster_by; build_design reads the column from Dataset.aux
    bandwidth, kernel = _require(cfg, "bandwidth"), cfg.get("kernel", KernelKind.UNIFORM)
    try:  # of these, the config checks the bandwidth only
        return EstimationConfig(bandwidth, kernel, cluster_by=cfg.get("cluster"))
    except InputError as err:
        raise InputError(f"invalid --bandwidth: {err}") from None


def _load(cfg: dict) -> tuple[Dataset, EstimationConfig, dict]:
    """The dataset, its estimation config, and the data, cutoff and window a report echoes."""
    schema = TableSchema(
        outcome=_require(cfg, "outcome"),
        running=_require(cfg, "running"),
        cutoff=cfg.get("cutoff", 0.0),
        treatment=cfg.get("treatment"),
        treatment_indicators=cfg.get("treatment_indicators", ()),
        treatment_levels=cfg.get("treatment_levels"),
        covariates=cfg.get("w", ()),
        extra_controls=cfg.get("controls", ()),
        delimiter=cfg.get("delimiter", ","),
    )
    ds = load_table(_require(cfg, "data"), schema)
    est_cfg = _estimation_config(cfg)
    kernel, h = est_cfg.kernel.value, est_cfg.bandwidth
    echo = {"data": cfg["data"], "kernel": kernel, "bandwidth": h, "cutoff": schema.cutoff}
    return ds, est_cfg, echo


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


def _failed(err: EstimationError, cfg: dict, echo: dict, **more) -> int:
    """Write the failure report, ``err`` with the config ``echo`` and ``more``; exit 2."""
    _write(_render_json({"error": str(err), "config": echo, **more}), cfg.get("out"))
    sys.stderr.write(f"estimation failed: {err}\n")
    return EXIT_IDENTIFICATION


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


def _diagnostics_doc(ds, cfg, win, ct=None, tw=None) -> tuple[dict, bool]:
    if ct is None:
        ct = cell_table(ds, cfg, win)
    tw = relevance(ct) if tw is None else tw
    ratios = {}
    for l, label in enumerate(ct.labels):
        ratios[label] = {f"x{j}": ratio_late(ct, l, j).to_dict() for j in range(1, ct.d + 1)}
    doc = {
        "cell_table": ct.to_dict(),
        "relevance": tw.to_dict(),
        "ratio_late": ratios,
        "validation": validate_dataset(ds).to_dict(),
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


def _series_bins(win: KernelWindow) -> list[tuple[str, str, np.ndarray, np.ndarray, np.ndarray]]:
    """Per-cell, per-side bins of the rows of ``win``: (label, side, z, count, means).

    A bin is one distinct z, or one of SERIES_MAX_POINTS quantile bins
    (z at the midpoint of its edges) when the side has more distinct z.
    Bins with no rows are left out.  ``means`` holds one row per bin: the
    means of y and of each indicator, as bin sums over counts.
    """
    ds, basis, bounds = win.dataset, win.basis, win.basis.bounds.tolist()
    out = []
    for g in basis.ids.tolist():  # each group's rows are contiguous, in ascending order
        label, side = ds.cell_labels[g // 2], SIDES[g % 2]
        sel, z_vals = win.rows[bounds[g] : bounds[g + 1]], basis.z[bounds[g] : bounds[g + 1]]
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


def write_series(path: str, ds, cfg, window: KernelWindow | None = None) -> None:
    """Per-cell, per-side binned means of the outcome and each indicator.

    This is the plotting data behind first-stage figures; the toolkit
    does not plot, it emits the series for external tooling.  ``window``
    is the kernel window of ``ds`` under ``cfg``, built here when None.
    """
    lines = [["cell", "side", "z", "count", "y_mean"] + [f"x{j + 1}_mean" for j in range(ds.d)]]
    for label, side, z, count, means in _series_bins(_window_of(ds, cfg, window)):
        for zb, nb, mb in zip(z.tolist(), count.tolist(), means.tolist()):
            lines.append([label, side, f"{zb:.6g}", nb, *(f"{m:.6g}" for m in mb)])
    try:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(lines)
    except OSError as err:
        raise InputError(f"cannot write --series {path}: {err.strerror}") from None


def estimate_cmd(cfg: dict) -> int:
    from .estimator import estimate  # here, so that diagnose never imports the estimator

    spec = ModelSpec(cfg.get("model", "homogeneous"), cfg.get("r"), cfg.get("wtilde", ()))
    ds, est_cfg, echo = _load(cfg)
    echo.update(model=spec.kind, cluster=cfg.get("cluster"))
    win = kernel_window(ds, est_cfg)  # the kernel is evaluated once per command
    ct = tw = diag_err = None
    if spec.kind == "homogeneous":
        try:
            ct = cell_table(ds, est_cfg, win)
            tw = relevance(ct)
        except EstimationError as err:
            diag_err = err  # the diagnostics of a failed fit would raise it again
    try:
        fit = estimate(ds, spec, est_cfg, win)
    except EstimationError as err:
        if diag_err is None:
            try:
                diagnostics = _diagnostics_doc(ds, est_cfg, win, ct, tw)[0]
                return _failed(err, cfg, echo, diagnostics=diagnostics)
            except EstimationError as later:
                diag_err = later
        return _failed(err, cfg, echo, diagnostics_error=str(diag_err))
    doc = fit.to_dict()
    doc["first_stage"]["joint_min_eigenvalue"] = None if tw is None else tw.min_eigenvalue
    doc["config"] = echo
    payload = _fit_text(doc) if cfg.get("format") == "text" else _render_json(doc)
    _write(payload, cfg.get("out"))
    return EXIT_OK


def diagnose_cmd(cfg: dict) -> int:
    ds, est_cfg, echo = _load(cfg)
    win = kernel_window(ds, est_cfg)  # the kernel is evaluated once per command
    try:
        doc, passed = _diagnostics_doc(ds, est_cfg, win)
    except EstimationError as err:
        return _failed(err, cfg, echo)
    doc["config"] = echo
    if cfg.get("series"):
        write_series(cfg["series"], ds, est_cfg, win)
    _write(_render_json(doc), cfg.get("out"))
    if not passed:
        sys.stderr.write("relevance check failed; see the report for diagnostics\n")
        return EXIT_IDENTIFICATION
    return EXIT_OK


def simulate_cmd(cfg: dict) -> int:
    from .montecarlo import default_config, load_dgp_spec, run_study

    dgp = load_dgp_spec(_require(cfg, "data"))
    reps = cfg.get("reps", 0)
    if reps < 1:
        raise InputError(f"--reps must be at least 1, got {reps}")
    n = _require(cfg, "n")
    est_cfg = _estimation_config({"bandwidth": default_config(dgp).bandwidth, **cfg})
    result = run_study(dgp, n=n, reps=reps, cfg=est_cfg, seed=cfg.get("seed"))
    payload = result.summary_text() if cfg.get("format") == "text" else result.to_json()
    _write(payload, cfg.get("out"))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up by name, so that a command wrapped on the module is the one that runs
        return globals()[f"{args.subcommand}_cmd"](_merge_config(args))
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
