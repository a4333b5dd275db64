"""Dataset representation, ingestion, and encoding.

A :class:`Dataset` stores the outcome, the recentered running variable,
the cumulative treatment-indicator matrix, covariate-cell assignments
with their dummy encoding, and optional cluster keys and extra exogenous
controls.  Datasets are immutable after construction (all arrays are
write-locked), so they are safe to share across worker threads.

Treatment is encoded as ordered crossing indicators: with levels
t_0 < t_1 < ... < t_d, column j holds 1 when the observed treatment is
at least t_{j+1}.  Rows are therefore non-increasing left to right; a
violation means the input indicators were not cumulative.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError, ParseError, SchemaError
from .kernels import KernelKind, weights_vector

__all__ = [
    "Dataset",
    "TableSchema",
    "ModelSpec",
    "EstimationConfig",
    "CellEncoding",
    "ValidationReport",
    "load_table",
    "encode_treatment",
    "encode_cells",
    "validate_dataset",
]

DEFAULT_MAX_CELL_LEVELS = 64


def _locked(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


def _format_value(v) -> str:
    """Stable string form for covariate values; integral floats print as ints."""
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return str(v)


@dataclass(frozen=True)
class Dataset:
    """Immutable columnar dataset, running variable already recentered.

    ``aux`` keeps every raw input column by name (numeric where fully
    parseable, strings otherwise) so model variants can look up the
    conditioning column R or the parametric transform columns later.
    """

    y: np.ndarray
    z: np.ndarray
    x: np.ndarray
    cells: np.ndarray
    cell_labels: tuple[str, ...]
    w_dummies: np.ndarray
    cluster: np.ndarray | None = None
    extra_controls: np.ndarray | None = None
    extra_control_names: tuple[str, ...] = ()
    aux: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        y = _locked(np.asarray(self.y, dtype=float))
        z = _locked(np.asarray(self.z, dtype=float))
        x = _locked(np.atleast_2d(np.asarray(self.x, dtype=float)))
        cells = _locked(np.asarray(self.cells, dtype=int))
        w = _locked(np.asarray(self.w_dummies, dtype=float).reshape(len(y), -1))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "w_dummies", w)
        if self.cluster is not None:
            object.__setattr__(self, "cluster", _locked(np.asarray(self.cluster)))
        if self.extra_controls is not None:
            ec = _locked(np.asarray(self.extra_controls, dtype=float).reshape(len(y), -1))
            object.__setattr__(self, "extra_controls", ec)

        n = len(y)
        for name, col in (("z", z), ("cells", cells)):
            if len(col) != n:
                raise InputError(f"column {name!r} has length {len(col)}, expected {n}")
        if x.shape[0] != n:
            raise InputError(f"treatment matrix has {x.shape[0]} rows, expected {n}")
        if w.shape[0] != n:
            raise InputError(f"dummy matrix has {w.shape[0]} rows, expected {n}")
        if self.cluster is not None and len(self.cluster) != n:
            raise InputError("cluster column length mismatch")
        if np.isnan(z).any():
            raise InputError("running variable contains missing values")
        if np.isnan(y).any():
            raise InputError("outcome contains missing values")
        q = len(self.cell_labels)
        if q and (cells.min(initial=0) < 0 or cells.max(initial=-1) >= q):
            raise InputError("cell index out of range of cell_labels")
        if w.shape[1] != max(q - 1, 0):
            raise InputError(
                f"dummy matrix has {w.shape[1]} columns, expected q-1 = {max(q - 1, 0)}"
            )

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def q(self) -> int:
        return len(self.cell_labels)

    @property
    def m(self) -> int:
        return self.w_dummies.shape[1]


@dataclass(frozen=True)
class TableSchema:
    """Column-name mapping for :func:`load_table`.

    Treatment comes either as one integer-valued column (``treatment``)
    or as pre-built cumulative indicator columns
    (``treatment_indicators``); exactly one of the two must be given.
    """

    outcome: str
    running: str
    cutoff: float = 0.0
    treatment: str | None = None
    treatment_indicators: tuple[str, ...] = ()
    treatment_levels: tuple[float, ...] | None = None
    covariates: tuple[str, ...] = ()
    cluster: str | None = None
    extra_controls: tuple[str, ...] = ()
    delimiter: str = ","
    max_cell_levels: int = DEFAULT_MAX_CELL_LEVELS

    def __post_init__(self):
        has_single = self.treatment is not None
        has_indicators = len(self.treatment_indicators) > 0
        if has_single == has_indicators:
            raise SchemaError(
                "exactly one of 'treatment' or 'treatment_indicators' must be specified"
            )


@dataclass(frozen=True)
class ModelSpec:
    """Which identification strategy is assumed.

    * ``homogeneous``: effects do not vary with the W cells.
    * ``conditional``: effects may vary with the column named
      ``r_column`` but not with W given R; estimated as a stacked fit.
    * ``parametric``: effects are linear in the transform columns
      ``wtilde_columns``.
    """

    kind: str = "homogeneous"
    treatment_levels: tuple[float, ...] = ()
    r_column: str | None = None
    wtilde_columns: tuple[str, ...] = ()

    KINDS = ("homogeneous", "conditional", "parametric")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InputError(f"model kind must be one of {self.KINDS}, got {self.kind!r}")
        if self.kind == "conditional" and not self.r_column:
            raise InputError("conditional model requires r_column")
        if self.kind == "parametric" and not self.wtilde_columns:
            raise InputError("parametric model requires at least one wtilde column")
        levels = tuple(float(t) for t in self.treatment_levels)
        if levels and any(b <= a for a, b in zip(levels, levels[1:])):
            raise InputError(f"treatment levels must be strictly increasing, got {levels}")
        object.__setattr__(self, "treatment_levels", levels)
        object.__setattr__(self, "wtilde_columns", tuple(self.wtilde_columns))


@dataclass(frozen=True)
class EstimationConfig:
    """Kernel, bandwidth, clustering, and numerical tolerances.

    ``cluster_by`` is a column name, the string ``"running"`` (cluster
    by the values of the running variable), or None (each observation
    its own cluster).

    The cutoff belongs to :class:`TableSchema`, which recenters the
    running variable at load; the ``cutoff`` keyword here is accepted for
    older callers but is not stored, and it warns.
    """

    bandwidth: float
    kernel: KernelKind = KernelKind.UNIFORM
    cutoff: InitVar[float | None] = None
    cluster_by: str | None = None
    rcond_threshold: float = 1e-10

    def __post_init__(self, cutoff):
        if cutoff is not None:
            warnings.warn(
                "EstimationConfig(cutoff=...) is ignored and will be removed; "
                "the cutoff is applied once, by TableSchema.cutoff at load time",
                FutureWarning,
                stacklevel=3,
            )
        if isinstance(self.kernel, str):
            object.__setattr__(self, "kernel", KernelKind.from_name(self.kernel))
        if not self.bandwidth > 0:
            raise InputError(f"bandwidth must be positive, got {self.bandwidth}")
        if not 0 < self.rcond_threshold < 1:
            raise InputError(
                f"rcond_threshold must lie in (0, 1), got {self.rcond_threshold}"
            )


def encode_treatment(t: np.ndarray, levels: Sequence[float]) -> np.ndarray:
    """Encode an ordered treatment column as cumulative crossing indicators.

    Row i gets x[i, j] = 1 iff t_i >= levels[j + 1]; the lowest level is
    the baseline and produces no column.
    """
    levels = [float(v) for v in levels]
    if len(levels) < 2:
        raise InputError(f"need at least two treatment levels, got {levels}")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise InputError(f"treatment levels must be strictly increasing, got {levels}")
    t = np.asarray(t, dtype=float)
    known = np.isin(t, levels)
    if not known.all():
        bad = t[~known][0]
        raise InputError(f"treatment value {bad!r} is not among declared levels {levels}")
    thresholds = np.asarray(levels[1:], dtype=float)
    return (t[:, None] >= thresholds[None, :]).astype(float)


@dataclass(frozen=True)
class CellEncoding:
    cells: np.ndarray
    q: int
    labels: tuple[str, ...]
    dummies: np.ndarray


def encode_cells(
    columns: Sequence[np.ndarray],
    max_levels: int = DEFAULT_MAX_CELL_LEVELS,
) -> CellEncoding:
    """Map discrete covariate combinations to cell indices and dummies.

    Cells are indexed by the lexicographic order of their label; the
    smallest label is the reference cell and gets no dummy column.  The
    encoding depends only on the multiset of values, so shuffling rows
    permutes the cell index column identically.
    """
    columns = [np.asarray(c) for c in columns]
    if not columns:
        n = 0
        return CellEncoding(np.zeros(0, dtype=int), 0, (), np.zeros((0, 0)))
    n = len(columns[0])
    for k, col in enumerate(columns):
        if len(col) != n:
            raise InputError(f"covariate column {k} has length {len(col)}, expected {n}")
        n_levels = len(set(_format_value(v) for v in col.tolist()))
        if n_levels > max_levels:
            raise InputError(
                f"covariate column {k} has {n_levels} levels (> {max_levels}); "
                "coarsen it before encoding"
            )
    keys = ["|".join(_format_value(col[i]) for col in columns) for i in range(n)]
    labels = tuple(sorted(set(keys)))
    index = {lab: i for i, lab in enumerate(labels)}
    cells = np.asarray([index[k] for k in keys], dtype=int)
    q = len(labels)
    dummies = np.zeros((n, max(q - 1, 0)))
    for j in range(1, q):
        dummies[:, j - 1] = cells == j
    return CellEncoding(cells, q, labels, dummies)


def _parse_float_column(rows: list[list[str]], idx: int, name: str) -> np.ndarray:
    out = np.empty(len(rows))
    for i, row in enumerate(rows):
        raw = row[idx].strip()
        if raw == "":
            raise ParseError(f"column {name!r} has a missing value in row {i + 1}")
        try:
            out[i] = float(raw)
        except ValueError:
            raise ParseError(
                f"column {name!r} has non-numeric value {raw!r} in row {i + 1}"
            ) from None
    return out


def load_table(path: str | Path, schema: TableSchema) -> Dataset:
    """Read a delimited text file into a :class:`Dataset`.

    The running variable is recentered by ``schema.cutoff`` so the
    threshold sits at zero (recentering an already-centered file with
    cutoff 0 is a no-op).  Missing values are a hard error: silently
    dropping rows would change the estimand.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"data file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"data file {path} is empty") from None
        header = [h.strip() for h in header]
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise InputError(f"data file {path} has a header but no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(
                f"row {i + 1} has {len(row)} fields, header has {len(header)}"
            )

    col_index = {name: k for k, name in enumerate(header)}
    duplicated = {name for name in col_index if header.count(name) > 1}

    def require(name: str, role: str) -> int:
        if name not in col_index:
            raise SchemaError(f"{role} column {name!r} not found (file has {header})")
        if name in duplicated:
            raise SchemaError(f"{role} column {name!r} appears more than once in the header")
        return col_index[name]

    y = _parse_float_column(rows, require(schema.outcome, "outcome"), schema.outcome)
    z_raw = _parse_float_column(rows, require(schema.running, "running"), schema.running)
    z = z_raw - float(schema.cutoff)

    if schema.treatment is not None:
        t = _parse_float_column(rows, require(schema.treatment, "treatment"), schema.treatment)
        levels = schema.treatment_levels
        if levels is None:
            levels = tuple(sorted(set(t.tolist())))
        if len(levels) < 2:
            raise InputError(
                f"treatment column {schema.treatment!r} has fewer than two distinct levels"
            )
        x = encode_treatment(t, levels)
    else:
        cols = []
        for name in schema.treatment_indicators:
            cols.append(_parse_float_column(rows, require(name, "treatment indicator"), name))
        x = np.column_stack(cols)
        if not np.isin(x, (0.0, 1.0)).all():
            raise InputError("treatment indicator columns must contain only 0/1 values")
        bad = np.where((np.diff(x, axis=1) > 0).any(axis=1))[0]
        if bad.size:
            raise InputError(
                f"treatment indicators are not cumulative in rows {(bad + 1).tolist()[:10]}"
            )

    cov_cols = []
    for name in schema.covariates:
        idx = require(name, "covariate")
        col = np.asarray([row[idx].strip() for row in rows], dtype=object)
        if (col == "").any():
            i = int(np.nonzero(col == "")[0][0])
            raise ParseError(f"covariate {name!r} has a missing value in row {i + 1}")
        cov_cols.append(col)
    enc = (
        encode_cells(cov_cols, max_levels=schema.max_cell_levels)
        if cov_cols
        else CellEncoding(np.zeros(len(rows), dtype=int), 1, ("all",), np.zeros((len(rows), 0)))
    )

    cluster = None
    if schema.cluster is not None:
        idx = require(schema.cluster, "cluster")
        cluster = np.asarray([row[idx].strip() for row in rows], dtype=object)

    extras = None
    if schema.extra_controls:
        extras = np.column_stack(
            [
                _parse_float_column(rows, require(name, "extra control"), name)
                for name in schema.extra_controls
            ]
        )

    aux: dict[str, np.ndarray] = {}
    for name, idx in col_index.items():
        raw = [row[idx].strip() for row in rows]
        try:
            aux[name] = np.asarray([float(v) for v in raw])
        except ValueError:
            aux[name] = np.asarray(raw, dtype=object)

    return Dataset(
        y=y,
        z=z,
        x=x,
        cells=enc.cells,
        cell_labels=enc.labels,
        w_dummies=enc.dummies,
        cluster=cluster,
        extra_controls=extras,
        extra_control_names=tuple(schema.extra_controls),
        aux=aux,
    )


@dataclass(frozen=True)
class ValidationReport:
    """Structural diagnostics; reporting only, estimation enforces hard failures."""

    monotonicity_violations: tuple[int, ...]
    cell_side_counts: dict[str, tuple[int, int]]
    empty_side_warnings: tuple[str, ...]
    constant_columns: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.monotonicity_violations and not self.empty_side_warnings

    def to_dict(self) -> dict:
        return {
            "monotonicity_violations": list(self.monotonicity_violations),
            "cell_side_counts": {k: list(v) for k, v in self.cell_side_counts.items()},
            "empty_side_warnings": list(self.empty_side_warnings),
            "constant_columns": list(self.constant_columns),
            "ok": self.ok,
        }


def validate_dataset(ds: Dataset, cfg: EstimationConfig | None = None) -> ValidationReport:
    """Report monotonicity violations, per-cell side counts, constant columns.

    When a config is given, side counts are restricted to observations
    with positive kernel weight; otherwise the whole sample counts.
    """
    viol = np.where((np.diff(ds.x, axis=1) > 1e-12).any(axis=1))[0]

    if cfg is not None:
        w = weights_vector(cfg.kernel, cfg.bandwidth, ds.z)
        in_window = w > 0
    else:
        in_window = np.ones(ds.n, dtype=bool)
    right = in_window & (ds.z >= 0)
    left = in_window & (ds.z < 0)

    counts: dict[str, tuple[int, int]] = {}
    warnings: list[str] = []
    for l, label in enumerate(ds.cell_labels):
        mask = ds.cells == l
        n_left = int((mask & left).sum())
        n_right = int((mask & right).sum())
        counts[label] = (n_left, n_right)
        for side, n_side in (("left", n_left), ("right", n_right)):
            if n_side == 0:
                warnings.append(
                    f"cell {label!r} has no observations on the {side} side of the cutoff"
                    + (" within the bandwidth" if cfg is not None else "")
                )

    constant: list[str] = []
    if ds.n and np.ptp(ds.y) == 0:
        constant.append("y")
    if ds.n and np.ptp(ds.z) == 0:
        constant.append("z")
    for j in range(ds.d):
        if ds.n and np.ptp(ds.x[:, j]) == 0:
            constant.append(f"x{j + 1}")
    if ds.extra_controls is not None:
        for k in range(ds.extra_controls.shape[1]):
            if np.ptp(ds.extra_controls[:, k]) == 0:
                name = (
                    ds.extra_control_names[k]
                    if k < len(ds.extra_control_names)
                    else f"extra{k}"
                )
                constant.append(name)

    return ValidationReport(
        monotonicity_violations=tuple(int(i) for i in viol),
        cell_side_counts=counts,
        empty_side_warnings=tuple(warnings),
        constant_columns=tuple(constant),
    )
