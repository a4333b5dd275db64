"""Dataset representation, ingestion, and encoding.

A :class:`Dataset` stores the outcome, the recentered running variable,
the cumulative treatment-indicator matrix, covariate-cell assignments
with their dummy encoding, and optional cluster keys and extra exogenous
controls.  Datasets are immutable after construction (all arrays are
write-locked and ``aux`` is a read-only mapping), so they are safe to
share across worker threads.

Treatment is encoded as ordered crossing indicators: with levels
t_0 < t_1 < ... < t_d, column j holds 1 when the observed treatment is
at least t_{j+1}.  Rows are therefore non-increasing left to right; a
violation means the input indicators were not cumulative.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import InitVar, dataclass, field
from functools import partial
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError, ParseError, SchemaError
from .kernels import KernelKind, window

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


def _levels(col: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """Codes of a discrete column's sorted distinct values, and each value formatted once."""
    values, codes = np.unique(col, return_inverse=True)
    return codes, tuple(_format_value(v) for v in values.tolist())


@dataclass(frozen=True)
class Dataset:
    """Immutable columnar dataset, running variable already recentered.

    ``aux`` maps every input column's name to its one parsed copy: float
    when every value of the column parses as a number, its stripped text
    otherwise.  Model variants look up the conditioning column R, the
    parametric transform columns and cluster columns there; discrete
    labels of covariates and of R come from the same :func:`_levels`.
    ``aux`` is read-only and its arrays are write-locked.
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
            if not np.isfinite(ec).all():
                raise InputError("extra controls contain missing or non-finite values")
        aux = MappingProxyType({name: _locked(col) for name, col in self.aux.items()})
        object.__setattr__(self, "aux", aux)

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
        if not np.isfinite(z).all():
            raise InputError("running variable contains missing or non-finite values")
        if not np.isfinite(y).all():
            raise InputError("outcome contains missing or non-finite values")
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
        return CellEncoding(np.zeros(0, dtype=int), 0, (), np.zeros((0, 0)))
    n = len(columns[0])
    codes, column_labels = [], []
    for k, col in enumerate(columns):
        if len(col) != n:
            raise InputError(f"covariate column {k} has length {len(col)}, expected {n}")
        col_codes, col_labels = _levels(col)
        if len(col_labels) > max_levels:
            raise InputError(
                f"covariate column {k} has {len(col_labels)} levels (> {max_levels}); "
                "coarsen it before encoding"
            )
        codes.append(col_codes)
        column_labels.append(col_labels)
    # one integer per row for its combination of codes; a row-wise unique is ~30x slower
    key = np.ravel_multi_index(codes, [len(labs) for labs in column_labels])
    _, first, combo_of_row = np.unique(key, return_index=True, return_inverse=True)
    keys = ["|".join(labs[c[i]] for labs, c in zip(column_labels, codes)) for i in first.tolist()]
    labels, rank = np.unique(np.asarray(keys, dtype=str), return_inverse=True)
    cells = rank[combo_of_row]
    dummies = (cells[:, None] == np.arange(1, len(labels))).astype(float)
    return CellEncoding(cells, len(labels), tuple(labels.tolist()), dummies)


def _is_float(text: str) -> bool:
    """Whether numpy's text reader reads ``text`` as a float: ``float``'s grammar, less
    digit separators and non-ASCII digits."""
    try:
        float(text)
    except ValueError:
        return False
    return "_" not in text and text.strip().isascii()


def _numeric(col: np.ndarray, name: str) -> np.ndarray:
    """A column the model needs as finite numbers; the error names the first bad row."""
    if col.dtype.kind != "f":
        i, raw = next((i, raw) for i, raw in enumerate(col.tolist(), 1) if not _is_float(raw))
        what = "a missing value" if raw == "" else f"non-numeric value {raw!r}"
        raise ParseError(f"column {name!r} has {what} in row {i}")
    bad = np.flatnonzero(~np.isfinite(col))
    if bad.size:
        raise ParseError(f"column {name!r} has non-finite value {col[bad[0]]} in row {bad[0] + 1}")
    return col


def _read_columns(path: Path, delimiter: str) -> tuple[list[str], dict[str, np.ndarray]]:
    """The header, and each column parsed once by numpy's C text reader.

    Row 1 sniffs which columns are numeric.  One read takes them all, a
    text column as a placeholder, so it checks every row's field count;
    one more reads the text.  Columns are re-read only if the first fails.
    """
    with path.open(encoding="utf-8") as fh:
        line = fh.readline()
    if not line.strip():
        raise InputError(f"data file {path} is empty or its first line is blank")
    options = dict(delimiter=delimiter, comments=None, quotechar='"', encoding="utf-8", ndmin=1)
    # max_rows bounds the row block numpy allocates for a str read: 50,000 rows by default
    header = [h.strip() for h in np.loadtxt([line], dtype=str, max_rows=1, **options).tolist()]
    read = partial(np.loadtxt, path, skiprows=1, **options)

    def typed(numeric: list[bool]) -> np.ndarray:
        return read(dtype=[(f"c{k}", float if num else "U1") for k, num in enumerate(numeric)])

    def parses(k: int) -> bool:
        try:
            read(dtype=float, usecols=[k])
        except ValueError:
            return False
        return True

    with warnings.catch_warnings():
        # empty lines are skipped by rule, and the rows read are counted here
        warnings.filterwarnings("ignore", r"(Input line \d+|loadtxt: input) contained no data")
        first = read(dtype=str, max_rows=1).tolist()
        if not first:
            raise InputError(f"data file {path} has a header but no data rows")
        # one entry per header field, so a row 1 of another length fails the typed read too
        numeric = [k < len(first) and _is_float(first[k]) for k in range(len(header))]
        try:
            table = typed(numeric)
        except ValueError:
            numeric = [num and parses(k) for k, num in enumerate(numeric)]
            try:
                table = typed(numeric)
            except ValueError as err:  # then a row's field count differs from the header's
                found = re.search(r"(\d+) columns but (\d+) were found at row (\d+)", str(err))
                if found is None:
                    raise ParseError(str(err)) from None
                m, k, row = found.groups()
                raise ParseError(f"row {row} has {k} fields, header has {m}") from None
        text = [k for k, num in enumerate(numeric) if not num]
        texts = read(dtype=str, usecols=text, ndmin=2) if text else None
    # stripped one column at a time, so each is contiguous
    stripped = {k: np.char.strip(texts[:, j]) for j, k in enumerate(text)}
    aux = {name: table[f"c{k}"] if numeric[k] else stripped[k] for k, name in enumerate(header)}
    return header, aux


def load_table(path: str | Path, schema: TableSchema) -> Dataset:
    """Read a delimited text file into a :class:`Dataset`.

    The file is UTF-8 with the header on line 1, ``"`` quotes and no
    comments; empty lines are skipped, and a row of blank fields or of
    the wrong field count is a :class:`ParseError` naming the row.
    ``Dataset.aux`` is the one parsed copy of the file: a column is
    numeric iff every value parses, and every model column is read from
    it.  Cell labels come from ``_levels``, so a numeric covariate is
    labelled by its value ("4.0" and "04" are both "4").  The running
    variable is recentered by ``schema.cutoff`` so the threshold sits at
    zero.  Missing and non-finite values are a hard error: silently
    dropping rows would change the estimand.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"data file not found: {path}")
    header, aux = _read_columns(path, schema.delimiter)

    def require(name: str, role: str) -> np.ndarray:
        if name not in aux:
            raise SchemaError(f"{role} column {name!r} not found (file has {header})")
        if header.count(name) > 1:
            raise SchemaError(f"{role} column {name!r} appears more than once in the header")
        return aux[name]

    y = _numeric(require(schema.outcome, "outcome"), schema.outcome)
    z = _numeric(require(schema.running, "running"), schema.running) - float(schema.cutoff)

    if schema.treatment is not None:
        t = _numeric(require(schema.treatment, "treatment"), schema.treatment)
        levels = schema.treatment_levels
        if levels is None:
            # return_counts keeps np.unique off its masked-array check, which
            # imports numpy.ma: about 12 ms of every cold CLI run
            levels = np.unique(t, return_counts=True)[0].tolist()
        if len(levels) < 2:
            raise InputError(
                f"treatment column {schema.treatment!r} has fewer than two distinct levels"
            )
        x = encode_treatment(t, levels)
    else:
        names = schema.treatment_indicators
        x = np.column_stack([_numeric(require(ind, "treatment indicator"), ind) for ind in names])
        if not np.isin(x, (0.0, 1.0)).all():
            raise InputError("treatment indicator columns must contain only 0/1 values")
        bad = np.where((np.diff(x, axis=1) > 0).any(axis=1))[0]
        if bad.size:
            raise InputError(
                f"treatment indicators are not cumulative in rows {(bad + 1).tolist()[:10]}"
            )

    cov_cols = []
    for name in schema.covariates:
        col = require(name, "covariate")
        if col.dtype.kind == "U" and (col == "").any():
            i = int(np.flatnonzero(col == "")[0])
            raise ParseError(f"covariate {name!r} has a missing value in row {i + 1}")
        cov_cols.append(col)
    enc = (
        encode_cells(cov_cols, max_levels=schema.max_cell_levels)
        if cov_cols
        else CellEncoding(np.zeros(len(y), dtype=int), 1, ("all",), np.zeros((len(y), 0)))
    )

    cluster = None if schema.cluster is None else require(schema.cluster, "cluster")

    extras = None
    if schema.extra_controls:
        extras = np.column_stack(
            [_numeric(require(name, "extra control"), name) for name in schema.extra_controls]
        )

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

    cells, z = ds.cells, ds.z
    if cfg is not None:
        rows, _ = window(cfg.kernel, cfg.bandwidth, ds.z)
        cells, z = cells[rows], z[rows]
    lefts = np.bincount(cells[z < 0], minlength=ds.q)
    rights = np.bincount(cells[z >= 0], minlength=ds.q)

    counts = dict(zip(ds.cell_labels, zip(lefts.tolist(), rights.tolist())))
    where = " within the bandwidth" if cfg is not None else ""
    empty = [
        f"cell {label!r} has no observations on the {side} side of the cutoff{where}"
        for label, pair in counts.items()
        for side, n_side in zip(("left", "right"), pair)
        if n_side == 0
    ]

    named = [("y", ds.y), ("z", ds.z)] + [(f"x{j + 1}", col) for j, col in enumerate(ds.x.T)]
    if ds.extra_controls is not None:
        names = ds.extra_control_names
        named += [
            (names[k] if k < len(names) else f"extra{k}", col)
            for k, col in enumerate(ds.extra_controls.T)
        ]
    constant = [name for name, col in named if ds.n and np.ptp(col) == 0]

    return ValidationReport(
        monotonicity_violations=tuple(int(i) for i in viol),
        cell_side_counts=counts,
        empty_side_warnings=tuple(empty),
        constant_columns=tuple(constant),
    )
