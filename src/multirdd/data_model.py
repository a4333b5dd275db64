"""Dataset representation, ingestion, and encoding.

A :class:`Dataset` stores the outcome, the recentered running variable,
the cumulative treatment-indicator matrix, one covariate-cell code per
row, optional cluster keys, and every input column once in ``aux``.
Each datum has one copy: the estimator builds cell dummies from the
codes for the rows it fits, and extra exogenous controls are named
columns of ``aux``.  Datasets are immutable after construction (all
arrays are write-locked and ``aux`` is a read-only mapping), so they
are safe to share across threads.

Treatment is encoded as ordered crossing indicators: with levels
t_0 < t_1 < ... < t_d, column j holds 1 when the observed treatment is
at least t_{j+1}.  Rows are therefore non-increasing left to right; a
violation means the input indicators were not cumulative.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import InitVar, asdict, dataclass, field
from functools import partial
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError, ParseError, SchemaError, SingularDesignError
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

MAX_CELL_LEVELS = 64  # per covariate column; more levels must be coarsened first
DEFAULT_RCOND_THRESHOLD = 1e-10
_KEY_PRIME = np.uint64(0x100000001B3)  # the 64-bit FNV prime


def _locked(a: np.ndarray) -> np.ndarray:
    """``a`` itself if it is a write-locked array that owns its data, else a write-locked copy.

    A writeable array, or a view whose base may be writeable, is copied, so
    its caller cannot change what it was given.
    """
    if not isinstance(a, np.ndarray) or a.flags.writeable or not a.flags.owndata:
        a = np.array(a)
        a.setflags(write=False)
    return a


def _lock_fields(result, *names: str) -> None:
    """Lock the named array fields of a frozen ``result``: a tuple's each entry; None stays."""
    for name in names:
        value = getattr(result, name)
        if isinstance(value, tuple):
            value = tuple(_locked(a) for a in value)
        elif value is not None:
            value = _locked(value)
        object.__setattr__(result, name, value)


def _format_value(v) -> str:
    """Stable string form for covariate values; integral floats print as ints."""
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return str(v)


def _row_keys(col: np.ndarray) -> np.ndarray:
    """One unsigned 64-bit key per row from its value's fixed-width bytes.

    Equal bytes give equal keys.  A value of up to 8 bytes is its own key;
    a wider one, such as text of more than two characters, is folded word
    by word, so two distinct values may share a key.
    """
    unit = math.gcd(col.dtype.itemsize, 8)
    words = np.ascontiguousarray(col).view(f"u{unit}").reshape(len(col), -1)
    key = words[:, 0].astype(np.uint64)
    for j in range(1, words.shape[1]):
        key *= _KEY_PRIME  # wraps modulo 2**64
        key += words[:, j]
    return key


def _levels(col: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """Codes of a discrete column's sorted distinct values, and each value formatted once.

    The codes and values are ``np.unique``'s.  Rows are grouped by
    :func:`_row_keys`, an integer sort in place of a sort of n strings,
    and only one value per group is sorted by value; that also merges
    values of other bytes but equal value, such as -0.0 and 0.0.  If a
    row differs from its level's value (two values shared a key, or a
    NaN), or the column holds objects, ``np.unique`` sorts the column.
    """
    col = np.asarray(col)
    codes = None
    if col.dtype.kind in "biufSU" and col.size and col.dtype.itemsize:
        keys, group = np.unique(_row_keys(col), return_inverse=True)
        first = np.empty(len(keys), dtype=np.intp)
        first[group] = np.arange(len(col))  # one row of each group
        values, rank = np.unique(col[first], return_inverse=True)
        codes = rank[group]
        if not np.array_equal(values[codes], col):
            codes = None
    if codes is None:
        values, codes = np.unique(col, return_inverse=True)
    return codes, tuple(_format_value(v) for v in values.tolist())


@dataclass(frozen=True)
class Dataset:
    """Immutable columnar dataset, running variable already recentered.

    ``aux`` maps every input column's name to its one parsed copy: float
    when every value of the column parses as a number, its stripped text
    otherwise.  Model variants look up the conditioning column R, the
    parametric transform columns, cluster columns and the extra controls
    named by ``extra_control_names`` there; discrete labels of
    covariates and of R come from the same :func:`_levels`.  ``aux`` is
    read-only and its arrays are write-locked.  ``cells`` codes each
    row's cell as an index into ``cell_labels``; the first label is the
    reference cell.
    """

    y: np.ndarray
    z: np.ndarray
    x: np.ndarray
    cells: np.ndarray
    cell_labels: tuple[str, ...]
    cluster: np.ndarray | None = None
    extra_control_names: tuple[str, ...] = ()
    aux: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        y = _locked(np.asarray(self.y, dtype=float))
        z = _locked(np.asarray(self.z, dtype=float))
        x = _locked(np.atleast_2d(np.asarray(self.x, dtype=float)))
        cells = _locked(np.asarray(self.cells, dtype=int))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "cells", cells)
        if self.cluster is not None:
            object.__setattr__(self, "cluster", _locked(np.asarray(self.cluster)))
        aux = MappingProxyType({name: _locked(col) for name, col in self.aux.items()})
        object.__setattr__(self, "aux", aux)
        object.__setattr__(self, "extra_control_names", tuple(self.extra_control_names))

        n = len(y)
        for name, col in (("z", z), ("cells", cells)):
            if len(col) != n:
                raise InputError(f"column {name!r} has length {len(col)}, expected {n}")
        if x.shape[0] != n:
            raise InputError(f"treatment matrix has {x.shape[0]} rows, expected {n}")
        if self.cluster is not None and len(self.cluster) != n:
            raise InputError("cluster column length mismatch")
        if not np.isfinite(z).all():
            raise InputError("running variable contains missing or non-finite values")
        if not np.isfinite(y).all():
            raise InputError("outcome contains missing or non-finite values")
        q = len(self.cell_labels)
        if q and (cells.min(initial=0) < 0 or cells.max(initial=-1) >= q):
            raise InputError("cell index out of range of cell_labels")
        for name in self.extra_control_names:
            col = aux.get(name)
            if col is None:
                raise InputError(f"extra control column {name!r} not found in aux")
            if col.dtype.kind not in "biuf" or len(col) != n:
                raise InputError(
                    f"extra control column {name!r} is not a numeric column of {n} rows"
                )
            if not np.isfinite(col).all():
                raise InputError(f"extra control column {name!r} has missing or non-finite values")
        for name, col in aux.items():
            if col.shape[:1] != (n,):
                raise InputError(f"aux column {name!r} has shape {col.shape}, expected {n} rows")

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
        """Number of cell dummies: every cell but the reference one."""
        return max(self.q - 1, 0)


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
        object.__setattr__(self, "wtilde_columns", tuple(self.wtilde_columns))


def conditioning(sizes, what: str | None = None, n: int | None = None) -> float:
    """min/max of nonnegative ``sizes``, the conditioning ratio of every stage.

    It is 0 when fewer than ``n`` sizes are given or none is positive.
    Given ``what``, it is a gate: below :data:`DEFAULT_RCOND_THRESHOLD`
    it raises a :class:`SingularDesignError` on ``what``.
    """
    top = sizes.max(initial=0.0)
    rcond = max(sizes.min(), 0.0) / top if top > 0 and n in (None, len(sizes)) else 0.0
    if what is not None and rcond < DEFAULT_RCOND_THRESHOLD:
        raise SingularDesignError(f"{what} (rcond {rcond:.3e} < {DEFAULT_RCOND_THRESHOLD:.1e})")
    return rcond


@dataclass(frozen=True)
class EstimationConfig:
    """Kernel, bandwidth and clustering.

    ``cluster_by`` is a column of ``Dataset.aux``, the string
    ``"running"`` (cluster by the values of the running variable), or
    None (each observation its own cluster).

    The cutoff belongs to :class:`TableSchema`, which recenters the
    running variable at load; the ``cutoff`` keyword here is accepted for
    older callers but is not stored, and it warns.
    """

    bandwidth: float
    kernel: KernelKind = KernelKind.UNIFORM
    cutoff: InitVar[float | None] = None
    cluster_by: str | None = None

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
    labels: tuple[str, ...]


def encode_cells(columns: Sequence[np.ndarray]) -> CellEncoding:
    """Map discrete covariate combinations to cell indices.

    Cells are indexed by the lexicographic order of their label; the
    smallest label, code 0, is the reference cell.  The
    encoding depends only on the multiset of values, so shuffling rows
    permutes the cell index column identically.
    """
    columns = [np.asarray(c) for c in columns]
    if not columns:
        return CellEncoding(np.zeros(0, dtype=int), ())
    n = len(columns[0])
    codes, column_labels = [], []
    for k, col in enumerate(columns):
        if len(col) != n:
            raise InputError(f"covariate column {k} has length {len(col)}, expected {n}")
        col_codes, col_labels = _levels(col)
        if len(col_labels) > MAX_CELL_LEVELS:
            raise InputError(
                f"covariate column {k} has {len(col_labels)} levels (> {MAX_CELL_LEVELS}); "
                "coarsen it before encoding"
            )
        codes.append(col_codes)
        column_labels.append(col_labels)
    # one integer per row for its combination of codes, renumbered after each
    # column to the combinations present, so no count outgrows cells x levels
    combo, size = np.zeros(n, dtype=np.intp), 1
    for col_codes, labs in zip(codes, column_labels):
        combo = combo * len(labs) + col_codes
        seen = np.cumsum(np.bincount(combo, minlength=size * len(labs)) > 0)
        combo, size = seen[combo] - 1, int(seen.max(initial=0))
    first = np.empty(size, dtype=np.intp)
    first[combo] = np.arange(n)  # one row of each combination
    keys = ["|".join(labs[c[i]] for labs, c in zip(column_labels, codes)) for i in first.tolist()]
    labels, rank = np.unique(np.asarray(keys, dtype=str), return_inverse=True)
    return CellEncoding(rank[combo], tuple(labels.tolist()))


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


def _field_widths(path: Path, delimiter: str, m: int) -> np.ndarray | None:
    """Each of the ``m`` columns' widest data field in bytes, from one scan of the file.

    A UTF-8 byte count bounds a field's length in characters from above.
    None when the bytes may not split as numpy's reader splits them: the
    delimiter is not one ASCII byte, the file holds a quote or a carriage
    return not followed by a newline (numpy ends a line there), or a line
    is empty or has another field count than the header.
    """
    sep = delimiter.encode()
    if len(sep) != 1 or sep in b'\r\n"':
        return None
    buf = np.fromfile(path, dtype=np.uint8)
    if buf[-1] != ord("\n"):  # numpy reads the last line alike with or without a newline
        buf = np.append(buf, np.uint8(ord("\n")))
    if (buf == ord('"')).any() or (buf[np.flatnonzero(buf == ord("\r")) + 1] != ord("\n")).any():
        return None
    field_end = buf == sep[0]
    field_end |= buf == ord("\n")
    ends = np.flatnonzero(field_end)
    del field_end  # from here on only the bytes and the positions are held
    line_end = buf[ends] == ord("\n")
    rows = np.count_nonzero(line_end)
    if ends.size != rows * m or not line_end[m - 1 :: m].all():
        return None
    ends = ends.reshape(rows, m)
    # the header row is not data; a row's first field starts after the last row's end
    starts = [ends[:-1, -1]] + [ends[1:, k] for k in range(m - 1)]
    return np.array([(ends[1:, k] - starts[k] - 1).max(initial=0) for k in range(m)])


def _read_columns(path: Path, delimiter: str) -> tuple[list[str], dict[str, np.ndarray]]:
    """The header, and each column parsed once by numpy's C text reader.

    Row 1 sniffs which columns are numeric.  One read takes them all, each
    text column sized to its widest field by :func:`_field_widths`, so it
    also checks every row's field count.  Columns are re-read only if it
    fails.  The scan runs only if row 1 holds text.  The text is read
    again, unsized, from a file the scan cannot split (a quote, a lone
    carriage return, an empty line, a row of another field count), from
    one whose row 1 is all numbers but a later row is not, and from one
    where a text value fills its sized field, which would mean the scan
    was wrong.
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
        return read(dtype=[(f"c{k}", float if num else sizes[k]) for k, num in enumerate(numeric)])

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
        # an all-numeric file has no text to size; a column the retry turns to text reads again
        widths = None if all(numeric) else _field_widths(path, delimiter, len(header))
        # one character over the widest field, so a value that fills its field shows a wrong scan
        sizes = ["U1"] * len(header) if widths is None else [f"U{w + 1}" for w in widths]
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
        columns = {k: table[f"c{k}"] for k in text}
        # a value fills its field when its last character is not NUL: one strided read a column
        fields = table.dtype.fields
        cut = widths is None or any(
            table.getfield(np.uint32, fields[f"c{k}"][1] + 4 * widths[k]).any() for k in text
        )
        if text and cut:  # the numbers do not depend on the text sizes: only the text is read again
            texts = read(dtype=str, usecols=text, ndmin=2)
            columns = {k: texts[:, j] for j, k in enumerate(text)}
    aux = {}
    for k, name in enumerate(header):
        # each column made contiguous once, text stripped, and locked: Dataset keeps it as is
        col = table[f"c{k}"].copy() if numeric[k] else np.char.strip(columns[k])
        col.setflags(write=False)
        aux[name] = col
    return header, aux


def load_table(path: str | Path, schema: TableSchema) -> Dataset:
    """Read a delimited text file into a :class:`Dataset`.

    The file is UTF-8 with the header on line 1, ``"`` quotes and no
    comments; empty lines are skipped, and a row of blank fields or of
    the wrong field count is a :class:`ParseError` naming the row.  The
    file is parsed in one sized read; one holding a quote, a lone
    carriage return, an empty line or a row of the wrong field count, or
    whose row 1 is all numbers but a later row is not, has its text
    columns read a second time (:func:`_read_columns`).
    ``Dataset.aux`` is the one parsed copy of the file: a column is
    numeric iff every value parses, and every model column is read from
    it.  Cell labels come from ``_levels``, so a numeric covariate is
    labelled by its value ("4.0" and "04" are both "4").  The running
    variable is recentered by ``schema.cutoff`` so the threshold sits at
    zero.  Missing and non-finite values are a hard error: silently
    dropping rows would change the estimand.
    """
    path = Path(path)
    try:
        header, aux = _read_columns(path, schema.delimiter)
    except OSError as err:
        raise InputError(f"data file {path} not found or unreadable: {err.strerror}") from None

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
        if col.dtype.kind == "f":
            _numeric(col, name)  # a NaN or an inf would label a cell of its own
        elif (col == "").any():
            i = int(np.flatnonzero(col == "")[0])
            raise ParseError(f"covariate {name!r} has a missing value in row {i + 1}")
        cov_cols.append(col)
    enc = (
        encode_cells(cov_cols)
        if cov_cols
        else CellEncoding(np.zeros(len(y), dtype=int), ("all",))
    )

    cluster = None if schema.cluster is None else require(schema.cluster, "cluster")
    for name in schema.extra_controls:  # checked here, so the error names the row
        _numeric(require(name, "extra control"), name)

    for made in (z, x, enc.cells):  # made here and locked, so Dataset keeps them as they are
        made.setflags(write=False)
    return Dataset(
        y=y,
        z=z,
        x=x,
        cells=enc.cells,
        cell_labels=enc.labels,
        cluster=cluster,
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
        return {**asdict(self), "ok": self.ok}


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
    named += [(name, ds.aux[name]) for name in ds.extra_control_names]
    constant = [name for name, col in named if ds.n and np.ptp(col) == 0]

    return ValidationReport(
        monotonicity_violations=tuple(int(i) for i in viol),
        cell_side_counts=counts,
        empty_side_warnings=tuple(empty),
        constant_columns=tuple(constant),
    )
