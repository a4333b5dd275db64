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
at least t_{j+1}.  Rows are therefore non-increasing left to right, and
:class:`Dataset` refuses an x whose rows are not, or that holds another value.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import InitVar, asdict, dataclass, field
from functools import cached_property, partial
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import CellUnusableError, InputError, ParseError, SchemaError, SingularDesignError
from .kernels import KernelKind, window

__all__ = [
    "Dataset",
    "TableSchema",
    "ModelSpec",
    "EstimationConfig",
    "GroupBasis",
    "KernelWindow",
    "kernel_window",
    "group_rows",
    "unusable_groups",
    "CellEncoding",
    "ValidationReport",
    "load_table",
    "encode_treatment",
    "encode_cells",
    "validate_dataset",
]

MAX_CELL_LEVELS = 64  # per covariate, conditioning or treatment column; coarsen a longer one
DEFAULT_RCOND_THRESHOLD = 1e-10
_KEY_PRIME = np.uint64(0x100000001B3)  # the 64-bit FNV prime
SIDES = ("left", "right")  # side s of cell l is window group 2 * l + s (KernelWindow)


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


def _ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b where b > 0, else 0."""
    return np.divide(a, b, out=np.zeros_like(a), where=b > 0)


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
    named by ``extra_control_names`` there, each by :func:`_column`; ``y``,
    ``z``, ``cluster`` and the extra controls are checked so at
    construction, the others when a fit names them.  Covariates and R are
    coded by the same :func:`encode_cells`.  ``aux`` is read-only and its
    arrays are write-locked.  ``cells`` codes each row's cell as an index
    into ``cell_labels``; the first label is the reference cell.  ``x``
    is checked here, however it was made: an entry other than 0 or 1, NaN
    too, is an :class:`InputError`, and so are rows that increase from one
    margin to the next, the first ten named, counted from 1.
    ``running_column`` names the column :func:`load_table` read z from and
    ``covariate_names`` those it coded the cells from; None and () otherwise.
    """

    y: np.ndarray
    z: np.ndarray
    x: np.ndarray
    cells: np.ndarray
    cell_labels: tuple[str, ...]
    cluster: np.ndarray | None = None
    extra_control_names: tuple[str, ...] = ()
    aux: Mapping[str, np.ndarray] = field(default_factory=dict)
    running_column: str | None = None
    covariate_names: tuple[str, ...] = ()

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
        for names in ("extra_control_names", "covariate_names"):
            object.__setattr__(self, names, tuple(getattr(self, names)))

        n = len(y)
        for name, col in (("z", z), ("cells", cells)):
            if len(col) != n:
                raise InputError(f"column {name!r} has length {len(col)}, expected {n}")
        if x.shape[0] != n:
            raise InputError(f"treatment matrix has {x.shape[0]} rows, expected {n}")
        if not np.isin(x, (0.0, 1.0)).all():
            raise InputError("treatment indicator columns must contain only 0/1 values")
        bad = np.flatnonzero((x[:, 1:] > x[:, :-1]).any(axis=1))
        if bad.size:
            raise InputError(
                f"treatment indicators are not cumulative in rows {(bad + 1).tolist()[:10]}"
            )
        if self.cluster is not None and len(self.cluster) != n:
            raise InputError("cluster column length mismatch")
        # the dataset's own columns are named by their fields
        for role, name, col in (("running", "z", z), ("outcome", "y", y)):
            _column({name: col}, name, role, numeric=True)
        if self.cluster is not None:
            _column({"cluster": self.cluster}, "cluster", "cluster")
        q = len(self.cell_labels)
        if q and (cells.min(initial=0) < 0 or cells.max(initial=-1) >= q):
            raise InputError("cell index out of range of cell_labels")
        for name, col in aux.items():
            if col.shape[:1] != (n,):
                role = "extra control" if name in self.extra_control_names else "aux"
                raise InputError(f"{role} column {name!r} has shape {col.shape}, expected {n} rows")
        for name in self.extra_control_names:
            _column(aux, name, "extra control", numeric=True)

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


def _once(**fields: Sequence[str]) -> None:
    """Refuse a column named twice, in one of ``fields`` or in two: a :class:`SchemaError`
    naming the column and the field, or both fields."""
    seen: dict[str, str] = {}
    for field, names in fields.items():
        for name in names:
            if seen.get(name) == field:
                raise SchemaError(f"{field} names column {name!r} more than once")
            if name in seen:
                raise SchemaError(f"{seen[name]} and {field} both name column {name!r}")
            seen[name] = field


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
        if not math.isfinite(self.cutoff):
            raise SchemaError(f"cutoff must be a finite number, got {self.cutoff}")
        sep = self.delimiter  # numpy's reader splits fields at one character, never at these
        if not isinstance(sep, str) or len(sep) != 1 or sep in '"\r\n':
            raise SchemaError(f"delimiter must be one character, not a quote or newline: {sep!r}")
        _once(covariates=self.covariates, extra_controls=self.extra_controls,
              treatment_indicators=self.treatment_indicators, outcome=(self.outcome,),
              treatment=(self.treatment,) if has_single else ())
        # the running column may also code the cells, and a treatment of it fails its level cap
        _once(running=(self.running,), outcome=(self.outcome,), extra_controls=self.extra_controls,
              treatment_indicators=self.treatment_indicators)


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
        _once(wtilde_columns=self.wtilde_columns)


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
    None: the dataset's own ``cluster`` ids (``TableSchema.cluster``), and
    without them each observation its own cluster (:func:`_clusters`).

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
        if not 0 < self.bandwidth < math.inf:
            raise InputError(f"bandwidth must be a positive finite number, got {self.bandwidth}")


def _clusters(ds: Dataset, cluster_by: str | None) -> np.ndarray | None:
    """Each row's cluster id under ``cluster_by``, the one reading of a cluster name: None is
    ``ds.cluster``, and ``"running"`` is z, unless ``aux`` has a column ``running`` that is not
    ``ds.running_column``; then the name reads two ways and is an :class:`InputError`."""
    if cluster_by is None:
        return ds.cluster
    if cluster_by != "running":
        return _column(ds.aux, cluster_by, "cluster")
    if "running" not in ds.aux or ds.running_column == "running":
        return ds.z
    own = f"name its column, {ds.running_column!r}" if ds.running_column else "name its column"
    raise InputError(
        "cluster 'running' reads two ways: the running variable, or the table's column "
        "'running', which is not the running column; to cluster by the running variable, "
        f"{own}, and to cluster by that column, rename it"
    )


class GroupBasis:
    """Rows sorted by group, and every per-group sum over them: the one grouping of the rows.

    ``groups`` holds each row's group in [0, ``n``), ascending, and ``z``
    its running variable; row i of the basis B is e_g (x) (1, z_i) for its
    group g.  Group g's rows are contiguous, ``bounds[g]:bounds[g + 1]``,
    so :meth:`total` sums each group by pairwise summation, more accurately
    than an unordered accumulation, and :meth:`line` is the one weighted
    line fit within each group.  Its arrays are write-locked.
    """

    def __init__(self, groups: np.ndarray, z: np.ndarray, n: int):
        self.groups, self.z, self.n = _locked(groups), _locked(z), n
        g = self.groups
        if not (
            g.ndim == 1 and self.z.shape == g.shape and (g[1:] >= g[:-1]).all()
            and (not len(g) or 0 <= g[0] and g[-1] < n)
        ):
            raise InputError(f"a group basis needs sorted groups in [0, {n}) and z per row")
        self.bounds = np.searchsorted(g, np.arange(n + 1))
        # the groups that have rows, and the first row of each
        self.ids = np.flatnonzero(self.bounds[1:] > self.bounds[:-1])
        self.starts = self.bounds[self.ids]
        for a in (self.bounds, self.ids, self.starts):
            a.setflags(write=False)

    def total(self, v: np.ndarray, lo: int = 0) -> np.ndarray:
        """Each group's sum over the last axis of ``v``, rows lo, lo + 1, ...; 0 without rows."""
        if lo == 0 and v.shape[-1] == len(self.groups):  # every row: each group's own start
            starts, ids = self.starts, self.ids
        else:
            a, b = np.searchsorted(self.starts, (lo + 1, lo + v.shape[-1]))
            starts = np.concatenate([[0], self.starts[a:b] - lo])
            ids = np.concatenate([self.groups[lo : lo + 1], self.ids[a:b]])
        sums = np.add.reduceat(v, starts, axis=-1)
        if len(ids) == self.n:  # every group has rows here
            return sums
        out = np.zeros(v.shape[:-1] + (self.n,))
        out[..., ids] = sums
        return out

    @cached_property
    def extent(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows per group, and whether each has two distinct z, as a local-linear fit needs."""
        counts, usable = self.bounds[1:] - self.bounds[:-1], np.zeros(self.n, dtype=bool)
        least, most = (f.reduceat(self.z, self.starts) for f in (np.minimum, np.maximum))
        usable[self.ids] = least < most
        for a in (counts, usable):
            a.setflags(write=False)
        return counts, usable

    def moments(self, w: np.ndarray) -> tuple[np.ndarray, ...]:
        """Each group's S0 = sum w and z-bar = sum w z / S0 (0 without weight), each row's
        z - z-bar, each group's Szz = sum w (z - z-bar)^2, and each row's w (z - z-bar)."""
        s0 = self.total(w)
        zbar = _ratio(self.total(w * self.z), s0)
        zc = self.z - zbar[self.groups]
        wzc = w * zc
        return s0, zbar, zc, self.total(wzc * zc), wzc

    def line(self, v: np.ndarray, w: np.ndarray, moments) -> tuple[np.ndarray, ...]:
        """Each group's weighted mean and slope of ``v`` on (1, z - z-bar), orthogonal under
        ``w``, as ratios of its sums (0 without weight or spread in z), and each row's residual.
        ``moments`` are :meth:`moments` of ``w``, taken once for every column fitted."""
        s0, _, zc, szz, wzc = moments
        mean, slope = _ratio(self.total(w * v), s0), _ratio(self.total(wzc * v), szz)
        return mean, slope, v - mean[self.groups] - slope[self.groups] * zc


@dataclass(frozen=True, eq=False)
class KernelWindow:
    """The rows of ``dataset`` inside one kernel window, weighed once, in group order.

    ``rows`` are the weight-positive rows and ``weights`` their kernel
    weights.  A row's (cell, side) group is 2 * cell + (z >= 0), so side s
    of cell l is group 2 * l + s (``SIDES``); the rows are sorted by group,
    each group's ascending, and ``basis`` is their :class:`GroupBasis`, which
    holds every per-(cell, side) count, sum and moment.  Built by
    :func:`kernel_window`; its arrays are write-locked.
    """

    dataset: Dataset
    kernel: KernelKind
    bandwidth: float
    rows: np.ndarray
    weights: np.ndarray
    basis: GroupBasis

    def __post_init__(self):
        _lock_fields(self, "rows", "weights")


def kernel_window(ds: Dataset, cfg: EstimationConfig) -> KernelWindow:
    """The one evaluation of ``cfg``'s kernel over ``ds``: its window rows, sorted by group once.

    ``cell_table``, ``build_design`` and the CLI's series bins all read
    it, so a command that builds it once weighs and groups every row once.
    """
    rows, w = window(cfg.kernel, cfg.bandwidth, ds.z)
    z = ds.z[rows]
    basis, rows, w = group_rows(2 * ds.cells[rows] + (z >= 0), 2 * ds.q, z, rows, w)
    return KernelWindow(ds, cfg.kernel, cfg.bandwidth, rows, w, basis)


def group_rows(groups: np.ndarray, n: int, z: np.ndarray, *carried: np.ndarray) -> tuple:
    """The one sort of rows into groups: the :class:`GroupBasis` of rows in ``groups`` of [0, ``n``)
    at ``z``, stable-sorted by group (a radix sort, on the smallest type that holds n), then each
    of ``carried`` in its order.  Every array made here is locked, so its reader keeps it as is."""
    groups = groups.astype(np.min_scalar_type(n))
    order = np.argsort(groups, kind="stable")
    groups, z, *carried = (a[order] for a in (groups, z, *carried))
    for a in (groups, z, *carried):
        a.setflags(write=False)
    return (GroupBasis(groups, z, n), *carried)


def unusable_groups(basis: GroupBasis, labels: Sequence[str]) -> dict[int, str]:
    """Why each group g of ``basis`` without two distinct z cannot be fitted: the text of the
    :class:`CellUnusableError` of side g % 2 of cell ``labels[g // 2 % len(labels)]``."""
    counts, usable = basis.extent
    why = "needs at least 2 distinct running-variable values with positive weight, found {}"
    return {g: str(CellUnusableError(labels[g // 2 % len(labels)], SIDES[g % 2],
                                     why.format(min(counts[g], 1))))
            for g in np.flatnonzero(~usable).tolist()}


def _window_of(ds: Dataset, cfg: EstimationConfig, win: KernelWindow | None) -> KernelWindow:
    """``win``, checked to be the window of ``ds`` under ``cfg``; built here when None."""
    if win is None:
        return kernel_window(ds, cfg)
    if win.dataset is not ds or (win.kernel, win.bandwidth) != (cfg.kernel, cfg.bandwidth):
        raise InputError("the kernel window was built for another dataset, kernel or bandwidth")
    return win


def encode_treatment(t: np.ndarray, levels: Sequence[float]) -> np.ndarray:
    """Encode an ordered treatment column as cumulative crossing indicators.

    Row i gets x[i, j] = 1 iff t_i >= levels[j + 1]; the lowest level is
    the baseline and produces no column.
    """
    levels = [float(v) for v in levels]
    if not 2 <= len(levels) <= MAX_CELL_LEVELS:
        raise InputError(f"need 2 to {MAX_CELL_LEVELS} treatment levels, got {len(levels)}")
    if not all(map(math.isfinite, levels)):
        raise InputError(f"treatment levels must be finite numbers, got {levels}")
    if not all(a < b for a, b in zip(levels, levels[1:])):
        raise InputError(f"treatment levels must be strictly increasing, got {levels}")
    t = np.asarray(t, dtype=float)
    unknown = np.flatnonzero(~np.isin(t, levels))
    if unknown.size:
        value, row = _format_value(float(t[unknown[0]])), unknown[0] + 1
        raise InputError(
            f"treatment value {value} in row {row} is not among declared levels {levels}"
        )
    thresholds = np.asarray(levels[1:], dtype=float)
    return (t[:, None] >= thresholds[None, :]).astype(float)


@dataclass(frozen=True)
class CellEncoding:
    cells: np.ndarray
    labels: tuple[str, ...]


def encode_cells(
    columns: Sequence[np.ndarray], names: Sequence[str] = (), role: str = "covariate"
) -> CellEncoding:
    """Map discrete covariate combinations to cell indices: the one coder of a discrete column.

    Cells are indexed by the lexicographic order of their label, the
    values joined by ``|``; the smallest label, code 0, is the reference
    cell.  A column of more than ``MAX_CELL_LEVELS`` levels, and two
    combinations joined to one label, as ("x|y", "z") and ("x", "y|z")
    are, are an :class:`InputError`: every error names the columns' ``role``
    and a column by ``names``, or by its position.  The encoding depends
    only on the multiset of values, so shuffling rows permutes the cell
    index column identically.
    """
    columns = [np.asarray(c) for c in columns]
    if not columns:
        return CellEncoding(np.zeros(0, dtype=int), ())
    n, names = len(columns[0]), tuple(names) or tuple(range(len(columns)))
    codes, column_labels = [], []
    for k, col in enumerate(columns):
        if len(col) != n:
            raise InputError(f"{role} column {names[k]!r} has length {len(col)}, expected {n}")
        col_codes, col_labels = _levels(col)
        if len(col_labels) > MAX_CELL_LEVELS:
            raise InputError(
                f"{role} column {names[k]!r} has {len(col_labels)} levels "
                f"(> {MAX_CELL_LEVELS}); coarsen it before encoding"
            )
        codes.append(col_codes)
        column_labels.append(col_labels)
    # one integer per row for its combination of codes, renumbered after each
    # column to the combinations present, so no count outgrows cells x levels
    combo, size = codes[0], len(column_labels[0])  # one column's codes are already dense
    for col_codes, labs in zip(codes[1:], column_labels[1:]):
        combo = combo * len(labs) + col_codes
        seen = np.cumsum(np.bincount(combo, minlength=size * len(labs)) > 0)
        combo, size = seen[combo] - 1, int(seen.max(initial=0))
    first = np.empty(size, dtype=np.intp)
    first[combo] = np.arange(n)  # one row of each combination
    keys = ["|".join(labs[c[i]] for labs, c in zip(column_labels, codes)) for i in first.tolist()]
    labels, rank = np.unique(np.asarray(keys, dtype=str), return_inverse=True)
    if len(labels) < size:  # a "|" inside the values of two covariates
        shared = str(labels[np.bincount(rank).argmax()])
        raise InputError(
            f"two value combinations of the {role} columns {names} share the cell label "
            f"{shared!r}: a '|' in their values joins them"
        )
    return CellEncoding(rank[combo], tuple(labels.tolist()))


def _is_float(text) -> bool:
    """Whether numpy's text reader reads ``text`` as a float: ``float``'s grammar, less
    digit separators and non-ASCII digits."""
    try:
        float(text)
    except (TypeError, ValueError):
        return False
    return isinstance(text, str) and "_" not in text and text.strip().isascii()


def _missing(col: np.ndarray) -> np.ndarray:
    """Each row's lack of a value: NaN or inf in numbers, ``""`` in text, and None in objects."""
    if col.dtype.kind == "f":
        return ~np.isfinite(col)
    if col.dtype.kind == "O":
        return np.array([v is None or v == "" for v in col.tolist()], dtype=bool)
    return col == "" if col.dtype.kind == "U" else np.zeros(len(col), dtype=bool)


def _column(table: Mapping[str, np.ndarray], name: str, role: str, numeric=False) -> np.ndarray:
    """Column ``name`` of ``table`` for ``role``, with a value in every row: the one lookup.

    An absent name is a :class:`SchemaError` listing the table's columns.
    A ``numeric`` role, or a column parsed as numbers, needs a finite
    number in every row; any other column, no empty text and no None.
    Else it is a :class:`ParseError` naming the role, the column and the
    first bad data row, counted from 1.
    """
    col = table.get(name)
    if col is None:
        raise SchemaError(f"{role} column {name!r} not found (table has {list(table)})")
    if numeric and col.dtype.kind not in "biuf":
        values = col.tolist()
        i = next((i for i, raw in enumerate(values) if not _is_float(raw)), 0)
        what = "a missing value" if values[i] in ("", None) else f"non-numeric value {values[i]!r}"
        raise ParseError(f"{role} column {name!r} has {what} in row {i + 1}")
    bad = np.flatnonzero(_missing(col))
    if bad.size:
        what = f"non-finite value {col[bad[0]]}" if col.dtype.kind == "f" else "a missing value"
        raise ParseError(f"{role} column {name!r} has {what} in row {bad[0] + 1}")
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
    if len(sep) != 1:  # TableSchema has refused a quote and a line break
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


def _read_columns(path: Path, delimiter: str) -> dict[str, np.ndarray]:
    """Each column by its header name, parsed once by numpy's C text reader.

    A header that names a column twice is a :class:`SchemaError` before
    any row is read: a name reads one column.  Row 1 sniffs which columns
    are numeric.  One read takes them all, each text column sized to its
    widest field by :func:`_field_widths`, so it also checks every row's
    field count.  Columns are re-read only if it fails.  The scan runs
    only if row 1 holds text.  The text is read again, unsized, from a
    file the scan cannot split (a quote, a lone carriage return, an empty
    line, a row of another field count), from one whose row 1 is all
    numbers but a later row is not, and from one where a text value fills
    its sized field, which would mean the scan was wrong.
    """
    with path.open(encoding="utf-8") as fh:
        line = fh.readline()
    if not line.strip():
        raise InputError(f"data file {path} is empty or its first line is blank")
    options = dict(delimiter=delimiter, comments=None, quotechar='"', encoding="utf-8", ndmin=1)
    # max_rows bounds the row block numpy allocates for a str read: 50,000 rows by default
    header = [h.strip() for h in np.loadtxt([line], dtype=str, max_rows=1, **options).tolist()]
    for k, name in enumerate(header):  # aux holds one column a name
        if name in header[:k]:
            raise SchemaError(f"column {name!r} appears more than once in the header")
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
    return aux


def load_table(path: str | Path, schema: TableSchema) -> Dataset:
    """Read a delimited text file into a :class:`Dataset`.

    The file is UTF-8 with the header on line 1, ``"`` quotes and no
    comments; empty lines are skipped, and a row of blank fields or of
    the wrong field count is a :class:`ParseError` naming the row.  The
    file is parsed in one sized read; one holding a quote, a lone
    carriage return, an empty line or a row of the wrong field count, or
    whose row 1 is all numbers but a later row is not, has its text
    columns read a second time (:func:`_read_columns`).  A header that
    names a column twice is a :class:`SchemaError`, named by the schema or
    not.  ``Dataset.aux`` is the one parsed copy of the file: a column is
    numeric iff every value parses, and every model column is read from
    it.  Cell labels come from :func:`encode_cells`, so a numeric
    covariate is labelled by its value ("4.0" and "04" are both "4").
    The running variable is recentered by ``schema.cutoff`` so the
    threshold sits at zero.  Each column the schema names is looked up by
    :func:`_column` (the extra controls by :class:`Dataset`) and checked
    on every row: the outcome, running variable, treatment, indicators and
    extra controls must be finite numbers, and a covariate or the cluster
    column must hold a value (finite if numeric), so a missing value is a
    hard error naming the role, the column and the row; silently dropping
    rows would change the estimand.  Indicator columns are stacked as
    given, and :class:`Dataset` refuses them unless they are cumulative 0/1.
    """
    path = Path(path)
    try:
        aux = _read_columns(path, schema.delimiter)
    except OSError as err:
        raise InputError(f"data file {path} not found or unreadable: {err.strerror}") from None

    require = partial(_column, aux)
    y = require(schema.outcome, "outcome", numeric=True)
    z = require(schema.running, "running", numeric=True) - float(schema.cutoff)

    if schema.treatment is not None:
        t = require(schema.treatment, "treatment", numeric=True)
        levels = schema.treatment_levels
        if levels is None:
            # return_counts keeps np.unique off its masked-array check, which
            # imports numpy.ma: about 12 ms of every cold CLI run
            levels = np.unique(t, return_counts=True)[0].tolist()
        try:  # the levels' own errors, too, name the column
            x = encode_treatment(t, levels)
        except InputError as err:
            raise InputError(f"treatment column {schema.treatment!r}: {err}") from None
    else:
        names = schema.treatment_indicators
        x = np.column_stack([require(ind, "treatment indicator", numeric=True) for ind in names])

    # a missing value in a covariate would label a cell of its own
    cov_cols = [require(name, "covariate") for name in schema.covariates]
    enc = (
        encode_cells(cov_cols, schema.covariates)
        if cov_cols
        else CellEncoding(np.zeros(len(y), dtype=int), ("all",))
    )

    cluster = None if schema.cluster is None else require(schema.cluster, "cluster")

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
        running_column=schema.running,
        covariate_names=schema.covariates,
    )


@dataclass(frozen=True)
class ValidationReport:
    """Dataset-wide checks, for reporting; window rows per cell and side are ``cell_table``'s."""

    constant_columns: tuple[str, ...]

    def to_dict(self) -> dict:
        return asdict(self)


def validate_dataset(ds: Dataset) -> ValidationReport:
    """Report the constant columns: y, z, each indicator and each extra control."""
    named = [("y", ds.y), ("z", ds.z)] + [(f"x{j + 1}", col) for j, col in enumerate(ds.x.T)]
    named += [(name, ds.aux[name]) for name in ds.extra_control_names]
    return ValidationReport(tuple(name for name, col in named if ds.n and np.ptp(col) == 0))
