"""Weighted two-stage least squares around the cutoff.

The estimator regresses the outcome on the treatment indicators using
the cutoff indicator D and its interactions with the covariate dummies
as instruments, with controls C = (1, W', Z, D*Z, Z*W', D*Z*W') and
kernel weights.  Because C lets level and slope differ by cell and by
side, the fit is exactly a two-sided local-linear regression within
each covariate cell, packaged as a single 2SLS.

Model variants change only the endogenous block: the parametric variant
interacts the treatments with user-chosen transform columns, and the
conditional variant stacks per-stratum copies of the whole design so
the stacked fit coincides with running the estimator separately within
each stratum.  That design is block-diagonal by stratum, apart from the
shared extra controls and y.

Each fit passes over the rows inside the kernel window and writes no
n x k array.  C and Z span exactly the per-(cell, side) local-linear
basis, so every one of their columns is B T for the group basis B, row
i = e_g (x) (1, z_i) for the row's group g, and a fixed 0/1 matrix T;
two tables, :data:`_CONTROL_COLUMNS` and :data:`_INSTRUMENT_COLUMNS`,
declare T's columns and their labels.  The rows are in group order, and
B is their :class:`data_model.GroupBasis`, which owns every per-group
sum and moment: the kernel window's own, or, in the conditional design,
the window's rows regrouped by :func:`data_model.group_rows`.  :func:`build_design`
keeps it, a small dense block D = [extra controls | X | y] (X per
stratum in the conditional design), and the 0/1 matrix M that writes
A = [C | Z | X | y] = [B | D] M;
:class:`DesignMatrices` holds them.  A hand-built design has no B, holds
A itself as D and takes the identity as M, so every stage reads one
shape.  The Gram matrix of the weighted A is
M'[B'WB, B'WD; D'WB, D'WD]M, whose group blocks are the basis's group
sums of w, wz, wz^2, w*v and wz*v, and D'WD is one small product.  R,
without Q, is taken of it once by :func:`_r_of`: a Cholesky of A'A, or,
where a scaled pivot is too small for the normal equations, the R of
[B | D] from per-group closed forms and one Householder QR of D with
each group's line (:meth:`GroupBasis.line`, the fit ``cell_table`` reads)
partialled out, then a QR of that small R times M.  A (cell, side)
group without two distinct z makes two columns exactly dependent, and
:func:`data_model.unusable_groups` names it before anything is factored,
in the words ``cell_table`` drops the cell with.  Every stage reads that
one R, gated on its first read by R_EE's diagonal over R's column norms.
The second stage, y on [X_hat | C], is least squares on K = [R_EX | R_EC],
the regressors in the rows of E; K = Q_K R_K is factored once and gated the same way, and
(beta, eta) = R_K^-1 Q_K' R_Ey.  The first-stage residual sums of
squares are column norms of R below the rows of E and of C.  The
covariance and the J test share one pass that forms the residual u from
per-group coefficients and D, and the R_S of the cluster sums S of the
moment rows E*u: per-(cluster, group) sums of w*u and w*z*u and
per-cluster sums of w*u*v mapped by M, or, unclustered, R_S of E*u by
:func:`_r_of` under the weights (w*u)^2; the sandwich is B'B with
B = R_S R_EE^-1 Q_K R_K^-T, and J = |R_S^-T g|^2 is gated on R_S like E on R.
Every gate reads R's diagonal over its column norms, free of units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .data_model import Dataset, EstimationConfig, GroupBasis, KernelWindow, ModelSpec
from .data_model import _clusters, _column, _lock_fields, _locked, _once, _window_of
from .data_model import conditioning, encode_cells, group_rows, unusable_groups
from .errors import EstimationError, InputError, SingularDesignError
from .errors import UnderIdentifiedError

__all__ = [
    "DesignMatrices",
    "FitResult",
    "FirstStageReport",
    "build_design",
    "weighted_2sls",
    "cluster_covariance",
    "j_test",
    "first_stage_diagnostics",
    "estimate",
]


def _scaled_pivots(r: np.ndarray, k: int) -> np.ndarray:
    """|r_ii| over the norm of R's column i for the first ``k`` columns.

    Free of units (Q being orthonormal, the norm is the column's own), 0
    for a zero column, and fewer than k when R has fewer rows.
    """
    pivots = np.abs(np.diagonal(r[:, :k]))
    norms = np.linalg.norm(r[:, : len(pivots)], axis=0)
    return np.divide(pivots, norms, out=np.zeros_like(pivots), where=norms > 0)


def _exogenous_gate(pivots: np.ndarray, k: int) -> None:
    """The rank gate of the weighted exogenous block E on its ``k`` scaled pivots."""
    conditioning(pivots, f"exogenous block is rank deficient after weighting ({k} columns)", n=k)


# The smallest scaled pivot R is taken from A'A with: the normal equations lose
# about eps / pivot^2, so every column R feeds (beta, F, J) keeps about 1e-10.
GRAM_PIVOT_FLOOR = 1e-3
# Rows weighed at a time into the Gram matrix: a weighted block of a few columns stays small.
GRAM_ROWS = 1 << 14


def _cholesky_r(g: np.ndarray) -> np.ndarray | None:
    """R = L'D from the Gram matrix g = A'A, with D^-1 g D^-1 = LL' and D = sqrt(diag g).

    diag(L) are R's scaled pivots, free of the columns' units.  None when
    a column is zero, the Cholesky fails, or a pivot is below the floor.
    """
    norms = np.sqrt(np.diagonal(g))
    if not norms.all():
        return None
    try:
        low = np.linalg.cholesky(g / norms[:, None] / norms)
    except ValueError:  # numpy's LinAlgError: not positive definite in floating point
        return None
    if not (np.diagonal(low) >= GRAM_PIVOT_FLOOR).all():  # NaN included
        return None
    return low.T * norms


def _group_gram(omega, cols, basis) -> np.ndarray:
    """[B | D]' diag(omega) [B | D] from group sums, for D = cols' and the group basis B.

    B's columns 2g and 2g + 1 are group g's (1, z).  Its blocks are per-group
    sums of omega, omega*z, omega*z^2, omega*v and omega*z*v for each column
    v of D, and D'WD is a product; both are taken over blocks of
    ``GRAM_ROWS`` rows, so no weighted copy of D is held whole.  A basis of
    None is no B.
    """
    m, c = 2 * (basis.n if basis else 0), len(cols)
    h = np.zeros((m + c, m + c))
    sums = np.zeros((3 + 2 * c, m // 2))
    for lo in range(0, len(omega), GRAM_ROWS):
        part, w = cols[:, lo : lo + GRAM_ROWS], omega[lo : lo + GRAM_ROWS]
        block = np.empty((3 + c, len(w)))  # w, wz, wz^2, then w*v for each column v
        wd = np.multiply(part, w, out=block[3:])
        if c:
            h[m:, m:] += wd @ part.T
        if basis:
            z = basis.z[lo : lo + GRAM_ROWS]
            block[0] = w
            np.multiply(w, z, out=block[1])
            np.multiply(block[1], z, out=block[2])
            sums[: 3 + c] += basis.total(block, lo)
            if c:
                wd *= z
                sums[3 + c :] += basis.total(wd, lo)
    if basis:  # row 2g + j of B'W[B | D] is group g's sums with z^j
        b = np.arange(0, m, 2)
        h[b, b], h[b, b + 1], h[b + 1, b + 1] = sums[:3]
        h[b + 1, b] = sums[1]
        h[:m:2, m:], h[1:m:2, m:] = sums[3 : 3 + c].T, sums[3 + c :].T
        h[m:, :m] = h[:m, m:].T
    return h


def _partialled_r(omega, cols, basis) -> np.ndarray:
    """R of diag(sqrt(omega)) [B | D] from its rows, where A'A is too coarse.

    Each group's (1, z) has a closed-form QR: centred at the group's
    weighted mean z-bar, its orthonormal columns are sqrt(omega) / sqrt(S0)
    and sqrt(omega) (z - z-bar) / sqrt(Szz).  D's projections on them, the
    mean and slope of its :meth:`GroupBasis.line` times sqrt(S0) and
    sqrt(Szz), are R's rows above D's block, and one Householder QR of D's
    weighted residuals, n x c, is that block: no row of B is written.  A
    group without weight, or without spread in z, keeps zero rows.
    """
    m, c = 2 * (basis.n if basis else 0), len(cols)
    r, resid = np.zeros((m + c, m + c)), np.array(cols, dtype=float)
    if basis:
        s0, zbar, _, szz, _ = moments = basis.moments(omega)
        root0, root1, b = np.sqrt(s0), np.sqrt(szz), np.arange(0, m, 2)
        r[b, b], r[b, b + 1], r[b + 1, b + 1] = root0, root0 * zbar, root1
        for j in range(c):
            for _ in range(2):  # fitted twice, so the residual is orthogonal to rounding
                mean, slope, resid[j] = basis.line(resid[j], omega, moments)
                r[b, m + j] += root0 * mean
                r[b + 1, m + j] += root1 * slope
    top = np.linalg.qr((resid * np.sqrt(omega)).T, mode="r")
    r[m : m + len(top), m:] = top
    return r


def _r_of(omega, cols, basis, layout) -> np.ndarray:
    """R, without Q, of diag(sqrt(omega)) [B | D] M, where D = cols' and M = ``layout``.

    From the Gram matrix M'[B | D]'W[B | D]M (:func:`_group_gram`) when
    :func:`_cholesky_r` accepts it; else from the rows by
    :func:`_partialled_r`, then one QR of that R times M.  A basis of None
    is no B.
    """
    r = _cholesky_r(layout.T @ _group_gram(omega, cols, basis) @ layout)
    if r is None:
        r = np.linalg.qr(_partialled_r(omega, cols, basis) @ layout, mode="r")
    return r


@dataclass(frozen=True)
class DesignMatrices:
    """The weighted design of weight-positive rows, as structure; their clusters; its one R.

    The design A = [C | Z | X | y] is [B | D] M, never written: ``dense``
    is D, n x c and unweighted; the rows are in the group order of
    ``basis``, the :class:`GroupBasis` B, whose row i, e_g (x) (1, z_i),
    fills rows 2g and 2g + 1 of ``layout``, M, (2G + c) x (number of
    labels + 1).  The label tuples split A's columns.  A hand-built design
    leaves ``basis`` and ``layout`` None: no B, ``dense`` is A itself,
    unweighted, and M is set to the identity, so its width is checked like
    any other.  :func:`build_design` passes only the rows inside the
    kernel window; a design with no rows, or with a weight that is not
    > 0, is rejected.  Every array is write-locked.
    """

    dense: np.ndarray
    weights: np.ndarray
    endogenous_labels: tuple[str, ...]
    instrument_labels: tuple[str, ...]
    control_labels: tuple[str, ...]
    cluster: np.ndarray | None = None
    basis: GroupBasis | None = None
    layout: np.ndarray | None = None

    def __post_init__(self):
        _lock_fields(self, "dense", "weights", "cluster", "layout")
        n, width = len(self.weights), self.n_exogenous + self.k_endogenous + 1
        c = self.dense.shape[1] if self.dense.ndim == 2 else -1
        if self.layout is None:  # hand-built: D is A itself
            object.__setattr__(self, "layout", _locked(np.eye(max(c, 0))))
        layout, rows = self.layout.shape, n if self.basis is None else len(self.basis.z)
        if self.dense.shape != (n, c) or rows != n or layout != (2 * self.n_groups + c, width):
            raise InputError(
                f"dense block of shape {self.dense.shape}, layout of shape {layout} and {rows} "
                f"basis rows for {n} weights and {self.n_groups} groups: one row per weight, "
                "two layout rows per group, one column per label and y"
            )
        if not self.n:
            raise EstimationError("no weight-positive rows; widen the bandwidth")
        positive = self.weights > 0
        if not positive.all():
            i = int(np.argmin(positive))
            raise EstimationError(f"row {i} has weight {self.weights[i]}, not weight-positive")
        if self.cluster is not None and len(self.cluster) != self.n:
            raise InputError(f"cluster ids have length {len(self.cluster)}, expected {self.n}")

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def k_endogenous(self) -> int:
        return len(self.endogenous_labels)

    @property
    def n_instruments(self) -> int:
        return len(self.instrument_labels)

    @property
    def n_controls(self) -> int:
        return len(self.control_labels)

    @property
    def n_exogenous(self) -> int:
        return self.n_controls + self.n_instruments

    @property
    def n_groups(self) -> int:
        return 0 if self.basis is None else self.basis.n

    def columns(self, coef: np.ndarray) -> np.ndarray:
        """A coef, unweighted, without writing A: ``coef`` has one row per column of A.

        A vector gives one value per row of A; a matrix, one row per column of it.
        """
        mixed, m = self.layout @ coef, 2 * self.n_groups
        out = mixed[m:].T @ self.dense.T
        if mixed[:m].any():  # each row's group's constant and slope
            a0, a1 = (np.take(mixed[j:m:2].T, self.basis.groups, axis=-1) for j in (0, 1))
            out += a0 + a1 * self.basis.z
        return out

    @cached_property
    def r(self) -> np.ndarray:
        """R of the weighted A, without Q: the one factorization of the fit.

        It is :func:`_r_of` of the design's structure; the first read runs
        the rank gate of E on R's scaled pivots.
        """
        r = _r_of(self.weights, self.dense.T, self.basis, self.layout)
        _exogenous_gate(_scaled_pivots(r, self.n_exogenous), self.n_exogenous)
        return r

    @cached_property
    def second_stage(self) -> tuple[np.ndarray, np.ndarray]:
        """Q_K and R_K^-1 of K = [R_EX | R_EC], the second stage's regressors in R's rows.

        The regressors [X_hat | C] are Q_E K, so least squares on them is
        least squares on K, and both the 2SLS solve and the sandwich read
        this one factor.  The first read runs the second-stage rank gate:
        R_K's scaled pivots, the measure and threshold that gate E.
        """
        d, p, k = self.k_endogenous, self.n_controls, self.n_exogenous
        if d > self.n_instruments:
            raise UnderIdentifiedError(
                f"under-identified: {self.n_instruments} instruments < {d} endogenous columns"
            )
        r = self.r
        q_k, r_k = np.linalg.qr(np.column_stack([r[:k, k:-1], r[:k, :p]]))
        conditioning(_scaled_pivots(r_k, d + p), "second-stage design is numerically singular")
        return q_k, np.linalg.inv(r_k)


# One stratum's [C | Z], a column per entry in order: its label head, whether it has one
# column per cell dummy (cells 1..q-1) or one for all cells, the sides it loads (1 is the
# right, D = 1(z >= 0)), and whether it loads each group's constant (0) or its z (1).
_CONTROL_COLUMNS = (  # C = (1, W', z, D*z, z*W', D*z*W')
    ("const", False, (0, 1), 0), ("w:", True, (0, 1), 0), ("z", False, (0, 1), 1),
    ("d:z", False, (1,), 1), ("z:w:", True, (0, 1), 1), ("d:z:w:", True, (1,), 1),
)
_INSTRUMENT_COLUMNS = (("d", False, (1,), 0), ("d:w:", True, (1,), 0))  # Z = (D, D*W')


@lru_cache
def _stratum_columns(cell_labels: tuple[str, ...]) -> tuple[tuple[str, ...], int, np.ndarray]:
    """One stratum's [C | Z] labels, untagged, how many are C's, and T, 4q x 4q, locked.

    T holds their 0/1 loadings on the stratum's group basis, row 2g + j the
    constant (j = 0) or z (j = 1) of group g = 2 * cell + side.  Both come
    from :data:`_CONTROL_COLUMNS` and :data:`_INSTRUMENT_COLUMNS`, so a
    label cannot drift from its column.
    """
    q, labels = len(cell_labels), []
    t = np.zeros((q, 2, 2, 4 * q))  # cell, side, (1, z), column
    for columns in (_CONTROL_COLUMNS, _INSTRUMENT_COLUMNS):
        n_controls = len(labels)  # C's count, on the instruments' pass
        for head, per_cell, sides, j in columns:
            for cell in range(1, q) if per_cell else [slice(None)]:
                t[cell, sides, j, len(labels)] = 1
                labels.append(head + cell_labels[cell] if per_cell else head)
    t.setflags(write=False)
    return tuple(labels), n_controls, t.reshape(4 * q, 4 * q)


def _unusable(ds, tags, basis) -> list[str]:
    """A note for each (stratum,) cell and side without two distinct z, empty when none: its
    :func:`data_model.unusable_groups` reason, and its stratum.  Such a group's constant and z
    columns are exactly dependent, so the design is rank deficient before anything is factored."""
    q2, notes, strata = 2 * ds.q, [], {}
    for g, note in unusable_groups(basis, ds.cell_labels).items():
        if tags[0]:  # the conditional design names the stratum too
            strata[f"stratum {tags[g // q2]}"] = None
            note += f" (stratum {tags[g // q2]})"
        notes.append(note)
    return [f"rank deficient on its own: {', '.join(strata)}"] * bool(strata) + notes


def build_design(
    ds: Dataset, spec: ModelSpec, cfg: EstimationConfig, window: KernelWindow | None = None
) -> DesignMatrices:
    """The design of the rows inside the kernel window, as structure: no n x k array.

    ``window`` is the :class:`KernelWindow` of ``ds`` under ``cfg``, built
    here when None.  The controls and instruments of each stratum, and their
    labels, are :func:`_stratum_columns`: 0/1 loadings on the basis (1, z)
    of its (cell, side) groups, declared once in :data:`_CONTROL_COLUMNS`
    and :data:`_INSTRUMENT_COLUMNS`; the dense block holds the extra
    controls from their ``aux`` columns, the endogenous columns (each
    stratum's on its own rows, zero elsewhere) and y.  A homogeneous or
    parametric design is the one stratum of every row, and its rows and
    :class:`GroupBasis` are the window's own; the conditional design's
    groups are (stratum, cell, side), the window's rows regrouped by
    :func:`data_model.group_rows`.  The dummies and the strata keep the
    full sample's levels; :func:`data_model.encode_cells` codes both.  The conditioning
    column, the transform columns and ``cfg.cluster_by`` are looked up by
    :func:`data_model._column`, which checks every row of the table, inside
    the window or not, so a missing value is an input error naming the
    role, the column and the data row.  Raises when the endogenous block
    outruns the instruments, and when the weighted exogenous block is rank
    deficient: before any factor, naming each cell and side (and stratum)
    without two distinct z inside the bandwidth (the basis's extent); else,
    on R's scaled pivots, as collinear columns.
    """
    win = _window_of(ds, cfg, window)
    rows, w, basis, q2 = win.rows, win.weights, win.basis, 2 * ds.q
    tags, conditional = [""], spec.kind == "conditional"
    if conditional:  # the window's (cell, side) order, stable-sorted by stratum
        _once(covariates=ds.covariate_names, extra_controls=ds.extra_control_names,
              r_column=(spec.r_column,))
        r = _column(ds.aux, spec.r_column, "conditioning")  # a missing value is no stratum
        strata = encode_cells([r], (spec.r_column,), "conditioning")  # as covariates are coded
        tags = [f"{spec.r_column}={s}" for s in strata.labels]
        groups = strata.cells[rows] * q2 + basis.groups
        basis, rows, w = group_rows(groups, len(tags) * q2, basis.z, rows, w)
        stratum = basis.groups // q2

    cluster = _clusters(ds, cfg.cluster_by)
    if cluster is not None:
        cluster = cluster[rows]

    m = ds.m
    x_names = [f"x{j + 1}" for j in range(ds.d)]
    wtilde = spec.wtilde_columns if spec.kind == "parametric" else ()
    for name in wtilde:
        _column(ds.aux, name, "wtilde", numeric=True)
        x_names += [f"{name}:x{j + 1}" for j in range(ds.d)]
    if len(x_names) > m + 1:
        raise UnderIdentifiedError(
            f"under-identified: q=m+1={m + 1} < d(1+c)={len(x_names)}; "
            f"the transform allows at most c <= (m+1)/d - 1 = {(m + 1) / ds.d - 1:g} columns"
            if wtilde else f"under-identified: q=m+1={m + 1} < d={ds.d}"
        )

    heads, nc, t = _stratum_columns(tuple(ds.cell_labels))
    pre = [f"{tag}|" if tag else "" for tag in tags]  # no tag for the whole sample
    controls = [f + h for f in pre for h in heads[:nc]] + list(ds.extra_control_names)
    instruments = [f + h for f in pre for h in heads[nc:]]
    endogenous = [f"{x}|{tag}" if tag else x for tag in tags for x in x_names]
    e, p, k = len(ds.extra_control_names), len(controls), len(controls) + len(instruments)

    # D = [extra controls | X | y], column-major, written through its transpose
    dense = np.empty((len(rows), e + len(endogenous) + 1), order="F")
    cols = dense.T
    for i, name in enumerate(ds.extra_control_names):
        cols[i] = ds.aux[name][rows]
    x = cols[e:-1]
    for j in range(ds.d):
        x[j] = ds.x[rows, j]
    for i, name in enumerate(wtilde, 1):
        np.multiply(x[: ds.d], ds.aux[name][rows], out=x[i * ds.d : (i + 1) * ds.d])
    if conditional:  # each stratum's x on its own rows, zero elsewhere; stratum 0 last, in place
        for s in reversed(range(len(tags))):
            np.multiply(x[: ds.d], stratum == s, out=x[s * ds.d : (s + 1) * ds.d])
    cols[-1] = ds.y[rows]

    # M: each stratum's basis rows load its C_s and Z_s; D's rows load their own columns
    n_basis = 2 * len(tags) * q2
    layout = np.zeros((n_basis + len(cols), k + len(endogenous) + 1))
    eye = np.eye(len(tags))[:, None, :, None]  # block-diagonal by stratum
    layout[:n_basis, : p - e] = (eye * t[:, None, :nc]).reshape(n_basis, p - e)
    layout[:n_basis, p:k] = (eye * t[:, None, nc:]).reshape(n_basis, k - p)
    layout[n_basis : n_basis + e, p - e : p] = np.eye(e)
    layout[n_basis + e :, k:] = np.eye(len(cols) - e)

    for a in (dense, w, layout) + ((cluster,) if cluster is not None else ()):
        a.setflags(write=False)  # made here: the design keeps them without a copy
    dm = DesignMatrices(
        dense=dense,
        weights=w,
        endogenous_labels=tuple(endogenous),
        instrument_labels=tuple(instruments),
        control_labels=tuple(controls),
        cluster=cluster,
        basis=basis,
        layout=layout,
    )
    notes = _unusable(ds, tags, basis)
    try:
        if notes:
            _exogenous_gate(np.zeros(k), k)
        dm.r  # the first read of R runs the rank gate
    except SingularDesignError as err:
        notes = notes or ["the weighted columns are collinear"]
        raise SingularDesignError("; ".join([str(err), *notes])) from None
    return dm


@dataclass(frozen=True)
class FirstStageReport:
    labels: tuple[str, ...]
    f_stats: tuple[float, ...]
    flags: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "f_stats": [v if math.isfinite(v) else str(v) for v in self.f_stats],
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class FitResult:
    """Reported values of one fit; :func:`weighted_2sls` fills only the coefficients.

    Its arrays are write-locked copies, also in a copy made by ``replace``.
    """

    beta: np.ndarray
    eta: np.ndarray
    beta_labels: tuple[str, ...]
    eta_labels: tuple[str, ...]
    n_effective: int
    cov: np.ndarray | None = None
    j_stat: float | None = None
    j_dof: int | None = None
    j_pvalue: float | None = None
    first_stage: FirstStageReport | None = None

    def __post_init__(self):
        _lock_fields(self, "beta", "eta", "cov")

    @property
    def just_identified(self) -> bool:
        return self.j_dof == 0

    @property
    def se(self) -> np.ndarray | None:
        if self.cov is None:
            return None
        return np.sqrt(np.clip(np.diag(self.cov)[: len(self.beta)], 0.0, None))

    def to_dict(self) -> dict:
        out = {
            "beta": {lab: float(b) for lab, b in zip(self.beta_labels, self.beta)},
            "eta": {lab: float(e) for lab, e in zip(self.eta_labels, self.eta)},
            "n_effective": self.n_effective,
        }
        if self.cov is not None:
            se = self.se
            table = []
            for lab, est, s in zip(self.beta_labels, self.beta.tolist(), se.tolist()):
                t = est / s if s > 0 else float("inf") if est != 0 else 0.0
                p = math.erfc(abs(t) / math.sqrt(2.0)) if math.isfinite(t) else 0.0
                t = t if math.isfinite(t) else str(t)
                table.append({"name": lab, "estimate": est, "se": s, "t": t, "p": p})
            out["coefficients"] = table
            out["se"] = {lab: float(s) for lab, s in zip(self.beta_labels, se)}
            out["cov"] = self.cov.tolist()
        if self.j_stat is not None:
            out["j_stat"] = float(self.j_stat)
            out["j_dof"] = int(self.j_dof)
            out["j_pvalue"] = float(self.j_pvalue)
            out["just_identified"] = self.just_identified
        if self.first_stage is not None:
            out["first_stage"] = self.first_stage.to_dict()
        return out


def weighted_2sls(dm: DesignMatrices) -> FitResult:
    """Two-stage least squares with every row scaled by the root of its weight.

    The second stage, y on [X_hat | C] with X_hat = Q_E R_EX, is least
    squares of R_Ey on K = [R_EX | R_EC] in the rows of E:
    (beta, eta) = R_K^-1 Q_K' R_Ey from :attr:`DesignMatrices.second_stage`.
    """
    q_k, r_k_inv = dm.second_stage
    coef = r_k_inv @ (q_k.T @ dm.r[: dm.n_exogenous, -1])
    return FitResult(
        beta=coef[: dm.k_endogenous],
        eta=coef[dm.k_endogenous :],
        beta_labels=dm.endogenous_labels,
        eta_labels=dm.control_labels,
        n_effective=dm.n,
    )


def _moments(fit, dm) -> tuple[np.ndarray, int, np.ndarray, float]:
    """The moment sum g = 1'S, the number of clusters, the R of S, and |u|.

    S holds the cluster sums of the moment rows E*u, one row per cluster,
    or per row when unclustered, with R_S'R_S = S'S; u is the structural
    residual of the weighted rows (actual endogenous columns, not fitted),
    formed from the design's structure (:meth:`DesignMatrices.columns`).
    E = [B | D_E] M_E for the dense columns D_E that enter E.  Clustered,
    [B | D_E]'s cluster sums are per-(cluster, group) sums of w*u and
    w*z*u and per-cluster sums of w*u*v, and S, G x k, is them times M_E,
    for the cluster ids checked by :func:`data_model._column` and coded here.
    Unclustered, R_S is :func:`_r_of` [B | D_E] M_E under the weights
    (w*u)^2, as R is of A under w, and S is not written.
    :func:`cluster_covariance` and :func:`j_test` share this pass: it is
    kept on ``dm`` for the ``fit`` that made it.
    """
    cached = dm.__dict__.get("_moments")
    if cached is not None and cached[0] is fit:
        return cached[1]
    p, k, n_groups = dm.n_controls, dm.n_exogenous, dm.n_groups
    u = dm.columns(np.concatenate([-fit.eta, np.zeros(k - p), -fit.beta, [1.0]]))
    wu = dm.weights * u
    m, basis = 2 * n_groups, dm.basis
    keep = np.concatenate([np.ones(m, dtype=bool), dm.layout[m:, :k].any(axis=1)])
    cols, loads = dm.dense.T[keep[m:]], dm.layout[keep, :k]  # [B | D_E] and M_E

    if dm.cluster is None:
        n_clusters = dm.n
        sums = basis.total(np.vstack([wu, wu * basis.z])).ravel(order="F") if basis else []
        g = np.concatenate([sums, cols @ wu]) @ loads
        r_s = _r_of(wu * wu, cols, basis, loads)
    else:  # S: each cluster's sums of the moment rows, by group and by dense column
        ids = _column({"cluster": dm.cluster}, "cluster", "cluster")
        codes = np.unique(ids, return_inverse=True)[1]
        n_clusters = int(codes.max()) + 1
        s = np.empty((n_clusters, m + len(cols)))
        for j, v in enumerate(cols):
            s[:, m + j] = np.bincount(codes, weights=wu * v, minlength=n_clusters)
        if n_groups:
            key = codes * n_groups + basis.groups
            for j, v in enumerate((wu, wu * basis.z)):
                s[:, j:m:2] = np.bincount(
                    key, weights=v, minlength=n_clusters * n_groups
                ).reshape(n_clusters, n_groups)
        s = s @ loads
        g, r_s = s.sum(axis=0), _r_of(np.ones(n_clusters), s.T, None, np.eye(k))
    out = g, n_clusters, r_s, math.sqrt(wu @ u)
    dm.__dict__["_moments"] = (fit, out)
    return out


def cluster_covariance(fit: FitResult, dm: DesignMatrices) -> np.ndarray:
    """Cluster-robust sandwich covariance with the CR1 small-sample factor.

    A is the cross-product of the instrumented regressors, B sums outer
    products of within-cluster score sums, and the result is scaled by
    G/(G-1) * (n-1)/(n-k).  With one observation per cluster this is the
    usual heteroskedasticity-robust sandwich up to that factor.

    The regressors [X_hat | C] are Q_E K with K = [R_EX | R_EC].  With
    K = Q_K R_K, the factor :func:`weighted_2sls` solved with, they are
    E H R_K for H = R_EE^-1 Q_K, so the score sums are S H R_K^-T for
    the moment sums S, and with S'S = R_S'R_S the sandwich is B'B for
    B = R_S H R_K^-T: no normal matrix is formed or inverted.
    """
    _, n_groups, r_s, _ = _moments(fit, dm)
    n, k = dm.n, dm.n_exogenous
    if n_groups < 2:
        raise EstimationError(
            f"need at least 2 clusters among weight-positive rows, found {n_groups}"
        )
    q_k, r_k_inv = dm.second_stage
    b = r_s @ np.linalg.solve(dm.r[:k, :k], q_k) @ r_k_inv.T
    correction = (n_groups / (n_groups - 1)) * ((n - 1) / max(n - len(r_k_inv), 1))
    return correction * (b.T @ b)


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(chi2(dof) > x) for a positive integer ``dof``.

    Closed form of the regularized upper incomplete gamma Q(dof/2, x/2):
    a Poisson tail for even dof, erfc plus a half-integer series for odd
    dof.  The series is summed in log space around its largest term, so
    it does not underflow while the tail itself is representable.
    """
    if x <= 0:
        return 1.0
    half = 0.5 * x
    log_half = math.log(half)
    if dof % 2 == 0:
        head = 0.0
        logs = [i * log_half - math.lgamma(i + 1) for i in range(dof // 2)]
    else:
        head = math.erfc(math.sqrt(half))
        logs = [(i - 0.5) * log_half - math.lgamma(i + 0.5) for i in range(1, dof // 2 + 1)]
    if not logs:
        return head
    top = max(logs)
    return head + math.exp(top - half) * math.fsum(math.exp(v - top) for v in logs)


def j_test(fit: FitResult, dm: DesignMatrices) -> tuple[float, int, float]:
    """Over-identification test from the weighted 2SLS residuals.

    The moment vector g = 1'S sums the cluster sums S of the weighted
    residual cross-products with the exogenous row, and J = g'(S'S)^-1 g
    = |R_S^-T g|^2.  R_S first passes E's rank gate, on its scaled
    pivots.  Degrees of freedom are instruments minus endogenous columns;
    a just-identified fit reports J = 0 with p-value 1 by convention.
    """
    dof = dm.n_instruments - len(fit.beta)
    if dof == 0:
        return 0.0, 0, 1.0

    # an exact fit satisfies every moment condition; the quadratic form is a
    # 0/0 limit there, and its value is zero, not roundoff noise
    g, n_clusters, r_s, resid_norm = _moments(fit, dm)
    if resid_norm <= 1e-10 * np.linalg.norm(dm.r[:, -1]):  # the norm of the weighted y
        return 0.0, dof, 1.0

    k = dm.n_exogenous
    what = f"moment covariance is singular ({n_clusters} clusters, {k} moment conditions)"
    conditioning(_scaled_pivots(r_s, k), what, n=k)
    v = np.linalg.solve(r_s.T, g)
    j_stat = float(v @ v)
    return j_stat, dof, chi2_sf(j_stat, dof)


def first_stage_diagnostics(dm: DesignMatrices) -> FirstStageReport:
    """Partial F of the excluded instruments per endogenous column.

    Both residual sums of squares are column norms of R: below the rows of
    E for the unrestricted fit, below the rows of C for the restricted one.
    """
    r, p, k = dm.r, dm.n_controls, dm.n_exogenous
    rss_u = np.sum(r[k:, k:-1] ** 2, axis=0)
    rss_r = np.sum(r[p:, k:-1] ** 2, axis=0)
    # the endogenous columns, unweighted
    constant = np.ptp(dm.columns(np.eye(k + dm.k_endogenous + 1, dm.k_endogenous, -k)), axis=1) == 0
    df_denom = max(dm.n - k, 1)

    f_stats, flags = [], []
    for j in range(dm.k_endogenous):
        if constant[j]:
            f, flag = 0.0, "constant"
        elif rss_u[j] <= 0:
            f, flag = float("inf"), "exact fit"
        else:
            f = max(float(((rss_r[j] - rss_u[j]) / dm.n_instruments) / (rss_u[j] / df_denom)), 0.0)
            flag = "exact fit" if f > 1e6 else ""
        f_stats.append(f)
        flags.append(flag)
    return FirstStageReport(
        labels=dm.endogenous_labels, f_stats=tuple(f_stats), flags=tuple(flags)
    )


def estimate(
    ds: Dataset, spec: ModelSpec, cfg: EstimationConfig, window: KernelWindow | None = None
) -> FitResult:
    """Full pass: design, 2SLS, cluster covariance, J test, first stages.

    ``window`` is the :class:`KernelWindow` of ``ds`` under ``cfg``; built here when None.
    """
    dm = build_design(ds, spec, cfg, window)
    fit = weighted_2sls(dm)
    cov = cluster_covariance(fit, dm)
    j_stat, j_dof, j_pvalue = j_test(fit, dm)
    first_stage = first_stage_diagnostics(dm)
    return replace(
        fit, cov=cov, j_stat=j_stat, j_dof=j_dof, j_pvalue=j_pvalue, first_stage=first_stage
    )
