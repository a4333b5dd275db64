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

Each fit passes over the rows inside the kernel window once.
:func:`build_design` writes the weighted augmented block [C | Z | X | y]
= [E | X | y] once, on those rows only, into the one array that
:class:`DesignMatrices` holds: the cell dummies W from the dataset's cell
codes, the extra controls from the ``aux`` columns it names.  R, without
Q, is taken of it once by :func:`_r_factor`: a Cholesky of its Gram
matrix A'A, or a Householder QR of the rows where a scaled pivot is too
small for the normal equations; the conditional design is written
stratum by stratum, each stratum's columns on its own rows and zero
elsewhere.  Every stage reads that one R, gated on its first read by
R_EE's diagonal over R's column norms.  The second stage, y on
[X_hat | C], is least squares on K = [R_EX | R_EC], the regressors in the
rows of E; K = Q_K R_K is factored once and gated the same way, and
(beta, eta) = R_K^-1 Q_K' R_Ey.  The first-stage residual sums of
squares are column norms of R below the rows of E and of C.  The
covariance and the J test share one pass that forms the cluster sums S
of the moment rows E*u, each column summed over its own rows, and takes
R_S of S with the same :func:`_r_factor`; the sandwich is B'B with
B = R_S R_EE^-1 Q_K R_K^-T, and J = |R_S^-T g|^2 is gated on R_S like E on R.
Every gate reads R's diagonal over its column norms, free of units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data_model import DEFAULT_RCOND_THRESHOLD, SIDES, Dataset, EstimationConfig, ModelSpec
from .data_model import _column, _levels, _lock_fields, _window_groups, conditioning
from .errors import EstimationError, InputError, SingularDesignError, UnderIdentifiedError
from .kernels import window

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


def _deficient(block: np.ndarray) -> bool:
    """Whether the columns of ``block`` fail the rank gate on their own."""
    k = block.shape[1]
    pivots = _scaled_pivots(np.linalg.qr(block, mode="r"), k)
    return conditioning(pivots, n=k) < DEFAULT_RCOND_THRESHOLD


# The smallest scaled pivot R is taken from A'A with: the normal equations lose
# about eps / pivot^2, so every column R feeds (beta, F, J) keeps about 1e-10.
GRAM_PIVOT_FLOOR = 1e-3


def _gram_r(a: np.ndarray) -> np.ndarray | None:
    """R = L'D of ``a`` from D^-1 A'A D^-1 = LL', D = sqrt(diag A'A): no copy of the rows.

    diag(L) are R's scaled pivots, free of the columns' units.  None when
    a column is zero, the Cholesky fails, or a pivot is below the floor.
    """
    g = a.T @ a
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


def _r_factor(a: np.ndarray) -> np.ndarray:
    """R of ``a``, without Q: from A'A (:func:`_gram_r`), or one ``qr`` where that returns None."""
    r = _gram_r(a)
    return np.linalg.qr(a, mode="r") if r is None else r


@dataclass(frozen=True)
class DesignMatrices:
    """The weighted design of weight-positive rows, their clusters and its one R.

    ``augmented`` is [C | Z | X | y] with every row scaled by the root of
    its weight, column-major for LAPACK; the label tuples split its
    columns.  :func:`build_design` passes only the rows inside the kernel
    window; a design with no rows, or with a weight that is not > 0, is
    rejected.  ``column_rows`` holds one row slice per exogenous column,
    outside which that column is zero; empty means every row.  The
    conditional design gives each stratum's columns its own rows.
    """

    augmented: np.ndarray
    weights: np.ndarray
    endogenous_labels: tuple[str, ...]
    instrument_labels: tuple[str, ...]
    control_labels: tuple[str, ...]
    cluster: np.ndarray | None = None
    column_rows: tuple[slice, ...] = ()

    def __post_init__(self):
        shape = (len(self.weights), self.n_exogenous + self.k_endogenous + 1)
        if np.ndim(self.augmented) != 2 or self.augmented.shape != shape:
            raise InputError(
                f"augmented has shape {np.shape(self.augmented)}, expected {shape}: "
                "one row per weight, one column per label and y"
            )
        if not self.n:
            raise EstimationError("no weight-positive rows; widen the bandwidth")
        positive = np.asarray(self.weights) > 0
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

    @cached_property
    def r(self) -> np.ndarray:
        """R of :attr:`augmented`, without Q: the one factorization of the fit.

        It is :func:`_r_factor` of :attr:`augmented`; the first read runs
        the rank gate of E on R's scaled pivots.
        """
        r, k = _r_factor(self.augmented), self.n_exogenous
        what = f"exogenous block is rank deficient after weighting ({k} columns)"
        conditioning(_scaled_pivots(r, k), what, n=k)
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

    @cached_property
    def cluster_codes(self) -> np.ndarray | None:
        """Validated :attr:`cluster` as integer codes 0..G-1; None for one row per cluster."""
        if self.cluster is None:
            return None
        ids = _column({"cluster": np.asarray(self.cluster)}, "cluster", "cluster")
        return np.unique(ids, return_inverse=True)[1]


def _write_cells(controls, instruments, z, cells):
    """Write a stratum's C_s and Z_s on its rows, one row of the design per column.

    C_s = (1, W', z, D*z, z*W', D*z*W') and Z_s = (D, D*W') for the cell
    dummies W of cells 1..q-1; every column is written in place.
    """
    q = len(instruments)
    w = controls[1:q]
    controls[0] = 1.0
    np.equal(cells, np.arange(1, q)[:, None], out=w)
    controls[q] = z
    np.greater_equal(z, 0, out=instruments[0])
    np.multiply(instruments[0], z, out=controls[q + 1])
    np.multiply(controls[q], w, out=controls[q + 2 : 2 * q + 1])
    np.multiply(controls[q + 1], w, out=controls[2 * q + 1 :])
    np.multiply(instruments[0], w, out=instruments[1:])


def _labels(tag, dummies, x_names):
    """A stratum's control, instrument and endogenous labels; no tag for the whole sample."""
    pre, post = (f"{tag}|", f"|{tag}") if tag else ("", "")

    def per_cell(head):
        return [f"{pre}{head}{lab}" for lab in dummies]

    controls = [f"{pre}const", *per_cell("w:"), f"{pre}z", f"{pre}d:z"]
    controls += per_cell("z:w:") + per_cell("d:z:w:")
    return controls, [f"{pre}d", *per_cell("d:w:")], [f"{x}{post}" for x in x_names]


def build_design(ds: Dataset, spec: ModelSpec, cfg: EstimationConfig) -> DesignMatrices:
    """Write the weighted design of the rows inside the kernel window, once.

    One array holds [C | Z | X | y], one row per column: every column is
    written into its row on the window rows only, the cell dummies from
    the cell codes and the extra controls from their ``aux`` columns, and
    the array is then weighted in place; its transpose is
    :attr:`DesignMatrices.augmented`.  The dummies and the strata of R keep
    the levels of the full sample, so a cell or a stratum without rows in
    the window leaves a zero column.  The design is written stratum by
    stratum: the conditional design sorts the window rows by stratum once
    and writes each stratum's [C_s | Z_s | X_s] on its own rows, zero
    elsewhere, and :attr:`DesignMatrices.column_rows` says which rows
    each exogenous column lives on; any other design is the one stratum
    of every row.  The conditioning column, the transform columns and
    ``cfg.cluster_by`` are looked up by :func:`data_model._column`, which
    checks every row of the table, inside the window or not, so a missing
    value is an input error naming the role, the column and the data row.
    Raises when the endogenous block outruns the
    instruments or when the weighted exogenous block is rank deficient
    (for instance because a covariate cell is empty inside the
    bandwidth); for a stratum whose own columns are, the error names it.
    """
    rows, w = window(cfg.kernel, cfg.bandwidth, ds.z)
    m = ds.m
    tags, parts = [""], [slice(0, len(rows))]
    conditional = spec.kind == "conditional"
    if conditional:
        # a missing value would be a stratum of its own
        r_codes, strata = _levels(_column(ds.aux, spec.r_column, "conditioning"))
        order = sorted(range(len(strata)), key=strata.__getitem__)  # strata in label order
        tags = [f"{spec.r_column}={strata[j]}" for j in order]
        rank = np.empty(len(strata), dtype=np.min_scalar_type(len(strata)))
        rank[order] = np.arange(len(strata))
        stratum = rank[r_codes[rows]]
        # the window rows sorted by stratum, once; a radix sort on codes this small
        sort = np.argsort(stratum, kind="stable")
        rows, w = rows[sort], w[sort]
        ends = np.cumsum(np.bincount(stratum, minlength=len(strata))).tolist()
        parts = [slice(lo, hi) for lo, hi in zip([0] + ends[:-1], ends)]

    cluster = ds.cluster
    if cfg.cluster_by == "running":
        cluster = ds.z
    elif cfg.cluster_by is not None:
        cluster = _column(ds.aux, cfg.cluster_by, "cluster")
    if cluster is not None:
        cluster = cluster[rows]

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

    dummies = ds.cell_labels[1:] if ds.q > 1 else ()
    labels = [_labels(tag, dummies, x_names) for tag in tags]
    controls, instruments, endogenous = ([lab for s in labels for lab in s[i]] for i in range(3))
    controls += ds.extra_control_names
    nc, nz, nx = (len(lab) for lab in labels[0])
    p, k = len(controls), len(controls) + len(instruments)
    extra = len(tags) * nc  # the row of the first extra control
    design = np.zeros((k + len(endogenous) + 1, len(rows)))
    z, cells = ds.z[rows], ds.cells[rows]
    column_rows = [slice(None)] * k
    for s, part in enumerate(parts):
        c0, z0, x0 = s * nc, p + s * nz, k + s * nx
        column_rows[c0 : c0 + nc] = [part] * nc
        column_rows[z0 : z0 + nz] = [part] * nz
        _write_cells(design[c0 : c0 + nc, part], design[z0 : z0 + nz, part], z[part], cells[part])
        x = design[x0 : x0 + nx, part]
        x[: ds.d] = ds.x[rows[part]].T
        for i, name in enumerate(wtilde, 1):
            np.multiply(x[: ds.d], ds.aux[name][rows[part]], out=x[i * ds.d : (i + 1) * ds.d])
    for i, name in enumerate(ds.extra_control_names, extra):
        design[i] = ds.aux[name][rows]
    design[-1] = ds.y[rows]
    design *= np.sqrt(w)
    design.setflags(write=False)  # locked in place: R and the second stage are cached from it
    dm = DesignMatrices(
        augmented=design.T,
        weights=w,
        endogenous_labels=tuple(endogenous),
        instrument_labels=tuple(instruments),
        control_labels=tuple(controls),
        cluster=cluster,
        column_rows=tuple(column_rows) if conditional else (),
    )
    try:
        dm.r  # the first read of R runs the rank gate
    except SingularDesignError as err:
        notes, own = [str(err)], []
        for s, (tag, part) in enumerate(zip(tags, parts) if conditional else ()):
            c0, z0 = s * nc, p + s * nz  # the stratum's C_s and Z_s, and the extra controls
            if _deficient(design[np.r_[c0 : c0 + nc, extra:p, z0 : z0 + nz], part].T):
                own.append(f"stratum {tag}")
        if own:
            notes.append(f"rank deficient on its own: {', '.join(own)}")
        empty = np.flatnonzero(np.bincount(_window_groups(ds, cfg)[2], minlength=2 * ds.q) == 0)
        notes += [
            f"cell {ds.cell_labels[g // 2]!r} has no observations on the {SIDES[g % 2]} side "
            "of the cutoff within the bandwidth" for g in empty.tolist()
        ] or ["the weighted columns are collinear"]
        raise SingularDesignError("; ".join(notes)) from None
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


def _moments(fit, dm) -> tuple[np.ndarray, np.ndarray, float]:
    """Cluster sums S of the moment rows E*u, the R of S, and |u|.

    u is the structural residual of the weighted rows (actual endogenous
    columns, not fitted).  S has one row per cluster, or per row when
    unclustered, and R_S'R_S = S'S.  :func:`cluster_covariance` and
    :func:`j_test` share this pass: it is kept on ``dm`` for the ``fit``
    that made it.
    """
    cached = dm.__dict__.get("_moments")
    if cached is not None and cached[0] is fit:
        return cached[1]
    codes = dm.cluster_codes
    p, k = dm.n_controls, dm.n_exogenous
    coef = np.concatenate([-fit.eta, np.zeros(k - p), -fit.beta, [1.0]])
    a = dm.augmented
    u = a @ coef
    if codes is None:
        summed = a[:, :k] * u[:, None]  # E * u
    else:
        # a column is zero off its rows, so only they are summed
        n_groups = int(codes.max()) + 1
        sums = [
            np.bincount(codes[rows], weights=a[rows, j] * u[rows], minlength=n_groups)
            for j, rows in enumerate(dm.column_rows or [slice(None)] * k)
        ]
        summed = np.stack(sums, axis=1)
    out = summed, _r_factor(summed), float(np.linalg.norm(u))
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
    summed, r_s, _ = _moments(fit, dm)
    n, n_groups, k = dm.n, len(summed), dm.n_exogenous
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
    summed, r_s, resid_norm = _moments(fit, dm)
    if resid_norm <= 1e-10 * np.linalg.norm(dm.r[:, -1]):  # the norm of the weighted y
        return 0.0, dof, 1.0

    k = dm.n_exogenous
    what = f"moment covariance is singular ({len(summed)} clusters, {k} moment conditions)"
    conditioning(_scaled_pivots(r_s, k), what, n=k)
    v = np.linalg.solve(r_s.T, summed.sum(axis=0))
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
    # unweighted, a constant c reads (c * s) / s, within 2 eps of c: constant to 4 eps
    x = dm.augmented[:, k:-1] / np.sqrt(dm.weights)[:, None]
    constant = np.ptp(x, axis=0) <= 4 * np.finfo(float).eps * np.abs(x).max(axis=0)
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


def estimate(ds: Dataset, spec: ModelSpec, cfg: EstimationConfig) -> FitResult:
    """Full pass: design, 2SLS, cluster covariance, J test, first stages."""
    dm = build_design(ds, spec, cfg)
    fit = weighted_2sls(dm)
    cov = cluster_covariance(fit, dm)
    j_stat, j_dof, j_pvalue = j_test(fit, dm)
    first_stage = first_stage_diagnostics(dm)
    return replace(
        fit, cov=cov, j_stat=j_stat, j_dof=j_dof, j_pvalue=j_pvalue, first_stage=first_stage
    )
