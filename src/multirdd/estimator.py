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
each stratum.

Each fit passes over the rows inside the kernel window once.
:func:`build_design` builds every block on those rows only, and
:class:`DesignMatrices` weights them and takes R, without Q, of the
augmented block [C | Z | X | y] = [E | X | y] once.  Every stage reads
that R: the rank gate reads R_EE's diagonal; beta solves the small
system R_ZX beta = R_Zy (Frisch-Waugh-Lovell) and eta the block R_CC;
the first-stage residual sums of squares are column norms of R below
the rows of E and of C; the covariance and the J test share one pass
that forms the moment rows E*u and their cluster sums, and the fitted
regressors enter only through R_EE^-1 applied to small blocks of R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data_model import Dataset, EstimationConfig, ModelSpec, _levels, validate_dataset
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


@dataclass(frozen=True)
class DesignMatrices:
    """Unweighted design blocks; the cached properties own the weight-positive rows.

    :func:`build_design` passes only the rows inside the kernel window.  A
    hand-built design may carry zero-weight rows too: every stage reads
    the weight-positive rows only, through :attr:`rows`.
    """

    y: np.ndarray
    endogenous: np.ndarray
    instruments: np.ndarray
    controls: np.ndarray
    weights: np.ndarray
    endogenous_labels: tuple[str, ...]
    instrument_labels: tuple[str, ...]
    control_labels: tuple[str, ...]
    cluster: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def k_endogenous(self) -> int:
        return self.endogenous.shape[1]

    @property
    def n_instruments(self) -> int:
        return self.instruments.shape[1]

    @property
    def n_controls(self) -> int:
        return self.controls.shape[1]

    @property
    def n_exogenous(self) -> int:
        return self.n_controls + self.n_instruments

    @cached_property
    def rows(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0)

    @property
    def n_effective(self) -> int:
        return len(self.rows)

    def positive(self, a: np.ndarray) -> np.ndarray:
        """The weight-positive rows of ``a``; ``a`` itself when every row has weight."""
        return a if self.n_effective == self.n else a[self.rows]

    @cached_property
    def augmented(self) -> np.ndarray:
        """The weighted ``[controls | instruments | endogenous | y]``, column-major for LAPACK."""
        blocks = [self.controls.T, self.instruments.T, self.endogenous.T, self.y]
        block = self.positive(np.vstack(blocks, dtype=float).T)
        block *= np.sqrt(self.positive(self.weights))[:, None]
        return block

    @cached_property
    def r(self) -> np.ndarray:
        """R of :attr:`augmented`, without Q: the one factorization of the fit."""
        return np.linalg.qr(self.augmented, mode="r")

    @cached_property
    def cluster_codes(self) -> np.ndarray | None:
        """Codes of :attr:`cluster` on the weight-positive rows; None for one row per cluster."""
        return None if self.cluster is None else _cluster_codes(self, self.cluster)


def _cluster_codes(dm: DesignMatrices, cluster_ids) -> np.ndarray:
    """Validated cluster ids of the weight-positive rows as integer codes 0..G-1."""
    cluster_ids = np.asarray(cluster_ids)
    if len(cluster_ids) != dm.n:
        raise InputError(f"cluster ids have length {len(cluster_ids)}, expected {dm.n}")
    ids = dm.positive(cluster_ids)
    if ids.dtype.kind in "OU":
        bad = [i for i, v in enumerate(ids.tolist()) if v is None or v == ""]
        if bad:
            raise InputError(f"cluster id missing for weight-positive row {bad[0]}")
    elif np.issubdtype(ids.dtype, np.floating) and np.isnan(ids.astype(float)).any():
        raise InputError("cluster ids contain NaN for weight-positive rows")
    return np.unique(ids, return_inverse=True)[1]


def _rcond_gate(pivots: np.ndarray, n_columns: int, rcond_threshold: float, what: str) -> None:
    """Raise unless each column has a pivot and min/max of the pivots reaches the threshold."""
    top = pivots.max(initial=0.0)
    rcond = pivots.min() / top if top > 0 and len(pivots) == n_columns else 0.0
    if rcond < rcond_threshold:
        raise SingularDesignError(f"{what} (rcond {rcond:.3e} < {rcond_threshold:.1e})")


def _check_rank(dm: DesignMatrices, rcond_threshold: float) -> None:
    """The rank gate of E, read off the diagonal of R_EE."""
    if dm.n_effective == 0:
        raise EstimationError("no weight-positive rows; widen the bandwidth")
    k = dm.n_exogenous
    what = f"exogenous block is rank deficient after weighting ({k} columns)"
    # R has fewer than k rows when there are fewer weight-positive rows than columns
    _rcond_gate(np.abs(np.diagonal(dm.r[:, :k])), k, rcond_threshold, what)


def _homogeneous_blocks(const, w_rows, z, d_ind, labels, prefix=""):
    """Instruments and controls as lists of rows of their transposes.

    ``w_rows`` holds one cell dummy per row; ``const`` is the intercept
    column, ones or a stratum's indicator.
    """
    dz = d_ind * z
    instr = [d_ind, d_ind * w_rows]
    controls = [const, w_rows, z, dz, z * w_rows, dz * w_rows]

    def per_cell(head):
        return [f"{prefix}{head}{lab}" for lab in labels]

    instr_labels = [f"{prefix}d"] + per_cell("d:w:")
    control_labels = [f"{prefix}const"] + per_cell("w:") + [f"{prefix}z", f"{prefix}d:z"]
    return instr, instr_labels, controls, control_labels + per_cell("z:w:") + per_cell("d:z:w:")


def build_design(ds: Dataset, spec: ModelSpec, cfg: EstimationConfig) -> DesignMatrices:
    """Assemble the design of the rows inside the kernel window.

    Every block is built on the window rows only.  The cell dummies and
    the strata of R keep the levels of the full sample, so a cell or a
    stratum without rows in the window leaves a zero column.  Raises when
    the endogenous block outruns the instruments or when the weighted
    exogenous block is rank deficient (for instance because a covariate
    cell is empty inside the bandwidth).
    """
    if spec.treatment_levels and len(spec.treatment_levels) != ds.d + 1:
        raise InputError(
            f"model spec has {len(spec.treatment_levels)} treatment levels, "
            f"but the dataset's {ds.d} treatment indicators need {ds.d + 1}"
        )
    rows, w = window(cfg.kernel, cfg.bandwidth, ds.z)
    z = ds.z[rows]
    # each block is built transposed, one contiguous row per column, and stacked once
    x_rows = np.ascontiguousarray(ds.x[rows].T)
    w_rows = np.ascontiguousarray(ds.w_dummies[rows].T)
    d_ind = (z >= 0).astype(float)
    dummy_labels = ds.cell_labels[1:] if ds.q > 1 else ()
    m = ds.m

    cluster = ds.cluster
    if cfg.cluster_by == "running":
        cluster = ds.z
    elif cfg.cluster_by in ds.aux:
        cluster = ds.aux[cfg.cluster_by]
    elif cfg.cluster_by is not None and ds.cluster is None:
        raise InputError(f"cluster column {cfg.cluster_by!r} not found in dataset")

    if spec.kind == "conditional":
        if spec.r_column not in ds.aux:
            raise InputError(f"conditioning column {spec.r_column!r} not found in dataset")
        if ds.d > m + 1:
            raise UnderIdentifiedError(
                f"under-identified: q=m+1={m + 1} < d={ds.d} within each stratum"
            )
        r_codes, strata = _levels(ds.aux[spec.r_column])
        if any(lev in ("", "None", "nan") for lev in strata):
            raise InputError(
                f"conditioning column {spec.r_column!r} has missing values; "
                "its levels must partition the sample"
            )
        r_codes = r_codes[rows]
        endo, endo_labels = [], []
        instr, instr_labels = [], []
        controls, control_labels = [], []
        for lev, code in sorted(zip(strata, range(len(strata)))):  # strata in label order
            sel = (r_codes == code).astype(float)
            endo.append(x_rows * sel)
            endo_labels += [f"x{j + 1}|{spec.r_column}={lev}" for j in range(ds.d)]
            # the stratum indicator, not a global intercept, is the block's constant
            instr_s, il, ctrl_s, cl = _homogeneous_blocks(
                sel, w_rows * sel, z * sel, d_ind * sel, dummy_labels,
                prefix=f"{spec.r_column}={lev}|",
            )
            instr += instr_s
            instr_labels += il
            controls += ctrl_s
            control_labels += cl
    else:
        wtilde = spec.wtilde_columns if spec.kind == "parametric" else ()
        endo = [x_rows]
        endo_labels = [f"x{j + 1}" for j in range(ds.d)]
        for name in wtilde:
            if name not in ds.aux:
                raise InputError(f"wtilde column {name!r} not found in dataset")
            col = ds.aux[name]
            if col.dtype.kind not in "biuf":
                raise InputError(f"wtilde column {name!r} is not numeric")
            endo.append(x_rows * np.asarray(col[rows], dtype=float))
            endo_labels += [f"{name}:x{j + 1}" for j in range(ds.d)]
        if len(endo_labels) > m + 1 and not wtilde:
            raise UnderIdentifiedError(f"under-identified: q=m+1={m + 1} < d={ds.d}")
        if len(endo_labels) > m + 1:
            raise UnderIdentifiedError(
                f"under-identified: q=m+1={m + 1} < d(1+c)={len(endo_labels)}; "
                f"the transform allows at most c <= (m+1)/d - 1 = {(m + 1) / ds.d - 1:g} columns"
            )
        instr, instr_labels, controls, control_labels = _homogeneous_blocks(
            np.ones(len(z)), w_rows, z, d_ind, dummy_labels
        )

    if ds.extra_controls is not None:
        extra = ds.extra_controls[rows].T
        names = ds.extra_control_names or [f"extra{k}" for k in range(len(extra))]
        controls, control_labels = controls + [extra], list(control_labels) + list(names)

    dm = DesignMatrices(
        y=ds.y[rows],
        endogenous=np.vstack(endo).T,
        instruments=np.vstack(instr).T,
        controls=np.vstack(controls).T,
        weights=w,
        endogenous_labels=tuple(endo_labels),
        instrument_labels=tuple(instr_labels),
        control_labels=tuple(control_labels),
        cluster=None if cluster is None else np.asarray(cluster)[rows],
    )
    try:
        _check_rank(dm, cfg.rcond_threshold)
    except SingularDesignError as err:
        empty = validate_dataset(ds, cfg).empty_side_warnings
        raise SingularDesignError(
            f"{err}; " + ("; ".join(empty) if empty else "the weighted columns are collinear")
        ) from None
    return dm


@dataclass(frozen=True)
class FirstStageReport:
    labels: tuple[str, ...]
    f_stats: tuple[float, ...]
    flags: tuple[str, ...]
    joint_min_eigenvalue: float | None = None

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "f_stats": [v if math.isfinite(v) else str(v) for v in self.f_stats],
            "flags": list(self.flags),
            "joint_min_eigenvalue": self.joint_min_eigenvalue,
        }


@dataclass(frozen=True)
class FitResult:
    """Reported values of one fit; :func:`weighted_2sls` fills only the coefficients."""

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


def weighted_2sls(dm: DesignMatrices, rcond_threshold: float = 1e-10) -> FitResult:
    """Two-stage least squares with every row scaled by the root of its weight.

    The second stage, y on [X_hat | C] with X_hat = Q_E R_EX, reduces to
    R_ZX beta = R_Zy on the instrument rows of R (Frisch-Waugh-Lovell).
    """
    k_endo = dm.k_endogenous
    if k_endo > dm.n_instruments:
        raise UnderIdentifiedError(
            f"under-identified: {dm.n_instruments} instruments < {k_endo} endogenous columns"
        )
    _check_rank(dm, rcond_threshold)
    r, p, k = dm.r, dm.n_controls, dm.n_exogenous
    r_ex, r_ey = r[:k, k:-1], r[:k, -1]
    beta, _, _, sv = np.linalg.lstsq(r_ex[p:], r_ey[p:], rcond=None)
    # the pivots of [C | X_hat]: R_CC's diagonal, then X_hat beyond the span of C
    pivots = np.concatenate([np.abs(np.diagonal(r)[:p]), sv])
    _rcond_gate(pivots, p + k_endo, rcond_threshold, "second-stage design is numerically singular")
    eta = np.linalg.solve(r[:p, :p], r_ey[:p] - r_ex[:p] @ beta)
    return FitResult(
        beta=beta,
        eta=eta,
        beta_labels=dm.endogenous_labels,
        eta_labels=dm.control_labels,
        n_effective=dm.n_effective,
    )


def _moments(fit, dm, cluster_ids) -> tuple[np.ndarray, np.ndarray, float]:
    """Cluster sums of the moment rows E*u, their cross-product, and |u|.

    u is the structural residual of the weighted rows (actual endogenous
    columns, not fitted).  :func:`cluster_covariance` and :func:`j_test`
    share this pass: for the design's own clusters it is kept on ``dm``
    for the ``fit`` that made it.
    """
    cached = dm.__dict__.get("_moments") if cluster_ids is None else None
    if cached is not None and cached[0] is fit:
        return cached[1]
    codes = dm.cluster_codes if cluster_ids is None else _cluster_codes(dm, cluster_ids)
    p, k = dm.n_controls, dm.n_exogenous
    coef = np.concatenate([-fit.eta, np.zeros(k - p), -fit.beta, [1.0]])
    u = dm.augmented @ coef
    summed = dm.augmented[:, :k] * u[:, None]  # E * u
    if codes is not None:
        n_groups = int(codes.max()) + 1
        summed = np.stack(
            [np.bincount(codes, weights=col, minlength=n_groups) for col in summed.T], axis=1
        )
    out = summed, summed.T @ summed, float(np.linalg.norm(u))
    if cluster_ids is None:
        dm.__dict__["_moments"] = (fit, out)
    return out


def cluster_covariance(fit: FitResult, dm: DesignMatrices, cluster_ids=None) -> np.ndarray:
    """Cluster-robust sandwich covariance with the CR1 small-sample factor.

    A is the cross-product of the instrumented regressors, B sums outer
    products of within-cluster score sums, and the result is scaled by
    G/(G-1) * (n-1)/(n-k).  With one observation per cluster this is the
    usual heteroskedasticity-robust sandwich up to that factor.

    The regressors [X_hat | C] are Q_E K with K = [R_EX | R_EC].  With
    K = Q_K R_K, they are E H R_K for H = R_EE^-1 Q_K, so the score sums
    are the moment sums times H R_K, and the sandwich is
    R_K^-1 H' Omega H R_K^-T: no normal matrix is formed or inverted.
    """
    codes = dm.cluster_codes if cluster_ids is None else _cluster_codes(dm, cluster_ids)
    n = dm.n_effective
    n_groups = n if codes is None else int(codes.max(initial=-1)) + 1
    if n_groups < 2:
        raise EstimationError(
            f"need at least 2 clusters among weight-positive rows, found {n_groups}"
        )
    _, omega, _ = _moments(fit, dm, cluster_ids)
    r, p, k = dm.r, dm.n_controls, dm.n_exogenous
    q_k, r_k = np.linalg.qr(np.column_stack([r[:k, k:-1], r[:k, :p]]))
    h = np.linalg.solve(r[:k, :k], q_k)
    r_k_inv = np.linalg.inv(r_k)
    n_params = r_k.shape[1]
    correction = (n_groups / (n_groups - 1)) * ((n - 1) / max(n - n_params, 1))
    cov = correction * r_k_inv @ (h.T @ omega @ h) @ r_k_inv.T
    return 0.5 * (cov + cov.T)


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


def j_test(
    fit: FitResult,
    dm: DesignMatrices,
    cluster_ids=None,
    rcond_threshold: float = 1e-10,
) -> tuple[float, int, float]:
    """Over-identification test from the weighted 2SLS residuals.

    The moment vector stacks weighted residual cross-products with the
    full exogenous row; its robust covariance (cluster-aggregated when
    clustering is active) weights the quadratic form.  Degrees of
    freedom are instruments minus endogenous columns; a just-identified
    fit reports J = 0 with p-value 1 by convention.
    """
    dof = dm.n_instruments - len(fit.beta)
    if dof == 0:
        return 0.0, 0, 1.0

    # an exact fit satisfies every moment condition; the quadratic form is a
    # 0/0 limit there, and its value is zero, not roundoff noise
    summed, what, resid_norm = _moments(fit, dm, cluster_ids)
    outcome_scale = float(np.linalg.norm(dm.r[:, -1]))  # the norm of the weighted y
    if resid_norm <= 1e-10 * max(outcome_scale, 1.0):
        return 0.0, dof, 1.0

    gvec = summed.sum(axis=0)
    eigvals = np.linalg.eigvalsh(0.5 * (what + what.T))  # ascending order
    top = float(eigvals[-1])
    rcond = 0.0 if top <= 0 else max(float(eigvals[0]), 0.0) / top
    if rcond < rcond_threshold:
        raise SingularDesignError(
            f"moment weighting matrix is singular (rcond {rcond:.3e}); "
            "possibly fewer clusters than moment conditions"
        )
    j_stat = float(gvec @ np.linalg.solve(what, gvec))
    j_stat = max(j_stat, 0.0)
    return j_stat, dof, chi2_sf(j_stat, dof)


def first_stage_diagnostics(
    dm: DesignMatrices,
    joint_min_eigenvalue: float | None = None,
    rcond_threshold: float = 1e-10,
) -> FirstStageReport:
    """Partial F of the excluded instruments per endogenous column.

    Both residual sums of squares are column norms of R: below the rows of
    E for the unrestricted fit, below the rows of C for the restricted one.
    """
    _check_rank(dm, rcond_threshold)
    r, p, k = dm.r, dm.n_controls, dm.n_exogenous
    rss_u = np.sum(r[k:, k:-1] ** 2, axis=0)
    rss_r = np.sum(r[p:, k:-1] ** 2, axis=0)
    constant = np.ptp(dm.positive(dm.endogenous), axis=0) == 0
    df_denom = max(dm.n_effective - k, 1)

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
        labels=dm.endogenous_labels,
        f_stats=tuple(f_stats),
        flags=tuple(flags),
        joint_min_eigenvalue=joint_min_eigenvalue,
    )


def estimate(
    ds: Dataset,
    spec: ModelSpec,
    cfg: EstimationConfig,
    joint_min_eigenvalue: float | None = None,
) -> FitResult:
    """Full pass: design, 2SLS, cluster covariance, J test, first stages."""
    dm = build_design(ds, spec, cfg)
    fit = weighted_2sls(dm, rcond_threshold=cfg.rcond_threshold)
    cov = cluster_covariance(fit, dm)
    j_stat, j_dof, j_pvalue = j_test(fit, dm, rcond_threshold=cfg.rcond_threshold)
    first_stage = first_stage_diagnostics(dm, joint_min_eigenvalue, cfg.rcond_threshold)
    return replace(
        fit, cov=cov, j_stat=j_stat, j_dof=j_dof, j_pvalue=j_pvalue, first_stage=first_stage
    )
