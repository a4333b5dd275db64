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

Each fit factors one tall matrix: :class:`DesignMatrices` weights the
rows and takes the thin QR of E = [C | Z] once, Q = [Q_C | Q_Z].  The
rank gate reads R's diagonal; beta solves the small system
(Q_Z'X) beta = Q_Z'y (Frisch-Waugh-Lovell) and eta the block R_CC; the
first-stage F uses the residuals against Q and Q_C; the covariance and
the J test rebuild their inputs from Q, R and the coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data_model import Dataset, EstimationConfig, ModelSpec, _levels, validate_dataset
from .errors import EstimationError, InputError, SingularDesignError, UnderIdentifiedError
from .kernels import weights_vector

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
    """Unweighted design of every row; the cached properties own the weight-positive rows."""

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

    @cached_property
    def rows(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0)

    @property
    def n_effective(self) -> int:
        return len(self.rows)

    @cached_property
    def root_weights(self) -> np.ndarray:
        return np.sqrt(self.weights[self.rows])

    def weighted(self, a: np.ndarray) -> np.ndarray:
        """The weight-positive rows of ``a``, each scaled by its root weight."""
        sw = self.root_weights
        return a[self.rows] * (sw if a.ndim == 1 else sw[:, None])

    @cached_property
    def exogenous(self) -> np.ndarray:
        """The weighted exogenous block, controls first: ``[controls | instruments]``."""
        return np.column_stack([self.weighted(self.controls), self.weighted(self.instruments)])

    @cached_property
    def qr(self) -> tuple[np.ndarray, np.ndarray]:
        """Thin QR of :attr:`exogenous`, the one factorization of the fit."""
        return np.linalg.qr(self.exogenous)

    @cached_property
    def cluster_codes(self) -> np.ndarray | None:
        """Codes of :attr:`cluster` on the weight-positive rows; None for one row per cluster."""
        return None if self.cluster is None else _cluster_codes(self, self.cluster)


def _cluster_codes(dm: DesignMatrices, cluster_ids) -> np.ndarray:
    """Validated cluster ids of the weight-positive rows as integer codes 0..G-1."""
    cluster_ids = np.asarray(cluster_ids)
    if len(cluster_ids) != dm.n:
        raise InputError(
            f"cluster ids have length {len(cluster_ids)}, expected {dm.n}"
        )
    ids = cluster_ids[dm.rows]
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
    """The rank gate of the weighted exogenous block, read off the diagonal of R."""
    if dm.n_effective == 0:
        raise EstimationError("no weight-positive rows; widen the bandwidth")
    rmat = dm.qr[1]
    k = rmat.shape[1]  # R is wide when there are fewer weight-positive rows than columns
    what = f"exogenous block is rank deficient after weighting ({k} columns)"
    _rcond_gate(np.abs(np.diagonal(rmat)), k, rcond_threshold, what)


def _homogeneous_blocks(w_dummies, z, d_ind, labels, prefix=""):
    n = len(z)
    m = w_dummies.shape[1]
    instr = np.column_stack([d_ind] + [d_ind * w_dummies[:, k] for k in range(m)])
    instr_labels = [f"{prefix}d"] + [f"{prefix}d:w:{labels[k]}" for k in range(m)]
    controls = np.column_stack(
        [np.ones(n)]
        + [w_dummies[:, k] for k in range(m)]
        + [z, d_ind * z]
        + [z * w_dummies[:, k] for k in range(m)]
        + [d_ind * z * w_dummies[:, k] for k in range(m)]
    )
    control_labels = (
        [f"{prefix}const"]
        + [f"{prefix}w:{labels[k]}" for k in range(m)]
        + [f"{prefix}z", f"{prefix}d:z"]
        + [f"{prefix}z:w:{labels[k]}" for k in range(m)]
        + [f"{prefix}d:z:w:{labels[k]}" for k in range(m)]
    )
    return instr, instr_labels, controls, control_labels


def build_design(ds: Dataset, spec: ModelSpec, cfg: EstimationConfig) -> DesignMatrices:
    """Assemble the design for the configured model variant.

    Raises when the endogenous block outruns the instruments or when the
    weighted exogenous block is rank deficient (for instance because a
    covariate cell is empty inside the bandwidth).
    """
    w = weights_vector(cfg.kernel, cfg.bandwidth, ds.z)
    d_ind = (ds.z >= 0).astype(float)
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
        endo_cols, endo_labels = [], []
        instr_cols, instr_labels = [], []
        ctrl_cols, control_labels = [], []
        for lev, code in sorted(zip(strata, range(len(strata)))):  # strata in label order
            sel = (r_codes == code).astype(float)
            tag = f"{spec.r_column}={lev}|"
            endo_cols.append(ds.x * sel[:, None])
            endo_labels += [f"x{j + 1}|{spec.r_column}={lev}" for j in range(ds.d)]
            instr_s, il, ctrl_s, cl = _homogeneous_blocks(
                ds.w_dummies * sel[:, None], ds.z * sel, d_ind * sel, dummy_labels, prefix=tag
            )
            # the "constant" column of the stratum block must be the stratum
            # indicator itself, not a global intercept
            ctrl_s[:, 0] = sel
            instr_cols.append(instr_s)
            instr_labels += il
            ctrl_cols.append(ctrl_s)
            control_labels += cl
        endo = np.column_stack(endo_cols)
        instr = np.column_stack(instr_cols)
        controls = np.column_stack(ctrl_cols)
    else:
        wtilde = spec.wtilde_columns if spec.kind == "parametric" else ()
        cols = []
        for name in wtilde:
            if name not in ds.aux:
                raise InputError(f"wtilde column {name!r} not found in dataset")
            col = ds.aux[name]
            if col.dtype.kind not in "biuf":
                raise InputError(f"wtilde column {name!r} is not numeric")
            cols.append(np.asarray(col, dtype=float))
        endo = np.column_stack([ds.x] + [ds.x * wt[:, None] for wt in cols])
        endo_labels = [f"x{j + 1}" for j in range(ds.d)]
        for name in wtilde:
            endo_labels += [f"{name}:x{j + 1}" for j in range(ds.d)]
        instr, instr_labels, controls, control_labels = _homogeneous_blocks(
            ds.w_dummies, ds.z, d_ind, dummy_labels
        )
        if endo.shape[1] > instr.shape[1] and not cols:
            raise UnderIdentifiedError(f"under-identified: q=m+1={m + 1} < d={ds.d}")
        if endo.shape[1] > instr.shape[1]:
            raise UnderIdentifiedError(
                f"under-identified: q=m+1={m + 1} < d(1+c)={endo.shape[1]}; "
                f"the transform allows at most c <= (m+1)/d - 1 = {(m + 1) / ds.d - 1:g} columns"
            )

    if ds.extra_controls is not None:
        controls = np.column_stack([controls, ds.extra_controls])
        names = ds.extra_control_names or tuple(
            f"extra{k}" for k in range(ds.extra_controls.shape[1])
        )
        control_labels = list(control_labels) + list(names)

    dm = DesignMatrices(
        y=ds.y,
        endogenous=endo,
        instruments=instr,
        controls=controls,
        weights=w,
        endogenous_labels=tuple(endo_labels),
        instrument_labels=tuple(instr_labels),
        control_labels=tuple(control_labels),
        cluster=cluster,
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
            for k, lab in enumerate(self.beta_labels):
                est = float(self.beta[k])
                s = float(se[k])
                t = est / s if s > 0 else float("inf") if est != 0 else 0.0
                p = math.erfc(abs(t) / math.sqrt(2.0)) if math.isfinite(t) else 0.0
                table.append(
                    {
                        "name": lab,
                        "estimate": est,
                        "se": s,
                        "t": t if math.isfinite(t) else str(t),
                        "p": p,
                    }
                )
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

    The second stage, y on [X_hat | C] with X_hat = Q Q'X, reduces to (Q_Z'X) beta = Q_Z'y.
    """
    k_endo = dm.k_endogenous
    if k_endo > dm.n_instruments:
        raise UnderIdentifiedError(
            f"under-identified: {dm.n_instruments} instruments < {k_endo} endogenous columns"
        )
    _check_rank(dm, rcond_threshold)
    qmat, rmat = dm.qr
    p = dm.controls.shape[1]
    qx = qmat.T @ dm.weighted(dm.endogenous)
    qy = qmat.T @ dm.weighted(dm.y)
    beta, _, _, sv = np.linalg.lstsq(qx[p:], qy[p:], rcond=None)
    # the pivots of [C | X_hat]: R_CC's diagonal, then X_hat beyond the span of C
    pivots = np.concatenate([np.abs(np.diagonal(rmat)[:p]), sv])
    _rcond_gate(pivots, p + k_endo, rcond_threshold, "second-stage design is numerically singular")
    eta = np.linalg.solve(rmat[:p, :p], qy[:p] - qx[:p] @ beta)
    return FitResult(
        beta=beta,
        eta=eta,
        beta_labels=dm.endogenous_labels,
        eta_labels=dm.control_labels,
        n_effective=dm.n_effective,
    )


def _residuals(fit: FitResult, dm: DesignMatrices) -> np.ndarray:
    """Structural residuals of the weighted rows: actual endogenous columns, not fitted."""
    controls = dm.exogenous[:, : dm.controls.shape[1]]
    return dm.weighted(dm.y) - dm.weighted(dm.endogenous) @ fit.beta - controls @ fit.eta


def _group_sums(values: np.ndarray, codes: np.ndarray | None) -> np.ndarray:
    if codes is None:
        return values
    out = np.zeros((codes.max() + 1, values.shape[1]))
    np.add.at(out, codes, values)
    return out


def cluster_covariance(fit: FitResult, dm: DesignMatrices, cluster_ids=None) -> np.ndarray:
    """Cluster-robust sandwich covariance with the CR1 small-sample factor.

    A is the cross-product of the instrumented regressors, B sums outer
    products of within-cluster score sums, and the result is scaled by
    G/(G-1) * (n-1)/(n-k).  With one observation per cluster this is the
    usual heteroskedasticity-robust sandwich up to that factor.
    """
    codes = dm.cluster_codes if cluster_ids is None else _cluster_codes(dm, cluster_ids)
    n = dm.n_effective
    n_groups = n if codes is None else int(codes.max(initial=-1)) + 1
    if n_groups < 2:
        raise EstimationError(
            f"need at least 2 clusters among weight-positive rows, found {n_groups}"
        )
    qmat, rmat = dm.qr
    p = dm.controls.shape[1]
    # the instrumented regressors are [X_hat | C] = Q coords, so A = coords'coords
    coords = np.column_stack([qmat.T @ dm.weighted(dm.endogenous), rmat[:, :p]])
    scores = (qmat @ coords) * _residuals(fit, dm)[:, None]
    summed = _group_sums(scores, codes)
    meat = summed.T @ summed
    bread = np.linalg.inv(coords.T @ coords)
    k = coords.shape[1]
    correction = (n_groups / (n_groups - 1)) * ((n - 1) / max(n - k, 1))
    cov = correction * bread @ meat @ bread
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
    resid = _residuals(fit, dm)
    outcome_scale = float(np.linalg.norm(dm.weighted(dm.y)))
    if float(np.linalg.norm(resid)) <= 1e-10 * max(outcome_scale, 1.0):
        return 0.0, dof, 1.0

    moments = dm.exogenous * resid[:, None]
    gvec = moments.sum(axis=0)
    codes = dm.cluster_codes if cluster_ids is None else _cluster_codes(dm, cluster_ids)
    summed = _group_sums(moments, codes)
    what = summed.T @ summed

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
    """Partial F of the excluded instruments per endogenous column, from residuals on Q and Q_C."""
    _check_rank(dm, rcond_threshold)
    qmat = dm.qr[0]
    p = dm.controls.shape[1]
    endo = dm.weighted(dm.endogenous)
    qx = qmat.T @ endo
    rss_u = np.sum((endo - qmat @ qx) ** 2, axis=0)
    rss_r = np.sum((endo - qmat[:, :p] @ qx[:p]) ** 2, axis=0)
    constant = np.ptp(dm.endogenous[dm.rows], axis=0) == 0
    df_denom = max(dm.n_effective - qmat.shape[1], 1)

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
