"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written through a different route than
the library: explicit normal equations and matrix inverses, python-loop
cluster aggregation, and numerical quadrature, instead of the package's
QR solves, eigendecompositions, and closed forms.
"""

import numpy as np
from scipy import integrate

from multirdd.cli import SERIES_MAX_POINTS
from multirdd.data_model import _column, _levels
from multirdd.estimator import DesignMatrices
from multirdd.kernels import window


def design_from_blocks(y, endogenous, instruments, controls, weights, **fields):
    """A hand-built :class:`DesignMatrices` of unweighted blocks: no group basis."""
    columns = [controls, instruments, endogenous, np.asarray(y)[:, None]]
    return DesignMatrices(dense=np.column_stack(columns).astype(float), weights=weights, **fields)


def design_columns(dm):
    """[C | Z | X | y] of ``dm``, unweighted, written out: [B | D] M with B row by row.

    Row i of the group basis B holds 1 and z_i in the two columns of its
    group, and zeros elsewhere.
    """
    if dm.basis is None:
        return np.asarray(dm.dense, dtype=float)
    basis = np.zeros((dm.n, 2 * dm.n_groups))
    for i, (g, zi) in enumerate(zip(dm.basis.groups.tolist(), dm.basis.z.tolist())):
        basis[i, 2 * g], basis[i, 2 * g + 1] = 1.0, zi
    return np.column_stack([basis, dm.dense]) @ dm.layout


def design_blocks(dm):
    """The unweighted y, endogenous, instruments and controls of ``dm``."""
    a = design_columns(dm)
    p, k = dm.n_controls, dm.n_exogenous
    return a[:, -1], a[:, k:-1], a[:, p:k], a[:, :p]


def explicit_design(ds, spec, cfg):
    """The cell-interacted design of ``ds`` written column by column: a hand-built design.

    Per stratum s, on its own window rows and zero elsewhere, C_s = (1, W',
    z, D*z, z*W', D*z*W') and Z_s = (D, D*W') for the dummies W of cells
    1..q-1 and D = 1(z >= 0), and X_s, or X and each transform column times
    X for the parametric model; then the extra controls and y.  Strata are
    in label order; a homogeneous or parametric design is one stratum.
    """
    rows, w = window(cfg.kernel, cfg.bandwidth, ds.z)
    z, d_ind = ds.z[rows], (ds.z[rows] >= 0).astype(float)
    dummies = (ds.cells[rows][:, None] == np.arange(1, ds.q)).astype(float)
    x_names = [f"x{j + 1}" for j in range(ds.d)]
    x = ds.x[rows]
    if spec.kind == "parametric":
        for name in spec.wtilde_columns:
            x = np.column_stack([x, ds.x[rows] * ds.aux[name][rows][:, None]])
            x_names += [f"{name}:x{j + 1}" for j in range(ds.d)]
    strata = [("", np.ones(len(rows)))]
    if spec.kind == "conditional":
        codes, labels = _levels(_column(ds.aux, spec.r_column, "conditioning"))
        strata = [
            (f"{spec.r_column}={labels[c]}", (codes[rows] == c).astype(float))
            for c in sorted(range(len(labels)), key=labels.__getitem__)
        ]
    blocks = {"controls": [], "instruments": [], "endogenous": []}
    names = {key: [] for key in blocks}
    cells = ds.cell_labels[1:]
    for tag, own in strata:
        pre, post = (f"{tag}|", f"|{tag}") if tag else ("", "")
        one, zs = own[:, None], (z * own)[:, None]
        blocks["controls"] += [
            one, dummies * one, zs, d_ind[:, None] * zs, dummies * zs, d_ind[:, None] * dummies * zs
        ]
        blocks["instruments"] += [d_ind[:, None] * one, d_ind[:, None] * dummies * one]
        blocks["endogenous"].append(x * one)
        names["controls"] += [f"{pre}const", *(f"{pre}w:{c}" for c in cells)]
        names["controls"] += [f"{pre}z", f"{pre}d:z"]
        names["controls"] += [f"{pre}z:w:{c}" for c in cells] + [f"{pre}d:z:w:{c}" for c in cells]
        names["instruments"] += [f"{pre}d", *(f"{pre}d:w:{c}" for c in cells)]
        names["endogenous"] += [f"{name}{post}" for name in x_names]
    for name in ds.extra_control_names:
        blocks["controls"].append(ds.aux[name][rows][:, None])
        names["controls"].append(name)
    cluster = ds.cluster
    if cfg.cluster_by == "running":
        cluster = ds.z
    elif cfg.cluster_by is not None:
        cluster = ds.aux[cfg.cluster_by]
    return design_from_blocks(
        ds.y[rows],
        *(np.column_stack(blocks[key]) for key in ("endogenous", "instruments", "controls")),
        w,
        endogenous_labels=tuple(names["endogenous"]),
        instrument_labels=tuple(names["instruments"]),
        control_labels=tuple(names["controls"]),
        cluster=None if cluster is None else cluster[rows],
    )


def side_hc0_oracle(values, z, w):
    """Weighted least squares intercept of values on (1, z) and its HC0 variance, row by row.

    The 2x2 normal equations and the meat sum_i (w_i r_i)^2 D_i D_i' are
    accumulated in a python loop; the variance is (bread meat bread)[0, 0].
    """
    xtx, xtv = np.zeros((2, 2)), np.zeros(2)
    for zi, wi, vi in zip(z, w, values):
        row = np.array([1.0, zi])
        xtx += wi * np.outer(row, row)
        xtv += wi * vi * row
    bread = np.linalg.inv(xtx)
    coef = bread @ xtv
    meat = np.zeros((2, 2))
    for zi, wi, vi in zip(z, w, values):
        row = np.array([1.0, zi])
        meat += (wi * (vi - row @ coef)) ** 2 * np.outer(row, row)
    return coef[0], (bread @ meat @ bread)[0, 0]


def jump_se_oracle(values, z, w):
    """The intercept gap at the cutoff and the naive SE sqrt(v_right + v_left), per side fits."""
    right = z >= 0
    b_right, v_right = side_hc0_oracle(values[right], z[right], w[right])
    b_left, v_left = side_hc0_oracle(values[~right], z[~right], w[~right])
    return b_right - b_left, np.sqrt(v_right + v_left)


def kernel_callable(name):
    if name == "uniform":
        return lambda u: 0.5 if abs(u) <= 1 else 0.0
    if name == "triangular":
        return lambda u: max(1 - abs(u), 0.0)
    if name == "epanechnikov":
        return lambda u: 0.75 * (1 - u * u) if abs(u) <= 1 else 0.0
    raise ValueError(name)


def moment_quadrature(name, order, squared):
    k = kernel_callable(name)
    if squared:
        f = lambda u: u**order * k(u) ** 2  # noqa: E731
    else:
        f = lambda u: u**order * k(u)  # noqa: E731
    value, _ = integrate.quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    return value


def tsls_oracle(y, endo, instr, ctrl, w):
    """Direct 2SLS via explicit projection and inverses; returns pieces for reuse."""
    keep = w > 0
    sw = np.sqrt(w[keep])
    zmat = np.column_stack([instr, ctrl])[keep] * sw[:, None]
    xmat = np.column_stack([endo, ctrl])[keep] * sw[:, None]
    ys = y[keep] * sw
    proj = zmat @ np.linalg.inv(zmat.T @ zmat) @ zmat.T
    xhat = proj @ xmat
    coef = np.linalg.inv(xhat.T @ xhat) @ (xhat.T @ ys)
    resid = ys - xmat @ coef
    return coef, xhat, resid, zmat


def cluster_sandwich_oracle(xhat, resid, ids):
    """CR1 sandwich assembled with python-loop cluster sums."""
    n, k = xhat.shape
    groups = {}
    for i, g in enumerate(np.asarray(ids)):
        groups.setdefault(g if not isinstance(g, np.generic) else g.item(), []).append(i)
    n_groups = len(groups)
    meat = np.zeros((k, k))
    for rows in groups.values():
        s = np.zeros(k)
        for i in rows:
            s = s + xhat[i] * resid[i]
        meat += np.outer(s, s)
    bread = np.linalg.inv(xhat.T @ xhat)
    corr = (n_groups / (n_groups - 1)) * ((n - 1) / (n - k))
    return corr * bread @ meat @ bread


def j_oracle(zmat, resid, ids, dof):
    """Over-identification statistic via python-loop moment aggregation."""
    if dof == 0:
        return 0.0, 1.0
    n, L = zmat.shape
    g = np.zeros(L)
    for i in range(n):
        g = g + zmat[i] * resid[i]
    groups = {}
    for i, gid in enumerate(np.asarray(ids)):
        groups.setdefault(gid if not isinstance(gid, np.generic) else gid.item(), []).append(i)
    what = np.zeros((L, L))
    for rows in groups.values():
        s = np.zeros(L)
        for i in rows:
            s = s + zmat[i] * resid[i]
        what += np.outer(s, s)
    stat = float(g @ np.linalg.inv(what) @ g)
    from scipy.stats import chi2

    return stat, float(chi2.sf(stat, dof))


def partial_f_oracle(col, zfull, ctrl, q_excl, df_denom):
    """Restricted-vs-unrestricted sum of squares F via explicit inverses."""

    def rss(design):
        coef = np.linalg.inv(design.T @ design) @ (design.T @ col)
        e = col - design @ coef
        return float(e @ e)

    rss_u = rss(zfull)
    rss_r = rss(ctrl)
    return ((rss_r - rss_u) / q_excl) / (rss_u / df_denom)


def plugin_oracle(p, deltas_x, deltas_y):
    """Direct matrix-arithmetic plug-in: explicit inverse of the relevance matrix."""
    p = np.asarray(p, dtype=float)
    dx = np.asarray(deltas_x, dtype=float)
    dy = np.asarray(deltas_y, dtype=float)
    d = dx.shape[1]
    m = np.zeros((d, d))
    rhs = np.zeros(d)
    for l in range(len(p)):
        m += p[l] * np.outer(dx[l], dx[l])
        rhs += p[l] * dx[l] * dy[l]
    return np.linalg.inv(m) @ rhs, m


def omega_oracle(p, deltas_x):
    dx = np.asarray(deltas_x, dtype=float)
    d = dx.shape[1]
    m = np.zeros((d, d))
    for l in range(len(p)):
        m += p[l] * np.outer(dx[l], dx[l])
    minv = np.linalg.inv(m)
    return [minv @ np.outer(dx[l], dx[l]) for l in range(len(p))], m


def series_oracle(ds, cfg):
    """The series rows (label, side, z, count, means of y and each x), bin by bin.

    One boolean mask and one ``.mean()`` per bin, with ``np.quantile`` for
    the edges of a side that has more than ``SERIES_MAX_POINTS`` distinct z.
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
            uniques, bins = np.unique(z_vals, return_inverse=True)
            if len(uniques) > SERIES_MAX_POINTS:
                edges = np.quantile(z_vals, np.linspace(0, 1, SERIES_MAX_POINTS + 1))
                uniques = 0.5 * (edges[:-1] + edges[1:])
                bins = np.searchsorted(edges[1:-1], z_vals, side="right")
            for b in range(len(uniques)):
                in_bin = sel[bins == b]
                if in_bin.size == 0:
                    continue
                means = [ds.y[in_bin].mean()] + [ds.x[in_bin, j].mean() for j in range(ds.d)]
                out.append((label, side, uniques[b], in_bin.size, means))
    return out
