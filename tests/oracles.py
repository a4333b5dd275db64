"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written through a different route than
the library: explicit normal equations and matrix inverses, python-loop
cluster aggregation, and numerical quadrature, instead of the package's
QR solves, eigendecompositions, and closed forms.
"""

import numpy as np
from scipy import integrate

from multirdd.cli import SERIES_MAX_POINTS
from multirdd.estimator import DesignMatrices
from multirdd.kernels import window


def design_from_blocks(y, endogenous, instruments, controls, weights, **fields):
    """A :class:`DesignMatrices` of unweighted blocks, weighted as ``build_design`` weights them."""
    columns = [controls, instruments, endogenous, np.asarray(y)[:, None]]
    augmented = np.column_stack(columns).astype(float) * np.sqrt(weights)[:, None]
    return DesignMatrices(augmented=np.asfortranarray(augmented), weights=weights, **fields)


def design_blocks(dm):
    """The unweighted y, endogenous, instruments and controls of ``dm``, to rounding."""
    a = dm.augmented / np.sqrt(dm.weights)[:, None]
    p, k = dm.n_controls, dm.n_exogenous
    return a[:, -1], a[:, k:-1], a[:, p:k], a[:, :p]


def side_intercept(values, z, w):
    """Weighted least squares intercept of values on (1, z) via 2x2 normal equations."""
    keep = w > 0
    v, zz, ww = values[keep], z[keep], w[keep]
    s0 = ww.sum()
    s1 = (ww * zz).sum()
    s2 = (ww * zz * zz).sum()
    b0 = (ww * v).sum()
    b1 = (ww * zz * v).sum()
    det = s0 * s2 - s1 * s1
    return (s2 * b0 - s1 * b1) / det


def jump_oracle(values, z, w):
    right = z >= 0
    return side_intercept(values[right], z[right], w[right]) - side_intercept(
        values[~right], z[~right], w[~right]
    )


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
