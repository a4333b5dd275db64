"""Shared builders for synthetic datasets and randomized test instances."""

import numpy as np

from multirdd.data_model import Dataset
from multirdd.discontinuities import CellTable


def piecewise_linear_dataset(
    jumps_x,
    jumps_y,
    intercepts=None,
    slopes=None,
    n_per_side=8,
    z_max=1.0,
    cluster=None,
):
    """Noiseless per-cell data, linear in z on each side, with exact jumps.

    ``jumps_x[l]`` must be a 0/1 vector: indicator j inside cell l is
    constant when the jump is 0 and switches with the cutoff when it is
    1, keeping rows cumulative as long as each jump vector is itself
    non-increasing once added to a cumulative base.
    """
    jumps_x = np.atleast_2d(np.asarray(jumps_x, dtype=float))
    q, d = jumps_x.shape
    jumps_y = np.asarray(jumps_y, dtype=float)
    intercepts = np.zeros(q) if intercepts is None else np.asarray(intercepts, dtype=float)
    slopes = np.full(q, 0.5) if slopes is None else np.asarray(slopes, dtype=float)

    bases = np.zeros((q, d))
    for l in range(q):
        ones = np.nonzero(jumps_x[l] > 0)[0]
        if ones.size == 0:
            bases[l] = 1.0  # constant treatment, all margins crossed
            continue
        if not np.array_equal(ones, np.arange(ones[0], ones[-1] + 1)):
            raise ValueError(
                f"cell {l}: jumping margins {ones.tolist()} are not contiguous; "
                "binary cumulative indicators cannot realize that pattern"
            )
        bases[l, : ones[0]] = 1.0

    grid_right = np.linspace(z_max / n_per_side, z_max, n_per_side)
    grid_left = -grid_right
    rows_y, rows_z, rows_x, rows_cell = [], [], [], []
    for l in range(q):
        for side, grid in ((0, grid_left), (1, grid_right)):
            for zv in grid:
                rows_x.append(bases[l] + jumps_x[l] * side)
                rows_y.append(intercepts[l] + slopes[l] * zv + jumps_y[l] * side)
                rows_z.append(zv)
                rows_cell.append(l)
    cells = np.asarray(rows_cell)
    labels = tuple(f"cell{l:03d}" for l in range(q))
    return Dataset(
        y=np.asarray(rows_y),
        z=np.asarray(rows_z),
        x=np.asarray(rows_x),
        cells=cells,
        cell_labels=labels,
        cluster=cluster,
    )


def random_dataset(rng, n=40, d=2, m=2, noise=0.3, binary_outcome=False):
    """Random RDD-shaped dataset; caller should retry if the design is degenerate."""
    q = m + 1
    cells = rng.integers(0, q, size=n)
    z = rng.uniform(-1, 1, size=n)
    right = (z >= 0).astype(float)
    base = np.sort(rng.uniform(0.15, 0.75, size=(q, d)), axis=1)[:, ::-1]
    caps = 1.0 - base
    jump = rng.uniform(0.05, 1.0, size=(q, d)) * caps
    jump = np.minimum.accumulate(base + jump, axis=1) - base
    jump = np.clip(jump, 0.0, None)
    latent = rng.uniform(0, 1, size=n)
    thresholds = base[cells] + jump[cells] * right[:, None]
    x = (latent[:, None] <= thresholds).astype(float)
    beta = rng.normal(0, 1, size=d)
    y = (
        rng.normal(0, 0.5) * np.ones(n)
        + 0.4 * z
        + x @ beta
        + rng.normal(0, noise, size=n)
    )
    if binary_outcome:
        y = (y > np.median(y)).astype(float)
    labels = tuple(f"cell{l:03d}" for l in range(q))
    return Dataset(y=y, z=z, x=x, cells=cells, cell_labels=labels)


def random_cell_table(rng, q=3, d=2, require_passing=False, max_tries=200):
    """CellTable filled with random jumps and probabilities."""
    for _ in range(max_tries):
        p = rng.dirichlet(np.ones(q))
        deltas = rng.uniform(-1, 1, size=(q, d))
        dy = rng.uniform(-1, 1, size=q)
        m = np.zeros((d, d))
        for l in range(q):
            m += p[l] * np.outer(deltas[l], deltas[l])
        eig = np.linalg.eigvalsh(m)
        if require_passing and (eig[0] <= 1e-6 * max(eig[-1], 1e-12)):
            continue
        return CellTable(
            labels=tuple(f"cell{l:03d}" for l in range(q)),
            delta_x=deltas,
            delta_y=dy,
            se_x=np.zeros((q, d)),
            se_y=np.zeros(q),
            p_hat=p,
            n_left=np.full(q, 10),
            n_right=np.full(q, 10),
            dropped=(),
        )
    raise AssertionError("could not draw a passing random cell table")
