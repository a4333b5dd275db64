from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multirdd.data_model import Dataset, EstimationConfig, GroupBasis, TableSchema, load_table
from multirdd.discontinuities import (
    CellTable,
    _group_fits,
    cell_table,
    plugin_estimator,
    ratio_late,
    relevance,
    wlate_feasibility,
)
from multirdd.errors import EstimationError, RelevanceError
from multirdd.kernels import KernelKind, weights_vector
from oracles import jump_se_oracle, omega_oracle, plugin_oracle
from synthetic import piecewise_linear_dataset, random_cell_table, random_dataset

SAMPLE = Path(__file__).parent.parent / "sample_data" / "insurance_style.csv"


def sample_dataset():
    schema = TableSchema(
        outcome="delayed_care", running="age", cutoff=65.0, treatment="coverage",
        covariates=("race", "educ"),
    )
    return load_table(SAMPLE, schema)


def cell_dataset(values, z, cells=None, labels=("cell000",)):
    """Outcome ``values`` in the given cells (one cell by default), with one constant margin."""
    n = len(z)
    cells = np.zeros(n, dtype=int) if cells is None else np.asarray(cells)
    return Dataset(y=values, z=z, x=np.zeros((n, 1)), cells=cells, cell_labels=labels)


def one_jump(values, z, cfg):
    """The outcome jump and its naive SE that ``cell_table`` reports for a one-cell dataset."""
    ct = cell_table(cell_dataset(values, z), cfg)
    (delta,), (se,) = ct.delta_y, ct.se_y
    return delta, se


def unusable_reason(values, z):
    """Why ``cell_table`` drops cell000 of ``values``, beside a usable cell001."""
    good = np.linspace(-0.5, 0.5, 6)
    ds = cell_dataset(
        np.concatenate([values, np.ones(6)]),
        np.concatenate([z, good]),
        cells=np.repeat([0, 1], [len(z), 6]),
        labels=("cell000", "cell001"),
    )
    (dropped,) = cell_table(ds, EstimationConfig(bandwidth=2.0)).dropped
    assert dropped.label == "cell000"
    return dropped.reason


@pytest.mark.parametrize("kind", list(KernelKind))
@pytest.mark.parametrize("h", [0.6, 1.0, 2.5])
def test_cell_jump_exact_on_linear_data(kind, h):
    z = np.concatenate([np.linspace(-0.5, -0.05, 10), np.linspace(0.05, 0.5, 10)])
    values = 2.0 + 0.5 * z + 3.0 * (z >= 0)
    delta, se = one_jump(values, z, EstimationConfig(bandwidth=h, kernel=kind))
    assert delta == pytest.approx(3.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-10)


def test_cell_jump_constant_values():
    z = np.linspace(-1, 1, 12)
    delta, _ = one_jump(np.full(12, 4.2), z, EstimationConfig(bandwidth=2.0))
    assert delta == pytest.approx(0.0, abs=1e-12)


def test_cell_jump_weight_scale_invariant():
    rng = np.random.default_rng(2)
    z = np.sort(rng.uniform(-1, 1, 30))
    values = rng.normal(size=30)
    w = weights_vector(KernelKind.TRIANGULAR, 1.0, z)
    keep = w > 0
    sides = GroupBasis((z[keep] >= 0).astype(int), z[keep], 2)  # z is sorted, so its sides are

    def jump(weights):
        fits, variances = _group_fits([values[keep]], weights, sides)
        return fits[1, 0] - fits[0, 0], np.sqrt(variances[:, 0].sum())

    delta_a, se_a = jump(w[keep])
    delta_b, se_b = jump(125.0 * w[keep])
    assert delta_a == pytest.approx(delta_b, abs=1e-12)
    assert se_a == pytest.approx(se_b, rel=1e-10)


def test_cell_jump_quadratic_matches_normal_equations_oracle():
    z = np.linspace(-1, 1, 41)
    values = 1.0 + z * z
    w = weights_vector(KernelKind.UNIFORM, 1.0, z)
    delta, _ = one_jump(values, z, EstimationConfig(bandwidth=1.0))
    assert delta == pytest.approx(jump_se_oracle(values, z, w)[0], abs=1e-12)


def test_cell_jump_respects_mask():
    # each cell's jump reads its own rows only: cell001's outlying values leave cell000's alone
    z = np.concatenate([np.linspace(-1, 1, 20), np.linspace(-1, 1, 20)])
    values = np.where(np.arange(40) < 20, 1.0 + 2.0 * (z >= 0), -50.0)
    ds = cell_dataset(values, z, cells=np.repeat([0, 1], 20), labels=("cell000", "cell001"))
    ct = cell_table(ds, EstimationConfig(bandwidth=2.0))
    assert ct.delta_y[0] == pytest.approx(2.0, abs=1e-12)
    assert ct.delta_y[1] == pytest.approx(0.0, abs=1e-12)


def test_cell_jump_insufficient_side_support():
    z = np.array([-0.5, -0.4, -0.3, 0.2])
    assert "unusable on the right side" in unusable_reason(np.ones(4), z)
    with pytest.raises(EstimationError, match="no usable cells"):
        one_jump(np.ones(4), z, EstimationConfig(bandwidth=2.0))


def test_cell_jump_collinear_side():
    z = np.array([-0.5, -0.5, -0.5, 0.1, 0.2])
    assert "unusable on the left side" in unusable_reason(np.ones(5), z)


def test_a_cell_unusable_on_both_sides_is_reported_on_the_right():
    reason = unusable_reason(np.ones(3), np.array([-0.5, -0.5, 0.3]))
    assert reason == (
        "cell 'cell000' unusable on the right side of the cutoff: needs at least 2 distinct "
        "running-variable values with positive weight, found 1"
    )
    empty_right = unusable_reason(np.ones(1), np.array([-0.5]))
    assert "on the right side" in empty_right and empty_right.endswith("found 0")


def test_cell_table_reproduces_noiseless_jumps():
    ds = piecewise_linear_dataset(
        jumps_x=[(1, 0), (0, 1)],
        jumps_y=[0.5, -0.3],
        intercepts=[1.0, 2.0],
        slopes=[0.4, -0.2],
    )
    ct = cell_table(ds, EstimationConfig(bandwidth=2.0))
    assert ct.q_usable == 2
    assert np.allclose(ct.delta_x, [[1, 0], [0, 1]], atol=1e-12)
    assert np.allclose(ct.delta_y, [0.5, -0.3], atol=1e-12)
    assert ct.p_hat.sum() == pytest.approx(1.0, abs=1e-12)


def test_cell_estimate_arrays_are_write_locked():
    ds = piecewise_linear_dataset(jumps_x=[(1, 0), (0, 1)], jumps_y=[0.5, -0.3])
    ct = cell_table(ds, EstimationConfig(bandwidth=2.0))
    for a in (ct.delta_x, ct.delta_y, ct.se_x, ct.se_y, ct.p_hat, ct.n_left, ct.n_right):
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1


def test_cell_table_rejects_columns_that_do_not_match_its_labels():
    ok = dict(
        labels=("a", "b"), delta_x=np.zeros((2, 1)), delta_y=np.zeros(2), se_x=np.zeros((2, 1)),
        se_y=np.zeros(2), p_hat=np.full(2, 0.5), n_left=np.ones(2), n_right=np.ones(2), dropped=(),
    )
    assert CellTable(**ok).q_usable == 2
    for name, bad in (("p_hat", np.ones(3)), ("delta_x", np.zeros((1, 1))), ("n_left", [])):
        with pytest.raises(ValueError, match=f"CellTable.{name} has"):
            CellTable(**dict(ok, **{name: bad}))
    with pytest.raises(ValueError, match="must be q x d"):
        CellTable(**dict(ok, se_x=np.zeros((2, 2))))


def test_cell_table_single_cell():
    ds = piecewise_linear_dataset(jumps_x=[(1,)], jumps_y=[0.7])
    ct = cell_table(ds, EstimationConfig(bandwidth=2.0))
    assert ct.q_usable == 1
    assert np.allclose(ct.p_hat, [1.0])


def test_cell_table_drops_unusable_cell_and_renormalizes():
    ds = piecewise_linear_dataset(jumps_x=[(1, 0), (0, 1)], jumps_y=[0.5, -0.3])
    # shift every z in cell 1 to the left side only
    z = ds.z.copy()
    z[ds.cells == 1] = -np.abs(z[ds.cells == 1])
    ds2 = piecewise_linear_dataset(jumps_x=[(1, 0)], jumps_y=[0.5])
    import multirdd.data_model as dm

    broken = dm.Dataset(
        y=ds.y,
        z=z,
        x=ds.x,
        cells=ds.cells,
        cell_labels=ds.cell_labels,
    )
    ct = cell_table(broken, EstimationConfig(bandwidth=2.0))
    assert ct.q_usable == 1
    assert [c.label for c in ct.dropped] == ["cell001"]
    assert ct.dropped_weight_share == pytest.approx(0.5, abs=1e-12)
    assert ct.p_hat.sum() == pytest.approx(1.0, abs=1e-12)
    assert ds2.n  # silence unused warning


def test_cell_table_drops_a_cell_empty_on_one_side_within_bandwidth():
    # cell 'all' has no right-side rows in [0, h); cell 'both' has support on both sides
    z = np.array([-0.2, -0.1, -0.05, 5.0, -0.5, -0.3, 0.2, 0.4])
    ds = Dataset(
        y=np.zeros(8), z=z, x=np.tile([1.0, 0.0], (8, 1)),
        cells=np.repeat([0, 1], 4), cell_labels=("all", "both"),
    )
    ct = cell_table(ds, EstimationConfig(bandwidth=1.0))
    assert ct.labels == ("both",)
    (dropped,) = ct.dropped
    assert dropped.label == "all"
    assert "right side" in dropped.reason and dropped.reason.endswith("found 0")
    assert (dropped.n_left, dropped.n_right) == (3, 0)


@pytest.mark.parametrize("kind", list(KernelKind))
@pytest.mark.parametrize("h", [10.0, 3.0])
def test_every_cell_counts_its_own_window_rows(kind, h):
    ds = sample_dataset()
    # MIN|COL loses its right side and WH|HS keeps one left z: both are dropped
    no_right = ds.cells == ds.cell_labels.index("MIN|COL")
    one_left = ds.cells == ds.cell_labels.index("WH|HS")
    z = np.where(no_right & (ds.z >= 0), ds.z + 100.0, ds.z)
    z = np.where(one_left & (z < 0), -0.5, z)
    ct = cell_table(replace(ds, z=z), EstimationConfig(bandwidth=h, kernel=kind))
    assert {c.label for c in ct.dropped} == {"MIN|COL", "WH|HS"}
    # the uniform kernel keeps |z| = h; the others vanish there
    inside = np.abs(z) <= h if kind is KernelKind.UNIFORM else np.abs(z) < h
    want = {
        label: (int(np.sum(inside & (ds.cells == l) & (z < 0))),
                int(np.sum(inside & (ds.cells == l) & (z >= 0))))
        for l, label in enumerate(ds.cell_labels)
    }
    got = dict(zip(ct.labels, zip(ct.n_left.tolist(), ct.n_right.tolist())))
    got.update((c.label, (c.n_left, c.n_right)) for c in ct.dropped)
    assert got == want


def test_cell_table_no_usable_cells_is_fatal():
    ds = piecewise_linear_dataset(jumps_x=[(1,)], jumps_y=[0.5])
    import multirdd.data_model as dm

    broken = dm.Dataset(
        y=ds.y,
        z=-np.abs(ds.z),
        x=ds.x,
        cells=ds.cells,
        cell_labels=ds.cell_labels,
    )
    with pytest.raises(EstimationError, match="no usable cells"):
        cell_table(broken, EstimationConfig(bandwidth=2.0))


def heteroskedastic_dataset(rng, n=600):
    """``random_dataset``'s design, with noise SD growing in |z| and differing by cell and side."""
    ds = random_dataset(rng, n=n, noise=0.0)
    sd = (0.2 + 2.0 * np.abs(ds.z)) * (1.0 + ds.cells) * np.where(ds.z >= 0, 3.0, 1.0)
    return replace(ds, y=ds.y + sd * rng.normal(size=n))


def stacked(ct):
    """The jumps and SEs of ``ct``, y first then each indicator, in one row per cell."""
    return np.column_stack([ct.delta_y, ct.delta_x]), np.column_stack([ct.se_y, ct.se_x])


@pytest.mark.parametrize("kind", list(KernelKind))
@pytest.mark.parametrize("data", ["sample", "heteroskedastic"])
def test_cell_table_matches_the_hc0_sandwich_oracle(kind, data):
    if data == "sample":
        ds, cfg = sample_dataset(), EstimationConfig(bandwidth=10.0, kernel=kind)
    else:
        ds, cfg = heteroskedastic_dataset(np.random.default_rng(5)), EstimationConfig(0.8, kind)
    ct = cell_table(ds, cfg)
    assert ct.labels == ds.cell_labels
    jumps, ses = stacked(ct)
    w = weights_vector(cfg.kernel, cfg.bandwidth, ds.z)
    for l in range(ds.q):
        rows = np.flatnonzero((ds.cells == l) & (w > 0))
        for j, col in enumerate([ds.y, *ds.x.T]):
            want_jump, want_se = jump_se_oracle(col[rows], ds.z[rows], w[rows])
            assert jumps[l, j] == pytest.approx(want_jump, rel=1e-10, abs=0)
            assert want_se > 0 and ses[l, j] == pytest.approx(want_se, rel=1e-10, abs=0)


def by_label(ct, y_scale=1.0):
    """Each cell's jumps and SEs keyed by its label, with the outcome's divided by ``y_scale``."""
    jumps, ses = stacked(ct)
    jumps[:, 0] /= y_scale
    ses[:, 0] /= y_scale
    return {label: (jumps[l], ses[l]) for l, label in enumerate(ct.labels)}


def assert_same_cells(got, want):
    assert got.keys() == want.keys()
    for label, (jumps, ses) in want.items():
        assert np.allclose(got[label][0], jumps, rtol=1e-10, atol=1e-13)
        assert np.allclose(got[label][1], ses, rtol=1e-10, atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    c=st.floats(1e-3, 1e3),
    kind=st.sampled_from(list(KernelKind)),
)
def test_jumps_and_ses_ignore_row_order_cell_codes_and_units(seed, c, kind):
    rng = np.random.default_rng(seed)
    ds = heteroskedastic_dataset(rng)
    cfg = EstimationConfig(bandwidth=0.8, kernel=kind)
    want = by_label(cell_table(ds, cfg))

    # rows shuffled, and every cell coded afresh under the same label
    perm, codes = rng.permutation(ds.n), rng.permutation(ds.q)
    labels = tuple(ds.cell_labels[l] for l in np.argsort(codes))
    shuffled = Dataset(
        y=ds.y[perm], z=ds.z[perm], x=ds.x[perm], cells=codes[ds.cells[perm]], cell_labels=labels,
    )
    assert_same_cells(by_label(cell_table(shuffled, cfg)), want)
    # z and h in other units
    cfg_c = EstimationConfig(bandwidth=0.8 * c, kernel=kind)
    assert_same_cells(by_label(cell_table(replace(ds, z=c * ds.z), cfg_c)), want)
    # y in other units: its jumps and SEs scale by c, the indicators' do not move
    assert_same_cells(by_label(cell_table(replace(ds, y=c * ds.y), cfg), y_scale=c), want)


def make_table(p, deltas, dys):
    deltas = np.asarray(deltas, dtype=float)
    q = len(p)
    return CellTable(
        labels=tuple(f"cell{l:03d}" for l in range(q)),
        delta_x=deltas,
        delta_y=np.asarray(dys, dtype=float),
        se_x=np.zeros_like(deltas),
        se_y=np.zeros(q),
        p_hat=np.asarray(p, dtype=float),
        n_left=np.full(q, 5),
        n_right=np.full(q, 5),
        dropped=(),
    )


def test_relevance_single_cell_rank_one_fails():
    ct = make_table([1.0], [(0.4, 0.2)], [0.1])
    tw = relevance(ct)
    assert not tw.passed
    assert tw.rank == 1
    assert tw.omega is None


def test_relevance_orthogonal_design_passes():
    ct = make_table([0.5, 0.5], [(1, 0), (0, 1)], [0.5, -0.3])
    tw = relevance(ct)
    assert tw.passed
    assert np.allclose(tw.m_hat, 0.5 * np.eye(2), atol=1e-15)
    assert tw.min_eigenvalue == pytest.approx(0.5, abs=1e-12)


def test_relevance_matches_matrix_oracle():
    ct = make_table([0.5, 0.5], [(0.4, 0.1), (0.1, 0.3)], [0.2, 0.1])
    tw = relevance(ct)
    _, m_ref = omega_oracle([0.5, 0.5], [(0.4, 0.1), (0.1, 0.3)])
    assert np.allclose(tw.m_hat, m_ref, atol=1e-14)
    ref_eigs = np.linalg.eigvalsh(m_ref)
    assert tw.min_eigenvalue == pytest.approx(ref_eigs[0], abs=1e-12)
    assert tw.rcond == pytest.approx(ref_eigs[0] / ref_eigs[-1], abs=1e-12)


def test_relevance_and_population_targets_share_one_threshold():
    from multirdd.data_model import DEFAULT_RCOND_THRESHOLD
    from multirdd.montecarlo import DgpSpec, population_targets

    # M = diag(0.5 * 0.09, 0.5 * 1e-12): rcond 1.1e-11, between 1e-12 and the threshold
    dgp = DgpSpec(
        cell_probs=(0.5, 0.5),
        base_levels=((0.5, 0.2), (0.5, 0.2)),
        jumps=((0.3, 0.0), (0.0, 1e-6)),
        betas=((0.5, -0.3), (0.5, -0.3)),
        intercepts=(0.0, 0.0),
    )
    targets = population_targets(dgp)
    tw = relevance(make_table(list(dgp.cell_probs), dgp.jumps, targets.delta_y))
    assert 1e-12 < tw.rcond < DEFAULT_RCOND_THRESHOLD
    assert not tw.passed
    assert not targets.identified


def test_twlate_weights_arrays_are_write_locked():
    ct = make_table([0.5, 0.5], [(1, 0), (0, 1)], [0.5, -0.3])
    tw = relevance(ct)
    for a in (tw.m_hat, tw.m_inverse, tw.eigenvalues, ct.p_hat, *tw.omega):
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1.0


def test_twlate_weights_orthogonal_design():
    ct = make_table([0.5, 0.5], [(1, 0), (0, 1)], [0.5, -0.3])
    omega = relevance(ct).omega
    assert np.allclose(omega[0], np.diag([2.0, 0.0]), atol=1e-12)
    assert np.allclose(omega[1], np.diag([0.0, 2.0]), atol=1e-12)


def test_twlate_weights_match_oracle():
    p = [0.5, 0.5]
    deltas = [(0.4, 0.1), (0.1, 0.3)]
    ct = make_table(p, deltas, [0.2, 0.1])
    omega = relevance(ct).omega
    omega_ref, _ = omega_oracle(p, deltas)
    for got, want in zip(omega, omega_ref):
        assert np.allclose(got, want, atol=1e-12)


def test_separation_identity_by_construction():
    rng = np.random.default_rng(42)
    for _ in range(25):
        ct = random_cell_table(rng, q=int(rng.integers(2, 6)), d=2, require_passing=True)
        tw = relevance(ct)
        total = sum(p * o for p, o in zip(ct.p_hat, tw.omega))
        assert np.abs(total - np.eye(2)).max() < 1e-10


def test_rank_subadditivity_randomized():
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        ct = random_cell_table(rng, q=q, d=d)
        tw = relevance(ct)
        assert tw.rank <= min(d, q)


def test_relevance_rank_matches_matrix_rank():
    rng = np.random.default_rng(8)
    ranks = set()
    for _ in range(60):
        d = int(rng.integers(1, 6))
        q = int(rng.integers(1, 7))
        r = int(rng.integers(1, d + 1))
        # cell jumps in an r-dimensional subspace, one direction of it faint:
        # M has rank min(q, r), with an eigenvalue near scale**2 * max
        scale = float(rng.choice([1.0, 1e-2, 1e-4]))
        deltas = rng.normal(size=(q, r)) * np.append(np.ones(r - 1), scale) @ rng.normal(size=(r, d))
        p = rng.dirichlet(np.ones(q))
        tw = relevance(make_table(p.tolist(), deltas.tolist(), [0.0] * q))
        assert tw.rank == np.linalg.matrix_rank(tw.m_hat, hermitian=True)
        assert tw.rank == min(q, r)
        want = np.linalg.eigvalsh(tw.m_hat)
        got = tw.to_dict()["eigenvalues"]
        assert np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        ranks.add((tw.rank, d))
    assert any(rank < d for rank, d in ranks) and any(rank == d for rank, d in ranks)


def test_cell_table_fits_each_side_once(monkeypatch):
    ds = sample_dataset()
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, counted(name, fn))
    ct = cell_table(ds, EstimationConfig(bandwidth=10.0))
    assert ct.q_usable == ds.q and not ct.dropped
    # every (cell, side) fit comes from group sums: nothing is factored or solved
    assert calls == []


def test_plugin_orthogonal_design():
    ct = make_table([0.5, 0.5], [(1, 0), (0, 1)], [0.5, -0.3])
    beta = plugin_estimator(ct, relevance(ct))
    assert np.allclose(beta, [0.5, -0.3], atol=1e-12)


def test_plugin_zero_numerator():
    ct = make_table([0.5, 0.5], [(1, 0), (0, 1)], [0.0, 0.0])
    beta = plugin_estimator(ct, relevance(ct))
    assert np.allclose(beta, [0.0, 0.0], atol=1e-15)


def test_plugin_matches_matrix_oracle():
    p = [0.5, 0.5]
    deltas = [(0.4, 0.1), (0.1, 0.3)]
    dys = [0.2, 0.1]
    ct = make_table(p, deltas, dys)
    beta = plugin_estimator(ct, relevance(ct))
    want, _ = plugin_oracle(p, deltas, dys)
    assert np.allclose(beta, want, atol=1e-12)


def test_plugin_requires_relevance():
    ct = make_table([1.0], [(0.4, 0.2)], [0.1])
    with pytest.raises(RelevanceError):
        plugin_estimator(ct, relevance(ct))


def test_plugin_changes_only_through_cell_shares():
    # scaling one cell's weight mass moves p_hat but not the jumps
    rng = np.random.default_rng(3)
    for _ in range(10):
        ct = random_cell_table(rng, q=3, d=2, require_passing=True)
        scale = 2.5
        shares = ct.p_hat.copy()
        shares[1] *= scale
        p_new = shares / shares.sum()
        ct_scaled = make_table(p_new, ct.delta_x, ct.delta_y)
        got = plugin_estimator(ct_scaled, relevance(ct_scaled))
        want, _ = plugin_oracle(p_new, ct.delta_x, ct.delta_y)
        assert np.allclose(got, want, atol=1e-10)


def test_duplicating_cell_rows_scales_share_not_jumps():
    ds = piecewise_linear_dataset(jumps_x=[(1, 0), (0, 1)], jumps_y=[0.5, -0.3])
    import multirdd.data_model as dm

    keep = ds.cells == 1
    dup = dm.Dataset(
        y=np.concatenate([ds.y, ds.y[keep]]),
        z=np.concatenate([ds.z, ds.z[keep]]),
        x=np.vstack([ds.x, ds.x[keep]]),
        cells=np.concatenate([ds.cells, ds.cells[keep]]),
        cell_labels=ds.cell_labels,
    )
    cfg = EstimationConfig(bandwidth=2.0)
    base = cell_table(ds, cfg)
    doubled = cell_table(dup, cfg)
    assert np.allclose(doubled.delta_x, base.delta_x, atol=1e-12)
    assert np.allclose(doubled.delta_y, base.delta_y, atol=1e-12)
    assert doubled.p_hat[1] == pytest.approx(2 * base.p_hat[1] / (1 + base.p_hat[1]), abs=1e-12)


def test_ratio_late_cases():
    ct = make_table([1.0], [(0.0, 0.3)], [0.06])
    res = ratio_late(ct, 0, j=2)
    assert res.identified
    assert res.value == pytest.approx(0.2, abs=1e-12)

    ct2 = make_table([1.0], [(0.05, 0.3)], [0.06])
    res2 = ratio_late(ct2, 0, j=2)
    assert not res2.identified
    assert res2.blocking == {"x1": pytest.approx(0.05)}

    ct3 = make_table([1.0], [(0.0, 0.0)], [0.06])
    res3 = ratio_late(ct3, 0, j=1)
    assert not res3.identified


def test_ratio_late_margin_bounds():
    ct = make_table([1.0], [(0.0, 0.3)], [0.06])
    with pytest.raises(ValueError):
        ratio_late(ct, 0, j=0)
    with pytest.raises(ValueError):
        ratio_late(ct, 0, j=3)
    # a cell outside the table names the range instead of wrapping or raising IndexError
    for cell in (-1, 1):
        with pytest.raises(ValueError, match=r"cell must lie in \[0, 0\], got"):
            ratio_late(ct, cell, j=2)


def test_wlate_feasibility_cases():
    ct = make_table([0.5, 0.5], [(0.0, 0.3), (0.2, 0.1)], [0.06, 0.1])
    ok = wlate_feasibility(ct, [1.0, 0.0], j=2)
    assert ok.feasible and not ok.trivial

    bad = wlate_feasibility(ct, [0.0, 1.0], j=2)
    assert not bad.feasible
    assert bad.violations[0][0] == "cell001"

    trivial = wlate_feasibility(ct, [0.0, 0.0], j=2)
    assert trivial.feasible and trivial.trivial

    # a weight that is not a number is an error, not a feasible load on a clean cell
    for weight in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="weights must be finite, got cell000: "):
            wlate_feasibility(ct, [weight, 0.0], j=2)


def test_non_identification_witness_single_cell():
    # a single cell admits a null direction orthogonal to the first stages,
    # so the identifying equation cannot pin the effect vector down
    rng = np.random.default_rng(11)
    for _ in range(50):
        delta = rng.uniform(-1, 1, size=2)
        if np.linalg.norm(delta) < 1e-3:
            continue
        beta0 = rng.uniform(-1, 1, size=2)
        dy = float(beta0 @ delta)
        null_dir = np.array([delta[1], -delta[0]])
        assert abs(null_dir @ delta) <= 1e-12
        res0 = abs(dy - beta0 @ delta)
        res1 = abs(dy - (beta0 + null_dir) @ delta)
        assert abs(res0 - res1) <= 1e-12
