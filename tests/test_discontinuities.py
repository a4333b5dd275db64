import numpy as np
import pytest

from multirdd.data_model import EstimationConfig
from multirdd.discontinuities import (
    cell_jump,
    cell_table,
    plugin_estimator,
    ratio_late,
    relevance,
    wlate_feasibility,
)
from multirdd.errors import CellUnusableError, EstimationError, RelevanceError
from multirdd.kernels import KernelKind, weights_vector
from oracles import jump_oracle, omega_oracle, plugin_oracle
from synthetic import piecewise_linear_dataset, random_cell_table

UNIT_WEIGHTS = lambda z: np.ones_like(z)  # noqa: E731


@pytest.mark.parametrize("kind", list(KernelKind))
@pytest.mark.parametrize("h", [0.6, 1.0, 2.5])
def test_cell_jump_exact_on_linear_data(kind, h):
    z = np.concatenate([np.linspace(-0.5, -0.05, 10), np.linspace(0.05, 0.5, 10)])
    values = 2.0 + 0.5 * z + 3.0 * (z >= 0)
    w = weights_vector(kind, h, z)
    jump = cell_jump(values, z, w)
    assert jump.delta == pytest.approx(3.0, abs=1e-12)
    assert jump.se_naive == pytest.approx(0.0, abs=1e-10)


def test_cell_jump_constant_values():
    z = np.linspace(-1, 1, 12)
    jump = cell_jump(np.full(12, 4.2), z, UNIT_WEIGHTS(z))
    assert jump.delta == pytest.approx(0.0, abs=1e-12)


def test_cell_jump_weight_scale_invariant():
    rng = np.random.default_rng(2)
    z = np.sort(rng.uniform(-1, 1, 30))
    values = rng.normal(size=30)
    w = weights_vector(KernelKind.TRIANGULAR, 1.0, z)
    a = cell_jump(values, z, w)
    b = cell_jump(values, z, 125.0 * w)
    assert a.delta == pytest.approx(b.delta, abs=1e-12)
    assert a.se_naive == pytest.approx(b.se_naive, rel=1e-10)


def test_cell_jump_quadratic_matches_normal_equations_oracle():
    z = np.linspace(-1, 1, 41)
    values = 1.0 + z * z
    w = weights_vector(KernelKind.UNIFORM, 1.0, z)
    jump = cell_jump(values, z, w)
    assert jump.delta == pytest.approx(jump_oracle(values, z, w), abs=1e-12)


def test_cell_jump_respects_mask():
    z = np.concatenate([np.linspace(-1, 1, 20), np.linspace(-1, 1, 20)])
    mask = np.zeros(40, dtype=bool)
    mask[:20] = True
    values = np.where(np.arange(40) < 20, 1.0 + 2.0 * (z >= 0), -50.0)
    jump = cell_jump(values, z, UNIT_WEIGHTS(z), mask=mask)
    assert jump.delta == pytest.approx(2.0, abs=1e-12)


def test_cell_jump_insufficient_side_support():
    z = np.array([-0.5, -0.4, -0.3, 0.2])
    with pytest.raises(CellUnusableError, match="right"):
        cell_jump(np.ones(4), z, UNIT_WEIGHTS(z), label="cell000")


def test_cell_jump_collinear_side():
    z = np.array([-0.5, -0.5, -0.5, 0.1, 0.2])
    with pytest.raises(CellUnusableError, match="left"):
        cell_jump(np.ones(5), z, UNIT_WEIGHTS(z))


def test_cell_table_reproduces_noiseless_jumps():
    ds = piecewise_linear_dataset(
        jumps_x=[(1, 0), (0, 1)],
        jumps_y=[0.5, -0.3],
        intercepts=[1.0, 2.0],
        slopes=[0.4, -0.2],
    )
    ct = cell_table(ds, EstimationConfig(bandwidth=2.0))
    assert ct.q_usable == 2
    assert np.allclose(ct.delta_x_matrix, [[1, 0], [0, 1]], atol=1e-12)
    assert np.allclose(ct.delta_y_vector, [0.5, -0.3], atol=1e-12)
    assert ct.p_hat.sum() == pytest.approx(1.0, abs=1e-12)


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
        w_dummies=ds.w_dummies,
    )
    ct = cell_table(broken, EstimationConfig(bandwidth=2.0))
    assert ct.q_usable == 1
    assert [c.label for c in ct.dropped] == ["cell001"]
    assert ct.dropped_weight_share == pytest.approx(0.5, abs=1e-12)
    assert ct.p_hat.sum() == pytest.approx(1.0, abs=1e-12)
    assert ds2.n  # silence unused warning


def test_cell_table_no_usable_cells_is_fatal():
    ds = piecewise_linear_dataset(jumps_x=[(1,)], jumps_y=[0.5])
    import multirdd.data_model as dm

    broken = dm.Dataset(
        y=ds.y,
        z=-np.abs(ds.z),
        x=ds.x,
        cells=ds.cells,
        cell_labels=ds.cell_labels,
        w_dummies=ds.w_dummies,
    )
    with pytest.raises(EstimationError, match="no usable cells"):
        cell_table(broken, EstimationConfig(bandwidth=2.0))


def make_table(p, deltas, dys):
    from multirdd.discontinuities import CellEstimate, CellTable

    d = len(deltas[0])
    cells = tuple(
        CellEstimate(
            index=l,
            label=f"cell{l:03d}",
            delta_x=np.asarray(deltas[l], dtype=float),
            delta_y=float(dys[l]),
            se_x=np.zeros(d),
            se_y=0.0,
            p_hat=float(p[l]),
            n_left=5,
            n_right=5,
            weight_mass=float(p[l]),
        )
        for l in range(len(p))
    )
    return CellTable(cells=cells, dropped=(), d=d)


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
        total = sum(p * o for p, o in zip(tw.p_hat, tw.omega))
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
    from pathlib import Path

    from multirdd.data_model import TableSchema, load_table

    schema = TableSchema(
        outcome="delayed_care", running="age", cutoff=65.0, treatment="coverage",
        covariates=("race", "educ"),
    )
    ds = load_table(Path(__file__).parent.parent / "sample_data" / "insurance_style.csv", schema)
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    ct = cell_table(ds, EstimationConfig(bandwidth=10.0))
    assert ct.q_usable == ds.q and not ct.dropped
    # one fit per cell and side, of y and every indicator at once
    assert len(calls) == 2 * ct.q_usable
    assert all(shape[1:] == (1 + ds.d,) for shape in calls)


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
        masses = np.asarray([c.weight_mass for c in ct.cells])
        masses[1] *= scale
        p_new = masses / masses.sum()
        ct_scaled = make_table(
            p_new, [c.delta_x for c in ct.cells], [c.delta_y for c in ct.cells]
        )
        got = plugin_estimator(ct_scaled, relevance(ct_scaled))
        want, _ = plugin_oracle(
            p_new, [c.delta_x for c in ct.cells], [c.delta_y for c in ct.cells]
        )
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
        w_dummies=np.vstack([ds.w_dummies, ds.w_dummies[keep]]),
    )
    cfg = EstimationConfig(bandwidth=2.0)
    base = cell_table(ds, cfg)
    doubled = cell_table(dup, cfg)
    assert np.allclose(doubled.delta_x_matrix, base.delta_x_matrix, atol=1e-12)
    assert np.allclose(doubled.delta_y_vector, base.delta_y_vector, atol=1e-12)
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


def test_wlate_feasibility_cases():
    ct = make_table([0.5, 0.5], [(0.0, 0.3), (0.2, 0.1)], [0.06, 0.1])
    ok = wlate_feasibility(ct, [1.0, 0.0], j=2)
    assert ok.feasible and not ok.trivial

    bad = wlate_feasibility(ct, [0.0, 1.0], j=2)
    assert not bad.feasible
    assert bad.violations[0][0] == "cell001"

    trivial = wlate_feasibility(ct, [0.0, 0.0], j=2)
    assert trivial.feasible and trivial.trivial


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
