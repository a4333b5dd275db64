import hashlib
import json

import numpy as np
import pytest

from multirdd.data_model import Dataset, EstimationConfig, ModelSpec, validate_dataset
from multirdd.discontinuities import cell_table, ratio_late, relevance, wlate_feasibility
from multirdd.errors import EstimationError, InputError, SingularDesignError
from multirdd.estimator import estimate
from multirdd.kernels import KernelKind
from multirdd.montecarlo import (
    DgpSpec,
    default_config,
    generate,
    load_dgp_spec,
    population_targets,
    run_study,
)
from oracles import plugin_oracle


def homogeneous_dgp(q=3, beta=(0.5, -0.3), noise=0.35, seed=7, **kw):
    layouts = {
        3: dict(
            cell_probs=(0.4, 0.35, 0.25),
            base_levels=((0.55, 0.25), (0.50, 0.30), (0.70, 0.15)),
            jumps=((0.25, 0.10), (0.10, 0.30), (0.05, 0.45)),
            intercepts=(0.2, 0.4, -0.1),
        ),
        6: dict(
            cell_probs=(0.22, 0.2, 0.18, 0.15, 0.15, 0.1),
            base_levels=(
                (0.55, 0.25),
                (0.50, 0.30),
                (0.65, 0.15),
                (0.60, 0.20),
                (0.45, 0.25),
                (0.70, 0.10),
            ),
            jumps=(
                (0.30, 0.05),
                (0.05, 0.30),
                (0.20, 0.20),
                (0.25, 0.15),
                (0.10, 0.25),
                (0.15, 0.10),
            ),
            intercepts=(0.2, 0.4, -0.1, 0.3, 0.0, 0.1),
        ),
    }
    layout = layouts[q]
    base = dict(
        betas=tuple(tuple(beta) for _ in range(q)),
        slope_left=0.3,
        slope_right=0.5,
        noise_sd=noise,
        seed=seed,
    )
    base.update(layout)
    base.update(kw)
    return DgpSpec(**base)


def test_population_targets_homogeneous_fixed_point():
    dgp = homogeneous_dgp()
    t = population_targets(dgp)
    assert t.identified
    assert np.array_equal(t.beta_bar, np.array([0.5, -0.3]))


def test_population_target_arrays_are_write_locked():
    t = population_targets(homogeneous_dgp())
    for a in (t.beta_bar, t.delta_x, t.delta_y, t.m_matrix, *t.omega):
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1.0


def test_population_targets_derived_case():
    dgp = DgpSpec(
        cell_probs=(0.5, 0.5),
        base_levels=((0.0, 0.0), (1.0, 0.0)),
        jumps=((1.0, 0.0), (0.0, 1.0)),
        betas=((1.0, 1.0), (0.0, 0.0)),
        intercepts=(0.0, 0.0),
    )
    t = population_targets(dgp)
    # direct matrix arithmetic oracle on the same cells
    want, _ = plugin_oracle([0.5, 0.5], [(1, 0), (0, 1)], t.delta_y)
    assert np.allclose(t.beta_bar, [1.0, 0.0], atol=1e-12)
    assert np.allclose(t.beta_bar, want, atol=1e-12)


def test_population_targets_rank_deficient_flagged():
    dgp = DgpSpec(
        cell_probs=(1.0,),
        base_levels=((0.5, 0.2),),
        jumps=((0.3, 0.1),),
        betas=((0.5, -0.3),),
        intercepts=(0.0,),
    )
    t = population_targets(dgp)
    assert not t.identified
    assert t.beta_bar is None
    assert t.delta_x.shape == (1, 2)  # cell-wise targets still reported


def test_every_report_value_serializes_to_json():
    dgp = homogeneous_dgp()
    ds = generate(dgp, 3000, 11)
    cfg = default_config(dgp)
    # a fourth cell left of the cutoff only, so the cell table reports a dropped cell
    cells = np.where((ds.z > -0.2) & (ds.z < -0.1) & (ds.cells == 0), 3, ds.cells)
    labels = ds.cell_labels + ("left",)
    ct = cell_table(Dataset(y=ds.y, z=ds.z, x=ds.x, cells=cells, cell_labels=labels), cfg)
    assert ct.dropped
    unidentified = DgpSpec(
        cell_probs=(1.0,), base_levels=((0.5, 0.2),), jumps=((0.3, 0.1),),
        betas=((0.5, -0.3),), intercepts=(0.0,),
    )
    values = [
        estimate(ds, ModelSpec(), cfg),
        ct,
        relevance(ct),
        ratio_late(ct, 0, 1),
        wlate_feasibility(ct, [1.0, 0.0, 0.0], 1),
        validate_dataset(ds, cfg),
        dgp,
        population_targets(dgp),
        population_targets(unidentified),
        run_study(dgp, n=1500, reps=2, seed=4),
    ]
    for value in values:
        doc = json.loads(json.dumps(value.to_dict()))
        assert doc, type(value).__name__
    assert json.loads(json.dumps(population_targets(dgp).to_dict()))["identified"] is True


def test_dgp_validation_errors():
    with pytest.raises(InputError, match="sum to 1"):
        DgpSpec(
            cell_probs=(0.5, 0.4),
            base_levels=((0.5,), (0.5,)),
            jumps=((0.1,), (0.1,)),
            betas=((0.5,), (0.5,)),
            intercepts=(0.0, 0.0),
        )
    with pytest.raises(InputError, match="nonnegative"):
        DgpSpec(
            cell_probs=(1.0,),
            base_levels=((0.5,),),
            jumps=((-0.1,),),
            betas=((0.5,),),
            intercepts=(0.0,),
        )
    with pytest.raises(InputError, match="non-increasing"):
        DgpSpec(
            cell_probs=(1.0,),
            base_levels=((0.5, 0.2),),
            jumps=((0.1, 0.5),),
            betas=((0.5, 0.1),),
            intercepts=(0.0,),
        )
    with pytest.raises(InputError, match=r"\[0, 1\]"):
        DgpSpec(
            cell_probs=(1.0,),
            base_levels=((0.9,),),
            jumps=((0.3,),),
            betas=((0.5,),),
            intercepts=(0.0,),
        )


def test_generate_deterministic():
    dgp = homogeneous_dgp()
    a = generate(dgp, 500, 11)
    b = generate(dgp, 500, 11)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.cells, b.cells)
    c = generate(dgp, 500, 12)
    assert not np.array_equal(a.y, c.y)


# SHA-256 of generate(layout, 2000, 20260)'s y, z, x and cells, pinned when the
# draw's lookups were vectorized and re-taken over these four arrays from the same
# draws when the dataset stopped storing cell dummies; the draws must not change.
GENERATE_SHA256 = {
    "COVERAGE": "7b61985ab4cedd71582ec89ceaa5e1125577d1f56fe18cb5cc8179ba44994598",
    "JSIZE": "190923a2b88fce50553f70998a3d1fdf701f9ce40399adc86827bf4effef96a4",
    "JPOWER": "3190a97db5cf70df61eea15ce1857bfdfa973c7a90eebd7b43cff62a83023e3b",
}


@pytest.mark.parametrize("layout", sorted(GENERATE_SHA256))
def test_generate_draws_are_pinned(layout):
    import test_acceptance

    ds = generate(getattr(test_acceptance, f"{layout}_DGP"), 2000, 20260)
    digest = hashlib.sha256()
    for a in (ds.y, ds.z, ds.x, ds.cells):
        assert a.dtype.itemsize == 8 and a.flags.c_contiguous
        digest.update(a.tobytes())
    assert digest.hexdigest() == GENERATE_SHA256[layout]


def test_generate_monotone_cumulative_rows():
    dgp = homogeneous_dgp(noise=0.1)
    ds = generate(dgp, 5000, 3)
    assert (np.diff(ds.x, axis=1) <= 0).all()
    # crossing the cutoff never decreases an indicator in distribution:
    # within each cell the right-side crossing share dominates the left
    for l in range(ds.q):
        mask = ds.cells == l
        right = mask & (ds.z >= 0)
        left = mask & (ds.z < 0)
        assert ds.x[right].mean(axis=0).min() >= ds.x[left].mean(axis=0).min() - 0.05


def test_generate_single_margin_jump_half():
    dgp = DgpSpec(
        cell_probs=(1.0,),
        base_levels=((0.5,),),
        jumps=((0.5,),),
        betas=((1.0,),),
        intercepts=(0.0,),
        noise_sd=0.0,
    )
    ds = generate(dgp, 200_000, 5)
    right = ds.z >= 0
    gap = ds.x[right, 0].mean() - ds.x[~right, 0].mean()
    assert gap == pytest.approx(0.5, abs=0.01)


def test_generate_cell_frequencies_binomial_bound():
    dgp = homogeneous_dgp()
    n = 200_000
    ds = generate(dgp, n, 9)
    probs = np.asarray(dgp.cell_probs)
    freq = np.bincount(ds.cells, minlength=dgp.q) / n
    bound = 4 * np.sqrt(probs * (1 - probs) / n)
    assert (np.abs(freq - probs) < bound).all()


def test_generate_rejects_bad_n():
    with pytest.raises(InputError):
        generate(homogeneous_dgp(), 0, 1)


def test_load_dgp_spec_roundtrip(tmp_path):
    dgp = homogeneous_dgp()
    path = tmp_path / "dgp.json"
    path.write_text(json.dumps(dgp.to_dict()), encoding="utf-8")
    loaded = load_dgp_spec(path)
    assert loaded == dgp
    listed = homogeneous_dgp(z_range=[-2.0, 1.5])  # as JSON gives it
    path.write_text(json.dumps(listed.to_dict()), encoding="utf-8")
    assert load_dgp_spec(path) == listed
    assert hash(listed) == hash(load_dgp_spec(path))
    with pytest.raises(InputError, match="not found"):
        load_dgp_spec(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(InputError, match="JSON"):
        load_dgp_spec(bad)
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({**dgp.to_dict(), "what": 1}), encoding="utf-8")
    with pytest.raises(InputError, match="unknown fields"):
        load_dgp_spec(extra)


def test_noiseless_pipeline_exact():
    dgp = homogeneous_dgp(noise=0.0)
    targets = population_targets(dgp)
    ds = generate(dgp, dgp.q * 20 * 10, 21)
    fit = estimate(ds, ModelSpec(), EstimationConfig(bandwidth=0.25))
    assert np.abs(fit.beta - targets.beta_bar).max() < 1e-8


def test_run_study_single_rep_flags_sd():
    res = run_study(homogeneous_dgp(), n=2000, reps=1, seed=5)
    assert res.reps == 1
    assert res.sd is None
    assert not res.sd_defined
    assert len(res.mean_estimate) == 2


def test_run_study_requires_reps():
    with pytest.raises(InputError, match="reps"):
        run_study(homogeneous_dgp(), n=1000, reps=0)


def test_run_study_unidentified_dgp_rejected():
    dgp = DgpSpec(
        cell_probs=(1.0,),
        base_levels=((0.5, 0.2),),
        jumps=((0.3, 0.1),),
        betas=((0.5, -0.3),),
        intercepts=(0.0,),
    )
    with pytest.raises(EstimationError, match="not identified"):
        run_study(dgp, n=1000, reps=2)


def test_run_study_ignores_workers_with_a_warning():
    dgp = homogeneous_dgp()
    with pytest.warns(FutureWarning, match="workers"):
        ignored = run_study(dgp, n=1500, reps=2, seed=3, workers=4)
    assert ignored.to_json() == run_study(dgp, n=1500, reps=2, seed=3).to_json()


def test_each_replication_replays_from_seed_and_rep_alone():
    # replication r draws from SeedSequence(entropy=seed, spawn_key=(r,)) and nothing else
    dgp = homogeneous_dgp()
    n, reps, seed = 1500, 6, 3
    study = run_study(dgp, n=n, reps=reps, seed=seed)
    assert study.successes == reps
    cfg = default_config(dgp)
    betas = {}
    for r in reversed(range(reps)):  # each alone, in another order than the study's
        ds = generate(dgp, n, np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        betas[r] = estimate(ds, ModelSpec(), cfg).beta
    replayed = np.asarray([betas[r] for r in range(reps)]).mean(axis=0)
    assert tuple(replayed.tolist()) == study.mean_estimate


def test_run_study_lets_a_programming_error_escape(monkeypatch):
    from multirdd import montecarlo

    def broken(*args, **kwargs):
        raise TypeError("a fault in the code, not a failed draw")

    monkeypatch.setattr(montecarlo, "estimate", broken)
    with pytest.raises(TypeError, match="fault in the code"):
        run_study(homogeneous_dgp(), n=1500, reps=3, seed=2)


def test_run_study_counts_a_package_error_as_a_failed_replication(monkeypatch):
    from multirdd import montecarlo

    calls = []

    def singular_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise SingularDesignError("design is numerically singular")
        return estimate(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "estimate", singular_once)
    res = run_study(homogeneous_dgp(), n=1500, reps=3, seed=2)
    assert (res.successes, res.failures, res.relevance_failures) == (2, 1, 0)


def test_run_study_accounting_is_exact():
    res = run_study(homogeneous_dgp(), n=1500, reps=6, seed=2)
    assert res.successes + res.failures == res.reps


def test_smoothing_bias_shrinks_with_bandwidth():
    # curvature on one side exposes the local-linear boundary bias; halving
    # the window four-fold should cut it by roughly the square
    dgp = homogeneous_dgp(noise=0.0, curvature_right=1.5, seed=13)
    targets = population_targets(dgp)
    ds = generate(dgp, 150_000, 17)
    wide = estimate(ds, ModelSpec(), EstimationConfig(bandwidth=0.6))
    narrow = estimate(ds, ModelSpec(), EstimationConfig(bandwidth=0.15))
    err_wide = np.abs(wide.beta - targets.beta_bar).max()
    err_narrow = np.abs(narrow.beta - targets.beta_bar).max()
    assert err_wide > 1e-3
    assert err_narrow < err_wide / 3
