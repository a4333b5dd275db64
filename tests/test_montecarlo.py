import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multirdd.data_model import Dataset, EstimationConfig, ModelSpec, validate_dataset
from multirdd.discontinuities import cell_table, ratio_late, relevance, wlate_feasibility
from multirdd.errors import EstimationError, InputError, SingularDesignError
from multirdd.estimator import estimate
from multirdd.kernels import KernelKind
from multirdd.montecarlo import (
    DgpSpec,
    _cells_of,
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
        validate_dataset(ds),
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


@pytest.mark.parametrize("change, says", [
    (dict(jumps=((0.1,), (0.1,), (0.1,))), "^cell_probs, base_levels, jumps, and betas must agree "
     r"on q and d; got probs \(3,\), base \(3, 2\), jumps \(3, 1\), betas \(3, 2\)$"),
    (dict(intercepts=(0.0, 0.1)), r"^intercepts must have one entry per cell, got \(2,\)$"),
    (dict(noise_sd=-0.5), "^noise_sd must be nonnegative, got -0.5$"),
])
def test_dgp_spec_refuses_a_wrong_shape_or_a_negative_noise(change, says):
    with pytest.raises(InputError, match=says):
        DgpSpec(**{**homogeneous_dgp().to_dict(), **change})


def test_load_dgp_spec_refuses_a_json_array(tmp_path):
    path = tmp_path / "dgp.json"
    path.write_text(json.dumps([homogeneous_dgp().to_dict()]), encoding="utf-8")
    says = f"^DGP spec {re.escape(str(path))} must hold a JSON object$"
    with pytest.raises(InputError, match=says):
        load_dgp_spec(path)


FLOAT_FIELDS = (
    "cell_probs", "base_levels", "jumps", "betas", "intercepts", "slope_left", "slope_right",
    "curvature_left", "curvature_right", "noise_sd", "z_range",
)


def first_entry_set(value, bad):
    """``value`` with its first number, at any depth of tuples, replaced by ``bad``."""
    if isinstance(value, tuple):
        return (first_entry_set(value[0], bad),) + value[1:]
    return bad


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_dgp_spec_refuses_a_number_that_is_not_finite(name, bad):
    doc = homogeneous_dgp().to_dict()
    doc[name] = first_entry_set(doc[name], bad)
    with pytest.raises(InputError, match=f"^{name} must be finite, got "):
        DgpSpec(**doc)


def test_load_dgp_spec_refuses_a_nan(tmp_path):
    path = tmp_path / "dgp.json"
    doc = {**homogeneous_dgp().to_dict(), "noise_sd": np.nan}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert "NaN" in path.read_text(encoding="utf-8")
    with pytest.raises(InputError, match="noise_sd must be finite, got nan"):
        load_dgp_spec(path)


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
# They held when the cell lookup became the package's own in place of
# Generator.choice, which drew the same uniforms and picked the same cells.
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


def draw_sha256(ds: Dataset) -> str:
    digest = hashlib.sha256()
    for a in (ds.y, ds.z, ds.x, ds.cells):
        digest.update(a.tobytes())
    return digest.hexdigest()


# SHA-256 of generate(layout, n, 20260, bandwidth=default_config(layout).bandwidth)'s
# y, z, x and cells at the benchmark's sample sizes, taken while Generator.choice
# still drew the cells for all n rows; the kept rows must not change.
WINDOWED_SHA256 = {
    ("COVERAGE", 5000): "14b5108fb972ea8d56b08f769d9bedbafc6ea54d3e8653986f1dec75afe9ddd7",
    ("JSIZE", 5000): "031a3dbbc16c9582b1e1d09638f20a8621d898822b50296c6512d55bbea7dabb",
    ("JPOWER", 20000): "ab5bc659c512a187511bfe50a0cbf056a084a2bda8549e89eb6a4bd4b482534a",
}


@pytest.mark.parametrize("layout, n", sorted(WINDOWED_SHA256))
def test_windowed_draws_are_pinned_at_the_benchmark_sizes(layout, n):
    import test_acceptance

    dgp = getattr(test_acceptance, f"{layout}_DGP")
    ds = generate(dgp, n, 20260, bandwidth=default_config(dgp).bandwidth)
    assert draw_sha256(ds) == WINDOWED_SHA256[layout, n]


def plain(state):
    """A bit generator's state with its arrays as lists, so two states compare with ==."""
    if isinstance(state, dict):
        return {k: plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
    off=st.floats(-9e-10, 9e-10),
    n=st.integers(1, 3000),
)
def test_the_cell_lookup_is_generator_choice(seed, weights, off, n):
    probs = np.asarray(weights) / sum(weights)
    probs[0] += off  # a sum DgpSpec accepts but that is not exactly 1
    assume(probs.sum() != 1.0 and abs(probs.sum() - 1.0) <= 1e-9)
    q = len(probs)
    dgp = DgpSpec(
        cell_probs=probs,
        base_levels=[[0.5]] * q,
        jumps=[[0.0]] * q,
        betas=[[0.0]] * q,
        intercepts=[0.0] * q,
    )
    theirs, ours = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
    expected = theirs.choice(q, size=n, p=np.asarray(dgp.cell_probs))
    cells = _cells_of(dgp.cell_probs, ours.random(n))
    assert cells.dtype == expected.dtype
    assert np.array_equal(cells, expected)
    assert plain(ours.bit_generator.state) == plain(theirs.bit_generator.state)


@pytest.mark.parametrize("seed", [7.9, "7", True, -5, None], ids=repr)
def test_generate_refuses_a_seed_that_is_not_a_nonnegative_integer(seed):
    message = re.escape(f"seed must be a nonnegative integer, got {seed!r}")
    with pytest.raises(InputError, match=f"^{message}$"):
        generate(homogeneous_dgp(), 500, seed)


# SHA-256 of generate(COVERAGE, 500, 7)'s y, z, x and cells, taken before seeds were checked
SEED_7_SHA256 = "208a02538a4603b1f6ab69743e9b48d6c59a10d1e8e7b32e028819a8eddbe6e5"


@pytest.mark.parametrize(
    "seed", [7, np.int64(7), np.random.SeedSequence(entropy=7)], ids=["int", "int64", "seq"]
)
def test_generate_draws_seed_7_as_before_however_it_is_given(seed):
    import test_acceptance

    assert draw_sha256(generate(test_acceptance.COVERAGE_DGP, 500, seed)) == SEED_7_SHA256


def random_dgp(seed: int, q: int, d: int, noise: bool) -> DgpSpec:
    """A valid DGP of q cells and d margins, its numbers drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    probs = rng.uniform(0.2, 1.0, q)
    right = -np.sort(-rng.uniform(0.05, 0.95, (q, d)), axis=1)  # non-increasing across margins
    base = right * rng.uniform(0.2, 0.9, (q, 1))
    slopes = rng.normal(size=4)
    return DgpSpec(
        cell_probs=probs / probs.sum(),
        base_levels=base,
        jumps=right - base,
        betas=rng.normal(size=(q, d)),
        intercepts=rng.normal(size=q),
        slope_left=slopes[0],
        slope_right=slopes[1],
        curvature_left=slopes[2],
        curvature_right=slopes[3],
        noise_sd=rng.uniform(0.1, 2.0) if noise else 0.0,
        z_range=(-rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)),
    )


def columns(ds: Dataset) -> list:
    return [(a.dtype, a.shape, a.tobytes()) for a in (ds.y, ds.z, ds.x, ds.cells)]


def fit_or_error(ds: Dataset, cfg: EstimationConfig):
    """The fit's reported values, arrays as bytes, or the text of the error it raised."""
    try:
        fit = estimate(ds, ModelSpec(), cfg)
    except EstimationError as err:
        return type(err), str(err)
    return fit.beta.tobytes(), fit.cov.tobytes(), json.dumps(fit.to_dict())


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.integers(2, 4),
    d=st.integers(1, 3),
    noise=st.booleans(),
    n=st.integers(20, 1500),
    kind=st.sampled_from(list(KernelKind)),
    reach=st.floats(1e-4, 1.5),
)
def test_the_windowed_draw_is_the_full_draw_restricted_to_the_support(
    seed, q, d, noise, n, kind, reach
):
    # reach is h as a share of the farther end of z_range: 1e-4 leaves a side empty, >= 1 all rows
    dgp = random_dgp(seed, q, d, noise)
    edge = max(-dgp.z_range[0], dgp.z_range[1])
    h = reach * edge
    full = generate(dgp, n, seed)
    windowed = generate(dgp, n, seed, bandwidth=h)
    inside = np.abs(full.z / h) <= 1
    restricted = Dataset(
        y=full.y[inside], z=full.z[inside], x=full.x[inside], cells=full.cells[inside],
        cell_labels=full.cell_labels,
    )
    assert columns(windowed) == columns(restricted)
    cfg = EstimationConfig(bandwidth=h, kernel=kind)
    assert fit_or_error(windowed, cfg) == fit_or_error(full, cfg)
    assert columns(generate(dgp, n, seed, bandwidth=edge)) == columns(full)


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


@pytest.mark.parametrize("bandwidth", [0.0, -0.1, np.inf, np.nan])
def test_generate_refuses_a_bandwidth_that_is_not_positive_and_finite(bandwidth):
    says = f"^bandwidth must be a positive finite number, got {bandwidth}$"
    with pytest.raises(InputError, match=says):
        generate(homogeneous_dgp(), 500, 1, bandwidth=bandwidth)


@pytest.mark.parametrize("n", [2500.0, np.float64(2500), True, "2500"], ids=repr)
def test_generate_and_run_study_refuse_a_sample_size_that_is_not_an_integer(n):
    message = re.escape(f"n must be an integer, got {n!r}")
    with pytest.raises(InputError, match=f"^{message}$"):
        generate(homogeneous_dgp(), n, 1)
    with pytest.raises(InputError, match=f"^{message}$"):
        run_study(homogeneous_dgp(), n=n, reps=2, seed=1)


@pytest.mark.parametrize("reps", [2.0, True, "3", 0])
def test_run_study_refuses_a_replication_count_that_is_not_a_positive_integer(reps):
    with pytest.raises(InputError, match=f"^reps must be a positive integer, got {reps!r}"):
        run_study(homogeneous_dgp(), n=1500, reps=reps, seed=1)


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


@pytest.mark.parametrize("seed", [-1, 2.5, "7"])
def test_run_study_checks_its_seed_as_the_spec_does(seed):
    with pytest.raises(InputError, match=f"seed must be a nonnegative integer, got {seed!r}"):
        run_study(homogeneous_dgp(), n=1000, reps=2, seed=seed)


def test_run_study_lets_a_bad_sample_size_escape():
    with pytest.raises(InputError, match="sample size must be positive, got 0"):
        run_study(homogeneous_dgp(), n=0, reps=2)


def test_run_study_fails_when_every_replication_fails():
    # no cell has two distinct z on both sides of the cutoff at h = 0.002
    with pytest.raises(EstimationError, match="^all 3 replications failed: exogenous block is "
                       r"rank deficient after weighting \(12 columns\)") as failed:
        run_study(homogeneous_dgp(), n=2000, reps=3, cfg=EstimationConfig(0.002), seed=1)
    assert isinstance(failed.value.__cause__, SingularDesignError)


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
