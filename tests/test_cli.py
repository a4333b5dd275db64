import csv
import errno
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from multirdd.cli import _quantile_edges, _series_bins, main
from multirdd.data_model import EstimationConfig, TableSchema, load_table
from multirdd.kernels import KernelKind
from oracles import series_oracle
from synthetic import piecewise_linear_dataset

SAMPLE_DIR = Path(__file__).parent.parent / "sample_data"

ESTIMATE_ARGS = [
    "estimate",
    "--data",
    str(SAMPLE_DIR / "insurance_style.csv"),
    "--outcome",
    "delayed_care",
    "--running",
    "age",
    "--cutoff",
    "65",
    "--treatment",
    "coverage",
    "--w",
    "race,educ",
    "--controls",
    "region",
    "--cluster",
    "age",
    "--kernel",
    "uniform",
    "--bandwidth",
    "10",
]


def write_dataset_csv(path, ds, extra_cols=None):
    t = ds.x.sum(axis=1).astype(int)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["y", "z", "t", "cell"]
        if extra_cols:
            header += list(extra_cols)
        writer.writerow(header)
        for i in range(ds.n):
            row = [f"{ds.y[i]:.8f}", f"{ds.z[i]:.8f}", t[i], ds.cell_labels[ds.cells[i]]]
            if extra_cols:
                row += [extra_cols[c][i] for c in extra_cols]
            writer.writerow(row)


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_report_schema(capsys, tmp_path):
    out = tmp_path / "fit.json"
    code, _, _ = run_cli(capsys, ESTIMATE_ARGS + ["--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    for key in ("beta", "se", "j_stat", "j_dof", "j_pvalue", "coefficients", "first_stage"):
        assert key in doc
    assert doc["j_dof"] == 4  # six cells, two treatment margins
    assert doc["config"]["cutoff"] == 65.0


def test_estimate_success_builds_relevance_only(capsys, monkeypatch):
    import multirdd.cli as cli

    def unexpected(*args, **kwargs):
        raise AssertionError("the success path builds only the relevance matrix")

    calls = []
    cell_table = cli.cell_table

    def counted_cell_table(*args, **kwargs):
        calls.append(args)
        return cell_table(*args, **kwargs)

    monkeypatch.setattr(cli, "cell_table", counted_cell_table)
    monkeypatch.setattr(cli, "ratio_late", unexpected)
    monkeypatch.setattr(cli, "validate_dataset", unexpected)
    code, out, _ = run_cli(capsys, ESTIMATE_ARGS)
    assert code == 0
    assert len(calls) == 1
    assert json.loads(out)["first_stage"]["joint_min_eigenvalue"] > 0


def test_estimate_deterministic(capsys, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, ESTIMATE_ARGS + ["--out", str(out1)])[0] == 0
    assert run_cli(capsys, ESTIMATE_ARGS + ["--out", str(out2)])[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_estimate_invariant_to_the_units_of_age(capsys, tmp_path):
    with (SAMPLE_DIR / "insurance_style.csv").open(encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    age = rows[0].index("age")
    for row in rows[1:]:
        row[age] = repr(float(row[age]) * 1000)  # thousandths of a year
    path = tmp_path / "age_milli.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    args = list(ESTIMATE_ARGS)
    for flag, value in (("--data", str(path)), ("--cutoff", "65000"), ("--bandwidth", "10000")):
        args[args.index(flag) + 1] = value
    docs = []
    for argv in (ESTIMATE_ARGS, args):
        code, out, err = run_cli(capsys, argv)
        assert code == 0, err
        docs.append(json.loads(out))
    base, milli = docs
    for key in ("beta", "se"):
        for name, want in base[key].items():
            assert milli[key][name] == pytest.approx(want, rel=1e-8, abs=0), (key, name)
    assert milli["j_pvalue"] == pytest.approx(base["j_pvalue"], rel=1e-8, abs=0)


def test_estimate_text_format(capsys):
    code, out, _ = run_cli(capsys, ESTIMATE_ARGS + ["--format", "text"])
    assert code == 0
    assert "J-test p-value" in out
    assert "(0." in out  # standard errors in parentheses


def test_estimate_under_identified_exits_2(capsys, tmp_path):
    ds = piecewise_linear_dataset(jumps_x=[(1, 0), (0, 1)], jumps_y=[0.5, -0.3])
    path = tmp_path / "flat.csv"
    write_dataset_csv(path, ds)
    out = tmp_path / "report.json"
    code, _, err = run_cli(
        capsys,
        [
            "estimate",
            "--data",
            str(path),
            "--outcome",
            "y",
            "--running",
            "z",
            "--treatment",
            "t",
            # no --w: q = m + 1 = 1 < d = 2
            "--bandwidth",
            "2.0",
            "--out",
            str(out),
        ],
    )
    assert code == 2
    assert "under-identified: q=m+1=1 < d=2" in err
    doc = json.loads(out.read_text())
    assert "error" in doc


def test_estimate_missing_column_exits_1(capsys):
    code, _, err = run_cli(
        capsys,
        [
            "estimate",
            "--data",
            str(SAMPLE_DIR / "insurance_style.csv"),
            "--outcome",
            "nope",
            "--running",
            "age",
            "--treatment",
            "coverage",
            "--bandwidth",
            "10",
        ],
    )
    assert code == 1
    assert "nope" in err


def test_estimate_non_finite_covariate_exits_1(capsys, tmp_path):
    data = tmp_path / "data.csv"
    rows = [f"{i % 3},{i - 10},{int(i >= 10)},{i % 2}" for i in range(20)]
    rows[4] = "1,-6,0,inf"
    data.write_text("y,z,t,g\n" + "\n".join(rows) + "\n", encoding="utf-8")
    args = ["estimate", "--data", str(data), "--outcome", "y", "--running", "z"]
    code, _, err = run_cli(capsys, args + ["--treatment", "t", "--w", "g", "--bandwidth", "20"])
    assert code == 1
    assert "column 'g' has non-finite value inf in row 5" in err


def test_estimate_non_finite_conditioning_value_exits_1(capsys, tmp_path):
    data = tmp_path / "data.csv"
    rows = [f"{i % 3},{i - 10},{int(i >= 10)},{i % 2},{i % 2}" for i in range(20)]
    rows[4] = "1,-6,0,0,inf"
    data.write_text("y,z,t,g,rnum\n" + "\n".join(rows) + "\n", encoding="utf-8")
    args = ["estimate", "--data", str(data), "--outcome", "y", "--running", "z", "--treatment"]
    args += ["t", "--w", "g", "--model", "conditional", "--r", "rnum", "--bandwidth", "20"]
    code, _, err = run_cli(capsys, args)
    assert code == 1
    assert "column 'rnum' has non-finite value inf in row 5" in err


def test_estimate_missing_cluster_id_names_column_and_data_row(capsys, tmp_path):
    data = tmp_path / "data.csv"
    rows = [f"{i % 3},{i - 10},{int(i >= 10)},{i % 2},{i // 4}" for i in range(20)]
    rows[6] = "1,-4,0,0,"
    data.write_text("y,z,t,g,cl\n" + "\n".join(rows) + "\n", encoding="utf-8")
    args = ["estimate", "--data", str(data), "--outcome", "y", "--running", "z", "--treatment"]
    args += ["t", "--w", "g", "--cluster", "cl", "--bandwidth", "5"]
    code, _, err = run_cli(capsys, args)
    assert code == 1
    assert "cluster column 'cl' has a missing id in data row 7" in err


def test_estimate_unknown_cluster_column_exits_1(capsys):
    args = list(ESTIMATE_ARGS)
    args[args.index("--cluster") + 1] = "nosuch"
    code, _, err = run_cli(capsys, args)
    assert code == 1
    assert "cluster column 'nosuch' not found" in err
    assert "delayed_care" in err  # and the table's columns


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = {
        "data": str(SAMPLE_DIR / "insurance_style.csv"),
        "outcome": "delayed_care",
        "running": "age",
        "cutoff": 65,
        "treatment": "coverage",
        "w": "race,educ",
        "bandwidth": 4.0,
        "kernel": "uniform",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out1 = tmp_path / "one.json"
    code, _, _ = run_cli(capsys, ["estimate", "--config", str(cfg_path), "--out", str(out1)])
    assert code == 0
    assert json.loads(out1.read_text())["config"]["bandwidth"] == 4.0
    out2 = tmp_path / "two.json"
    code, _, _ = run_cli(
        capsys,
        ["estimate", "--config", str(cfg_path), "--bandwidth", "10", "--out", str(out2)],
    )
    assert code == 0
    assert json.loads(out2.read_text())["config"]["bandwidth"] == 10.0


def estimate_config() -> dict:
    """ESTIMATE_ARGS as the keys of a config file."""
    flags = ESTIMATE_ARGS[1:]
    return {flag[2:].replace("-", "_"): value for flag, value in zip(flags[::2], flags[1::2])}


@pytest.mark.parametrize(
    "subcommand, key, value, as_flag",
    [
        ("estimate", "kernel", "foo", True),
        ("estimate", "treatment_levels", "0,x", True),
        ("estimate", "kernel", "foo", False),
        ("estimate", "treatment_levels", "0,x", False),
        ("estimate", "bandwidth", "ten", False),
        ("estimate", "cutoff", "sixty-five", False),
        ("estimate", "treatment_levels", 2, False),
        ("estimate", "w", 5, False),
        ("diagnose", "bandwidth", [10], False),
        ("simulate", "n", "many", False),
        ("simulate", "reps", "x", False),
        ("simulate", "kernel", "foo", True),
        ("estimate", "format", "xml", False),
        ("diagnose", "format", "xml", False),
        ("simulate", "format", "xml", False),
        ("diagnose", "format", "text", True),
        ("diagnose", "format", "text", False),
    ],
)
def test_bad_option_value_is_an_input_error(capsys, tmp_path, subcommand, key, value, as_flag):
    if subcommand == "simulate":
        cfg = {"data": str(SAMPLE_DIR / "dgp_homogeneous.json"), "n": 500, "reps": 1}
    else:
        cfg = estimate_config()
    flags = []
    if as_flag:
        flags = [f"--{key.replace('_', '-')}", value]
    else:
        cfg[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code, _, err = run_cli(capsys, [subcommand, "--config", str(cfg_path)] + flags)
    assert code == 1
    assert err.startswith("error:")
    assert f"--{key.replace('_', '-')}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["bandwidht", "rcond_threshold"])
def test_config_unknown_key_is_an_input_error(capsys, tmp_path, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**estimate_config(), key: 0.5}), encoding="utf-8")
    code, out, err = run_cli(capsys, ["estimate", "--config", str(cfg_path)])
    assert code == 1
    assert err.startswith("error:") and repr(key) in err
    assert out == ""
    # a key of another subcommand is a flag name, so one file may serve every subcommand
    cfg_path.write_text(json.dumps({**estimate_config(), "reps": 3}), encoding="utf-8")
    assert run_cli(capsys, ["estimate", "--config", str(cfg_path)])[0] == 0


def test_diagnose_passing_dataset(capsys, tmp_path):
    ds = piecewise_linear_dataset(jumps_x=[(1, 0), (0, 1)], jumps_y=[0.5, -0.3])
    path = tmp_path / "two_cell.csv"
    write_dataset_csv(path, ds)
    out = tmp_path / "diag.json"
    code, _, _ = run_cli(
        capsys,
        [
            "diagnose",
            "--data",
            str(path),
            "--outcome",
            "y",
            "--running",
            "z",
            "--treatment",
            "t",
            "--w",
            "cell",
            "--bandwidth",
            "2.0",
            "--out",
            str(out),
        ],
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["relevance"]["passed"]
    # orthogonal unit jumps with equal shares: M = I/2
    assert doc["relevance"]["min_eigenvalue"] == pytest.approx(0.5, abs=1e-9)
    ratios = doc["ratio_late"]
    assert ratios["cell000"]["x1"]["identified"]
    assert ratios["cell000"]["x2"]["identified"] is False
    assert ratios["cell001"]["x2"]["identified"]


def test_diagnose_rank_deficient_exits_2_but_writes(capsys, tmp_path):
    ds = piecewise_linear_dataset(jumps_x=[(1, 1)], jumps_y=[0.4])
    path = tmp_path / "one_cell.csv"
    write_dataset_csv(path, ds)
    out = tmp_path / "diag.json"
    code, _, err = run_cli(
        capsys,
        [
            "diagnose",
            "--data",
            str(path),
            "--outcome",
            "y",
            "--running",
            "z",
            "--treatment",
            "t",
            "--treatment-levels",
            "0,1,2",
            "--bandwidth",
            "2.0",
            "--out",
            str(out),
        ],
    )
    assert code == 2
    assert "relevance" in err
    doc = json.loads(out.read_text())
    assert doc["relevance"]["passed"] is False
    assert doc["relevance"]["rank"] <= 1


def test_simulate_schema_and_seed_determinism(capsys, tmp_path):
    args = [
        "simulate",
        "--data",
        str(SAMPLE_DIR / "dgp_homogeneous.json"),
        "--reps",
        "6",
        "--n",
        "1500",
        "--seed",
        "4",
    ]
    out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
    assert run_cli(capsys, args + ["--out", str(out1)])[0] == 0
    assert run_cli(capsys, args + ["--out", str(out2)])[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    for key in ("coverage", "bias", "mean_se", "j_rejection_rate", "reps"):
        assert key in doc


def test_simulate_kernel_applies_without_bandwidth(capsys, tmp_path):
    from multirdd.montecarlo import default_config, load_dgp_spec

    spec = SAMPLE_DIR / "dgp_homogeneous.json"
    out = tmp_path / "sim.json"
    args = ["simulate", "--data", str(spec), "--reps", "2", "--n", "1500", "--seed", "4"]
    assert run_cli(capsys, args + ["--kernel", "triangular", "--out", str(out)])[0] == 0
    config = json.loads(out.read_text())["config"]
    assert config["kernel"] == "triangular"
    assert config["bandwidth"] == default_config(load_dgp_spec(str(spec))).bandwidth
    # a null in a config file leaves the option unset, as an omitted flag does
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bandwidth": None, "kernel": "triangular"}), encoding="utf-8")
    assert run_cli(capsys, args + ["--config", str(cfg_path), "--out", str(out)])[0] == 0
    assert json.loads(out.read_text())["config"] == config


def test_simulate_zero_reps_exits_1(capsys):
    code, _, err = run_cli(
        capsys,
        [
            "simulate",
            "--data",
            str(SAMPLE_DIR / "dgp_homogeneous.json"),
            "--reps",
            "0",
            "--n",
            "500",
        ],
    )
    assert code == 1
    assert "reps" in err


def test_simulate_text_summary(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "simulate",
            "--data",
            str(SAMPLE_DIR / "dgp_homogeneous.json"),
            "--reps",
            "3",
            "--n",
            "1200",
            "--format",
            "text",
        ],
    )
    assert code == 0
    assert "J rejection rate" in out
    assert "cover95" in out


def test_missing_config_file(capsys):
    code, _, err = run_cli(capsys, ["estimate", "--config", "/nope/missing.json"])
    assert code == 1
    assert "config" in err


def test_estimate_conditional_model(capsys, tmp_path):
    out = tmp_path / "cond.json"
    code, _, _ = run_cli(
        capsys,
        ESTIMATE_ARGS
        + ["--model", "conditional", "--r", "race", "--w", "educ", "--out", str(out)],
    )
    assert code == 0
    doc = json.loads(out.read_text())
    names = list(doc["beta"])
    assert any("race=MIN" in n for n in names)
    assert any("race=WH" in n for n in names)
    assert len(names) == 4  # two margins for each of two strata


def test_estimate_parametric_model(capsys, tmp_path):
    out = tmp_path / "param.json"
    code, _, _ = run_cli(
        capsys,
        ESTIMATE_ARGS + ["--model", "parametric", "--wtilde", "region", "--out", str(out)],
    )
    assert code == 0
    doc = json.loads(out.read_text())
    names = list(doc["beta"])
    assert "region:x1" in names and "region:x2" in names
    assert doc["j_dof"] == 2  # 6 instruments minus 4 endogenous columns


def test_estimate_reports_joint_min_eigenvalue(capsys, tmp_path):
    out = tmp_path / "fit.json"
    assert run_cli(capsys, ESTIMATE_ARGS + ["--out", str(out)])[0] == 0
    doc = json.loads(out.read_text())
    assert doc["first_stage"]["joint_min_eigenvalue"] > 0


def test_diagnose_series_export(capsys, tmp_path):
    series = tmp_path / "series.csv"
    out = tmp_path / "diag.json"
    code, _, _ = run_cli(
        capsys,
        [
            "diagnose",
            "--data",
            str(SAMPLE_DIR / "insurance_style.csv"),
            "--outcome",
            "delayed_care",
            "--running",
            "age",
            "--cutoff",
            "65",
            "--treatment",
            "coverage",
            "--w",
            "race,educ",
            "--bandwidth",
            "10",
            "--series",
            str(series),
            "--out",
            str(out),
        ],
    )
    assert code == 0
    lines = series.read_text().splitlines()
    assert lines[0] == "cell,side,z,count,y_mean,x1_mean,x2_mean"
    assert len(lines) > 12  # several bins per cell and side
    sides = {line.split(",")[1] for line in lines[1:]}
    assert sides == {"left", "right"}


SAMPLE_SCHEMA = TableSchema(
    outcome="delayed_care", running="age", cutoff=65.0, treatment="coverage",
    covariates=("race", "educ"),
)


def tiled_sample(path, folds, seed):
    """``folds`` copies of the sample's rows, shuffled, written to ``path``."""
    header, *rows = (SAMPLE_DIR / "insurance_style.csv").read_text(encoding="utf-8").splitlines()
    rows = rows * folds
    order = np.random.default_rng(seed).permutation(len(rows))
    path.write_text("\n".join([header] + [rows[i] for i in order]) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "folds, bandwidth, kernel, binned",
    [(1, 10.0, "uniform", True), (1, 1.5, "triangular", False), (5, 10.0, "epanechnikov", True)],
)
def test_series_bins_match_the_per_bin_oracle(tmp_path, folds, bandwidth, kernel, binned):
    data = SAMPLE_DIR / "insurance_style.csv"
    if folds > 1:
        data = tiled_sample(tmp_path / "tiled.csv", folds, seed=11)
    ds = load_table(data, SAMPLE_SCHEMA)
    cfg = EstimationConfig(bandwidth=bandwidth, kernel=KernelKind.from_name(kernel))
    got = [
        (label, side, zb, nb, mb)
        for label, side, z, count, means in _series_bins(ds, cfg)
        for zb, nb, mb in zip(z.tolist(), count.tolist(), means.tolist())
    ]
    want = series_oracle(ds, cfg)
    assert [row[:4] for row in got] == [row[:4] for row in want]
    np.testing.assert_allclose([row[4] for row in got], [row[4] for row in want], rtol=1e-12)
    # a bin's z is a value of the data unless the side is binned by quantiles
    data_z = set(ds.z.tolist())
    assert all(row[2] in data_z for row in want) is not binned


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(1, 400),
        elements=st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1.0, 2.5]),
    )
)
def test_quantile_edges_equal_np_quantile_bit_for_bit(z):
    levels = np.linspace(0, 1, 61)
    got, want = _quantile_edges(np.sort(z), levels), np.quantile(z, levels)
    if np.signbit(z[z == 0]).any():
        # a sort may put -0.0 before or after 0.0, so only a zero's sign may differ
        got, want = got + 0.0, want + 0.0
    assert got.tobytes() == want.tobytes()


def diagnose_args(series):
    return ["diagnose", *ESTIMATE_ARGS[1:], "--series", str(series)]


# each case: the argv, the flag or file role its error names, and the path it names;
# deny(path) makes opening path raise PermissionError, as it would for a user without access
UNUSABLE_PATHS = {
    "diagnose --series in a missing directory": lambda d, deny: (
        diagnose_args(d / "none" / "s.csv"), "--series", d / "none" / "s.csv"
    ),
    "estimate --out in a missing directory": lambda d, deny: (
        ESTIMATE_ARGS + ["--out", str(d / "none" / "o.json")], "--out", d / "none" / "o.json"
    ),
    "estimate --data is a directory": lambda d, deny: (
        ESTIMATE_ARGS + ["--data", str(d)], "data file", d
    ),
    "estimate --data is unreadable": lambda d, deny: (
        ESTIMATE_ARGS + ["--data", str(deny(d / "t.csv"))], "data file", d / "t.csv"
    ),
    "simulate --data is a directory": lambda d, deny: (
        ["simulate", "--data", str(d), "--reps", "1", "--n", "100"], "DGP spec file", d
    ),
    "simulate --data is unreadable": lambda d, deny: (
        ["simulate", "--data", str(deny(d / "dgp.json")), "--reps", "1"], "DGP spec file", d / "dgp.json"
    ),
    "--config is a directory": lambda d, deny: (["estimate", "--config", str(d)], "--config", d),
    "--config is unreadable": lambda d, deny: (
        ["estimate", "--config", str(deny(d / "c.json"))], "--config", d / "c.json"
    ),
}


@pytest.mark.parametrize("case", UNUSABLE_PATHS)
def test_unusable_path_is_one_input_error_line(capsys, monkeypatch, tmp_path, case):
    opened = Path.open

    def deny(path):
        path.write_text("{}", encoding="utf-8")

        def guarded(self, *args, **kwargs):
            if self == path:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))
            return opened(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", guarded)
        return path

    argv, role, path = UNUSABLE_PATHS[case](tmp_path, deny)
    code, _, err = run_cli(capsys, argv)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert role in err and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("delimiter", [";", "\t"])
def test_delimiter_option_gives_the_comma_fit(capsys, tmp_path, delimiter):
    comma = SAMPLE_DIR / "insurance_style.csv"
    other = tmp_path / "sample.txt"
    other.write_text(comma.read_text(encoding="utf-8").replace(",", delimiter), encoding="utf-8")
    fits = []
    for data, extra in ((comma, []), (other, ["--delimiter", delimiter])):
        args = ESTIMATE_ARGS + extra + ["--out", str(tmp_path / "fit.json")]
        args[args.index("--data") + 1] = str(data)
        assert run_cli(capsys, args)[0] == 0
        doc = json.loads((tmp_path / "fit.json").read_text())
        del doc["config"]
        fits.append(doc)
    assert fits[0] == fits[1]
