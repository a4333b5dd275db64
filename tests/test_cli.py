import contextlib
import csv
import errno
import io
import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from multirdd.cli import _quantile_edges, _series_bins, main
from multirdd.data_model import EstimationConfig, TableSchema, kernel_window, load_table
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
    assert "cluster column 'cl' has a missing value in row 7" in err


# one column per role that an estimate reads; all hold numbers, so a "" turns one to text
ROLE_COLUMNS = {
    "outcome": "y", "running": "z", "treatment": "t", "covariate": "w",
    "extra control": "ctl", "cluster": "cl", "conditioning": "r", "wtilde": "wt",
}
ROLE_ROWS = 48


def estimate_roles(path, rows, model):
    """Exit code and stderr of an in-process estimate of ``rows`` (ROLE_COLUMNS' fields)."""
    lines = [",".join(ROLE_COLUMNS.values())] + [",".join(fields) for fields in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = ["estimate", "--data", str(path), "--outcome", "y", "--running", "z", "--treatment",
            "t", "--w", "w", "--controls", "ctl", "--cluster", "cl", "--bandwidth", "3"]
    args += ["--model", "parametric", "--wtilde", "wt"] if model == "parametric" else [
        "--model", "conditional", "--r", "r"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    return code, err.getvalue()


def role_rows():
    """A table that both models fit: the window |z| < 3 holds every (stratum, cell, side)."""
    return [
        [str(v) for v in (i % 3, (i - 24) / 4, int(i >= 24) ^ (i % 5 == 0), i % 2, i % 5, i,
                          i // 2 % 2, i % 3)]
        for i in range(ROLE_ROWS)
    ]


@pytest.mark.parametrize("model", ["conditional", "parametric"])
def test_the_role_table_fits(tmp_path, model):
    code, err = estimate_roles(tmp_path / "data.csv", role_rows(), model)
    assert code == 0, err


@settings(max_examples=50, deadline=None)
@given(
    role=st.sampled_from(sorted(ROLE_COLUMNS)),
    row=st.integers(0, ROLE_ROWS - 1),
    bad=st.sampled_from(["", "nan", "inf", "-inf"]),
)
@example(role="wtilde", row=2, bad="nan")  # once read as a failed second stage
@example(role="cluster", row=0, bad="")  # a missing id outside the window
def test_a_bad_value_in_any_named_column_is_one_error_line(tmp_path_factory, role, row, bad):
    rows = role_rows()
    rows[row][list(ROLE_COLUMNS).index(role)] = bad
    path = tmp_path_factory.mktemp("roles") / "data.csv"
    code, err = estimate_roles(path, rows, "parametric" if role == "wtilde" else "conditional")
    what = "a missing value" if bad == "" else f"non-finite value {bad}"
    assert code == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{role} column {ROLE_COLUMNS[role]!r} has {what} in row {row + 1}" in err
    assert "Traceback" not in err


def test_a_conditioning_level_named_none_is_a_stratum(capsys, tmp_path):
    header, *rows = (SAMPLE_DIR / "insurance_style.csv").read_text(encoding="utf-8").splitlines()
    tagged = [f"{row},{'A' if i % 2 else 'None'}" for i, row in enumerate(rows)]
    data, out = tmp_path / "strat.csv", tmp_path / "fit.json"
    data.write_text("\n".join([header + ",strat"] + tagged) + "\n", encoding="utf-8")
    args = list(ESTIMATE_ARGS)
    args[args.index("--data") + 1] = str(data)
    args[args.index("--w") + 1] = "race"
    args += ["--model", "conditional", "--r", "strat", "--out", str(out)]
    code, _, err = run_cli(capsys, args)
    assert code == 0, err
    assert {"x1|strat=A", "x1|strat=None"} <= set(json.loads(out.read_text())["beta"])


def test_estimate_unknown_cluster_column_exits_1(capsys):
    args = list(ESTIMATE_ARGS)
    args[args.index("--cluster") + 1] = "nosuch"
    code, _, err = run_cli(capsys, args)
    assert code == 1
    assert "cluster column 'nosuch' not found" in err
    assert "delayed_care" in err  # and the table's columns


def with_columns(tmp_path, **columns):
    """The sample plus ``columns``, each a function of the data row's index, as a CSV path."""
    header, *rows = (SAMPLE_DIR / "insurance_style.csv").read_text(encoding="utf-8").splitlines()
    path = tmp_path / "extra.csv"
    rows = [",".join([row, *(f(i) for f in columns.values())]) for i, row in enumerate(rows)]
    path.write_text("\n".join([",".join([header, *columns]), *rows]) + "\n", encoding="utf-8")
    return str(path)


def test_cluster_running_beside_a_column_named_running_is_one_error_line(capsys, tmp_path):
    args = list(ESTIMATE_ARGS)
    args[args.index("--data") + 1] = with_columns(tmp_path, running=lambda i: str(i % 40))
    args[args.index("--cluster") + 1] = "running"
    code, out, err = run_cli(capsys, args)
    assert code == 1 and out == ""
    assert err.startswith("error: cluster 'running' reads two ways") and err.count("\n") == 1, err
    assert "name its column, 'age'," in err


def test_two_combinations_joined_to_one_label_are_one_error_line(capsys, tmp_path):
    # ("x|y", "z") and ("x", "y|z") both join to "x|y|z"
    data = with_columns(
        tmp_path, a=lambda i: "x|y" if i % 2 else "x", b=lambda i: "z" if i % 2 else "y|z"
    )
    args = ["diagnose", *ESTIMATE_ARGS[1:]]
    args[args.index("--data") + 1] = data
    args[args.index("--w") + 1] = "a,b"
    code, out, err = run_cli(capsys, args)
    assert code == 1 and out == ""
    assert err == (
        "error: two value combinations of the covariate columns ('a', 'b') share the cell label "
        "'x|y|z': a '|' in their values joins them\n"
    )


@pytest.mark.parametrize(
    "flag, field, names",
    [
        ("--w", "covariates", "race,race"),
        ("--controls", "extra_controls", "region,region"),
        ("--treatment-indicators", "treatment_indicators", "x1,x1"),
        ("--wtilde", "wtilde_columns", "region,region"),
    ],
)
def test_a_column_named_twice_in_one_flag_is_one_error_line(capsys, flag, field, names):
    args = list(ESTIMATE_ARGS)
    if flag == "--treatment-indicators":
        del args[args.index("--treatment") : args.index("--treatment") + 2]
    if flag == "--wtilde":
        args += ["--model", "parametric"]
    if flag in args:
        args[args.index(flag) + 1] = names
    else:
        args += [flag, names]
    code, out, err = run_cli(capsys, args)
    assert code == 1 and out == ""
    assert err == f"error: {field} names column '{names.split(',')[0]}' more than once\n", err


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
        # a flag's text passes the same converter as a config value
        ("estimate", "bandwidth", "ten", True),
        ("estimate", "cutoff", "sixty-five", True),
        ("simulate", "n", "many", True),
        ("simulate", "reps", "x", True),
        ("simulate", "seed", "abc", True),
        ("estimate", "format", "xml", True),
        # a text option takes text only, and a count a whole number
        ("estimate", "treatment", ["coverage"], False),
        ("estimate", "r", ["educ"], False),
        ("estimate", "out", ["x"], False),
        ("diagnose", "series", ["x"], False),
        ("simulate", "n", 800.7, False),
        ("simulate", "reps", 2.9, False),
        # a bandwidth must be a positive finite number: an infinite one weighs every row alike
        ("estimate", "bandwidth", "inf", True),
        ("estimate", "bandwidth", "inf", False),
        ("diagnose", "bandwidth", float("inf"), False),
        ("simulate", "bandwidth", "inf", True),
        ("estimate", "bandwidth", "0", True),
        ("estimate", "bandwidth", -1.0, False),
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
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert f"--{key.replace('_', '-')}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, says", [
    (ESTIMATE_ARGS + ["--bandwidht", "3"], "unrecognized arguments: --bandwidht 3"),
    ([], "the following arguments are required: subcommand"),
    (["estimat"], "invalid choice: 'estimat'"),
    (ESTIMATE_ARGS + ["--bandwidth"], "argument --bandwidth: expected one argument"),
])
def test_a_usage_error_is_one_input_error_line(capsys, argv, says):
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert says in err and out == ""
    assert "Traceback" not in err and "usage:" not in err


def test_each_subcommand_lists_its_table_options_and_config(capsys):
    from multirdd.cli import COMMANDS

    for name, (_, options) in COMMANDS.items():
        with pytest.raises(SystemExit) as stop:
            main([name, "--help"])
        assert stop.value.code == 0
        shown = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out))
        assert shown == {"--help", "--config"} | {f"--{key.replace('_', '-')}" for key in options}


def test_flags_and_config_keys_give_the_same_report(capsys, tmp_path):
    simulate_args = [
        "simulate", "--data", str(SAMPLE_DIR / "dgp_homogeneous.json"),
        "--n", "1500", "--reps", "3", "--seed", "4", "--kernel", "triangular",
    ]
    # numbers and lists as JSON values, not as the text of a flag
    typed = {"cutoff": 65, "bandwidth": 10.0, "w": ["race", "educ"], "n": 1500, "reps": 3}
    for argv in (ESTIMATE_ARGS, simulate_args):
        flags = argv[1:]
        doc = {flag[2:].replace("-", "_"): value for flag, value in zip(flags[::2], flags[1::2])}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**doc, **{k: typed[k] for k in doc if k in typed}}))
        reports = []
        for extra in (flags, ["--config", str(cfg_path)]):
            out = tmp_path / f"report{len(reports)}.json"
            assert run_cli(capsys, [argv[0], *extra, "--out", str(out)])[0] == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1], argv[0]


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


def sample_without_right_side(path, cell):
    """The sample without the right-side rows of ``cell`` ("race|educ"), written to ``path``."""
    header, *rows = (SAMPLE_DIR / "insurance_style.csv").read_text(encoding="utf-8").splitlines()
    race, educ = cell.split("|")

    def kept(row):
        _, age, _, r, e, _ = row.split(",")
        return not (r == race and e == educ and float(age) >= 65)

    path.write_text("\n".join([header, *filter(kept, rows)]) + "\n", encoding="utf-8")
    return path


def test_diagnose_report_schema(capsys, tmp_path):
    data = sample_without_right_side(tmp_path / "dropped.csv", "MIN|COL")
    out = tmp_path / "diag.json"
    argv = ["diagnose", "--data", str(data), *ESTIMATE_ARGS[3:], "--out", str(out)]
    assert run_cli(capsys, argv)[0] == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"cell_table", "config", "ratio_late", "relevance", "validation"}
    assert doc["validation"] == {"constant_columns": []}
    assert set(doc["relevance"]) == {
        "eigenvalues", "m_hat", "min_eigenvalue", "omega", "passed", "rank", "rcond"
    }
    table = doc["cell_table"]
    assert set(table) == {"cells", "d", "dropped", "dropped_weight_share"}
    cell_keys = {"label", "delta_x", "delta_y", "se_x", "se_y", "p_hat", "n_left", "n_right"}
    assert [set(cell) for cell in table["cells"]] == [cell_keys] * 5
    (dropped,) = table["dropped"]
    assert set(dropped) == {"label", "reason", "weight_share", "n_left", "n_right"}
    assert dropped["label"] == "MIN|COL" and dropped["n_left"] > 0 and dropped["n_right"] == 0


def test_diagnose_evaluates_the_kernel_once(capsys, monkeypatch, tmp_path):
    from multirdd import kernels

    calls = []
    weights_vector = kernels.weights_vector

    def counted(*args, **kwargs):
        calls.append(args)
        return weights_vector(*args, **kwargs)

    monkeypatch.setattr(kernels, "weights_vector", counted)
    out, series = tmp_path / "diag.json", tmp_path / "series.csv"
    for extra in ([], ["--series", str(series)]):
        calls.clear()
        assert run_cli(capsys, ["diagnose", *ESTIMATE_ARGS[1:], *extra, "--out", str(out)])[0] == 0
        assert len(calls) == 1, extra  # the series bins reuse cell_table's window
    assert series.stat().st_size > 0
    # an estimate's cell_table and its fit read the one window too
    calls.clear()
    assert run_cli(capsys, [*ESTIMATE_ARGS, "--out", str(out)])[0] == 0
    assert len(calls) == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_non_finite_cutoff_is_one_input_error_line(capsys, value):
    args = list(ESTIMATE_ARGS)
    args[args.index("--cutoff") + 1] = value
    code, out, err = run_cli(capsys, args)
    assert code == 1 and out == ""
    assert err == f"error: cutoff must be a finite number, got {float(value)}\n", err


# each case: the fields of the bundled spec replaced (None removes one), and what the error says
DGP_SPEC_ERRORS = {
    "cell_probs of text": ({"cell_probs": ["a", 0.5, 0.5]}, "cell_probs must be a list of numbers"),
    "z_range of one number": ({"z_range": [1]}, "z_range must be two numbers"),
    "seed of text": ({"seed": "abc"}, "seed must be a nonnegative integer"),
    "seed of a float": ({"seed": 7.5}, "seed must be a nonnegative integer"),
    "noise_sd of text": ({"noise_sd": "x"}, "noise_sd must be a number"),
    "intercepts missing": ({"intercepts": None}, "is incomplete: "),
}


@pytest.mark.parametrize("case", DGP_SPEC_ERRORS)
def test_a_bad_dgp_spec_field_is_one_input_error_line(capsys, tmp_path, case):
    fields, says = DGP_SPEC_ERRORS[case]
    doc = json.loads((SAMPLE_DIR / "dgp_homogeneous.json").read_text(encoding="utf-8"))
    doc = {key: value for key, value in {**doc, **fields}.items() if value is not None}
    spec = tmp_path / "dgp.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, ["simulate", "--data", str(spec), "--n", "500", "--reps", "2"])
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert says in err and str(spec) in err and case.split()[0] in err  # the field
    assert ("incomplete" in err) == case.endswith("missing")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value, says", [
    ("--n", "0", "sample size must be positive, got 0"),
    ("--n", "-5", "sample size must be positive, got -5"),
    ("--seed", "-1", "seed must be a nonnegative integer, got -1"),
])
def test_a_bad_simulate_flag_is_one_input_error_line(capsys, flag, value, says):
    args = ["simulate", "--data", str(SAMPLE_DIR / "dgp_homogeneous.json"), "--n", "500"]
    code, _, err = run_cli(capsys, args + ["--reps", "2", flag, value])
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert says in err
    assert "Traceback" not in err


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
        for label, side, z, count, means in _series_bins(kernel_window(ds, cfg))
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


@pytest.mark.parametrize("delimiter", ["", "ab", '"', "\n", "\r"])
def test_a_bad_delimiter_is_one_input_error_line(capsys, delimiter):
    code, _, err = run_cli(capsys, ESTIMATE_ARGS + ["--delimiter", delimiter])
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"delimiter must be one character, not a quote or newline: {delimiter!r}" in err
    assert "Traceback" not in err


def test_diagnose_writes_its_failure_report(capsys, tmp_path):
    out = tmp_path / "diag.json"
    argv = ["diagnose", *ESTIMATE_ARGS[1:], "--bandwidth", "0.001", "--out", str(out)]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith("estimation failed: no usable cells") and err.count("\n") == 1, err
    doc = json.loads(out.read_text())
    assert set(doc) == {"error", "config"}
    assert err == f"estimation failed: {doc['error']}\n" and doc["config"]["bandwidth"] == 0.001


def test_an_undeclared_treatment_value_names_the_value_column_and_row(capsys):
    code, _, err = run_cli(capsys, ESTIMATE_ARGS + ["--treatment-levels", "0,1"])
    assert code == 1
    assert err == (
        "error: treatment column 'coverage': treatment value 2 in row 6 "
        "is not among declared levels [0.0, 1.0]\n"
    )


def with_flags(args, **flags):
    """``args`` with each flag's value set, or the flag appended; a value of None drops it."""
    args = list(args)
    for key, value in flags.items():
        flag = f"--{key.replace('_', '-')}"
        if flag in args:
            i = args.index(flag)
            del args[i : i + 2]
        if value is not None:
            args += [flag, value]
    return args


@pytest.mark.parametrize("flags, says", [
    (dict(w="race,region", controls="region"),
     "covariates and extra_controls both name column 'region'"),
    (dict(w="race", model="conditional", r="region", controls="region"),
     "extra_controls and r_column both name column 'region'"),
    (dict(w="race,educ", model="conditional", r="educ"),
     "covariates and r_column both name column 'educ'"),
    (dict(w="race", model="conditional", r="r65"),
     "conditioning column 'r65' has 65 levels (> 64); coarsen it before encoding"),
    (dict(controls="delayed_care"), "extra_controls and outcome both name column 'delayed_care'"),
    (dict(controls="coverage"), "extra_controls and treatment both name column 'coverage'"),
    (dict(outcome="age"), "running and outcome both name column 'age'"),
    (dict(controls="age"), "running and extra_controls both name column 'age'"),
    (dict(treatment=None, treatment_indicators="coverage,age"),
     "running and treatment_indicators both name column 'age'"),
])
def test_a_column_named_in_two_roles_or_too_many_strata_is_one_error_line(
    capsys, tmp_path, flags, says
):
    # each fit exited 2 with a rank-deficient or singular design, and --r age with a traceback;
    # the outcome as a control exited 0 with beta = 0 and SE 0
    data = with_columns(tmp_path, r65=lambda i: f"level{i % 65}")
    code, out, err = run_cli(capsys, with_flags(ESTIMATE_ARGS, data=data, **flags))
    assert (code, out, err) == (1, "", f"error: {says}\n")


@pytest.mark.parametrize("flags", [
    dict(cluster="grp"), dict(w="race", model="conditional", r="grp"),
])
def test_a_header_naming_a_column_twice_is_one_error_line(capsys, tmp_path, flags):
    # the cluster and the conditioning column are chosen after the load: each read the last grp
    header, *rows = (SAMPLE_DIR / "insurance_style.csv").read_text(encoding="utf-8").splitlines()
    path = tmp_path / "twice.csv"
    rows = [f"{row},{i % 3},{i % 40}" for i, row in enumerate(rows)]
    path.write_text("\n".join([f"{header},grp,grp", *rows]) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, with_flags(ESTIMATE_ARGS, data=str(path), **flags))
    assert (code, out, err) == (1, "", "error: column 'grp' appears more than once in the header\n")


@pytest.mark.parametrize("flags", [dict(cluster="region"), dict(w=None)])
def test_a_failed_estimate_checks_relevance_once(capsys, monkeypatch, flags):
    # J's moment covariance is singular with 4 clusters, and one cell under-identifies two margins;
    # the failure report reads the relevance check the command already made
    import multirdd.cli as cli

    calls, relevance = [], cli.relevance
    monkeypatch.setattr(cli, "relevance", lambda ct: calls.append(ct) or relevance(ct))
    code, out, _ = run_cli(capsys, with_flags(ESTIMATE_ARGS, **flags))
    assert code == 2 and "relevance" in json.loads(out)["diagnostics"]
    assert len(calls) == 1


def test_a_running_variable_as_the_treatment_is_refused_before_any_fit(capsys, monkeypatch):
    # its 3,984 levels once ran a relevance check of 3,983 margins for minutes
    monkeypatch.setattr("multirdd.cli.kernel_window", lambda *a: pytest.fail("window built"))
    code, out, err = run_cli(capsys, with_flags(ESTIMATE_ARGS, treatment="age", controls=None))
    assert (code, out, err) == (1, "", "error: treatment column 'age': need 2 to 64 treatment "
                                       "levels, got 3984\n")


def test_a_failed_estimate_builds_the_cell_table_once(capsys, monkeypatch):
    # no cell has two-sided support at h = 0.05, so the command's own cell table fails first;
    # the failure report carries that error and builds no second table
    import multirdd.cli as cli

    calls, cell_table = [], cli.cell_table
    monkeypatch.setattr(cli, "cell_table", lambda *a: calls.append(a) or cell_table(*a))
    code, out, _ = run_cli(capsys, with_flags(ESTIMATE_ARGS, controls=None, cluster=None,
                                              kernel=None, bandwidth="0.05"))
    assert code == 2 and len(calls) == 1
    doc = json.loads(out)
    assert doc["diagnostics_error"] == (
        "no usable cells: every cell lacks two-sided support within the bandwidth"
    )
    assert "diagnostics" not in doc


@pytest.mark.parametrize("cells, says", [
    (("1", "0.5"), "treatment indicator columns must contain only 0/1 values"),
    (("0", "1"), "treatment indicators are not cumulative in rows [2]"),
])
def test_bad_indicator_columns_are_one_input_error_line(capsys, tmp_path, cells, says):
    path = tmp_path / "indicators.csv"
    rows = ["y,z,x1,x2", "1,-1,1,0", f"2,1,{','.join(cells)}", "3,-2,0,0", "4,2,1,1"]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    argv = ["estimate", "--data", str(path), "--outcome", "y", "--running", "z",
            "--treatment-indicators", "x1,x2", "--bandwidth", "5"]
    assert run_cli(capsys, argv) == (1, "", f"error: {says}\n")


@pytest.mark.parametrize("text, says", [
    ("{not json", "is not valid JSON"),
    ("[1, 2]", "must hold a JSON object"),
])
def test_a_config_file_that_is_not_a_json_object_is_refused(capsys, tmp_path, text, says):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, ["estimate", "--config", str(path)])
    assert (code, out) == (1, "") and err.startswith(f"error: config file {path} {says}")


def test_a_missing_data_option_is_refused(capsys):
    code, out, err = run_cli(capsys, with_flags(ESTIMATE_ARGS, data=None))
    assert (code, out, err) == (1, "", "error: missing required option --data\n")


def test_simulate_on_an_unidentified_spec_exits_2(capsys, tmp_path):
    spec = tmp_path / "one_cell.json"
    spec.write_text(json.dumps({
        "cell_probs": [1.0], "base_levels": [[0.5, 0.2]], "jumps": [[0.3, 0.1]],
        "betas": [[0.5, -0.3]], "intercepts": [0.0],
    }), encoding="utf-8")
    code, out, err = run_cli(capsys, ["simulate", "--data", str(spec), "--n", "500", "--reps", "2"])
    assert (code, out) == (2, "")
    assert err == ("estimation failed: DGP is not identified (relevance matrix is singular); "
                   "targets are only defined cell-wise\n")


def test_a_just_identified_fit_says_so_in_text(capsys, tmp_path):
    # two cells, two margins: no over-identifying restriction to test
    code, out, _ = run_cli(capsys, with_flags(ESTIMATE_ARGS, w="race", format="text"))
    assert code == 0
    assert "[just identified; no over-identification test]" in out.splitlines()
    spec = tmp_path / "two_cells.json"
    spec.write_text(json.dumps({
        "cell_probs": [0.5, 0.5], "base_levels": [[0.4, 0.1], [0.5, 0.1]],
        "jumps": [[0.4, 0.1], [0.2, 0.3]], "betas": [[0.5, -0.3], [0.5, -0.3]],
        "intercepts": [0.0, 0.2],
    }), encoding="utf-8")
    argv = ["simulate", "--data", str(spec), "--n", "1500", "--reps", "3", "--format", "text"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out.splitlines()[-1] == "J test not applicable (just identified)"


def readme_commands() -> list:
    """The argument lists of README.md's ``multirdd`` shell examples, one per command."""
    readme = (SAMPLE_DIR.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    commands = [shlex.split(block.replace("\\\n", " ")) for block in blocks]
    return [argv[1:] for argv in commands if argv and argv[0] == "multirdd"]


def test_the_readme_shell_examples_run(capsys, monkeypatch, tmp_path):
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["estimate", "diagnose", "simulate"]
    monkeypatch.chdir(SAMPLE_DIR.parent)  # the examples name their files from the checkout's root
    for argv in commands:
        out = tmp_path / f"{argv[0]}.out"
        flags = {"out": str(out)}
        if "--series" in argv:
            flags["series"] = str(tmp_path / "series.csv")
        code, _, err = run_cli(capsys, with_flags(argv, **flags))
        assert code == 0, (argv, err)
        assert out.read_text(encoding="utf-8").strip(), argv
    assert (tmp_path / "series.csv").read_text(encoding="utf-8").strip()
