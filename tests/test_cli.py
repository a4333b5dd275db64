import csv
import json
from pathlib import Path

import numpy as np
import pytest

from multirdd.cli import main
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


def test_simulate_schema_and_worker_determinism(capsys, tmp_path):
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
    out1, out8 = tmp_path / "w1.json", tmp_path / "w8.json"
    assert run_cli(capsys, args + ["--workers", "1", "--out", str(out1)])[0] == 0
    assert run_cli(capsys, args + ["--workers", "8", "--out", str(out8)])[0] == 0
    assert out1.read_bytes() == out8.read_bytes()
    doc = json.loads(out1.read_text())
    for key in ("coverage", "bias", "mean_se", "j_rejection_rate", "reps"):
        assert key in doc


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
