"""Fixed inputs of the benchmark: CLI arguments, Monte Carlo layouts, pinned results.

The three DGP layouts are copied verbatim from the acceptance suite so
that the benchmark imports no test module.  The pinned results are the
fits of the bundled 4,000-row sample at the commit that introduced the
benchmark; every output the benchmark checks is compared with them.
"""

from multirdd.montecarlo import DgpSpec

SAMPLE_CSV = "sample_data/insurance_style.csv"
SAMPLE_ROWS = 4000
TILE_COPIES = 50

# Shared by every estimate and diagnose the benchmark runs; --data, --w,
# --model and --r are added per operation.
COMMON_ARGS = (
    "--outcome", "delayed_care", "--running", "age", "--cutoff", "65",
    "--treatment", "coverage", "--controls", "region", "--cluster", "age",
    "--bandwidth", "10",
)
HOMOGENEOUS_ARGS = ("--w", "race,educ")
# With educ in --w as well the stacked design is rank deficient.
CONDITIONAL_ARGS = ("--w", "race", "--model", "conditional", "--r", "educ")

COVERAGE_DGP = DgpSpec(
    cell_probs=(0.4, 0.35, 0.25),
    base_levels=((0.55, 0.25), (0.50, 0.25), (0.70, 0.15)),
    jumps=((0.40, 0.10), (0.15, 0.40), (0.05, 0.55)),
    betas=((0.5, -0.3),) * 3,
    intercepts=(0.2, 0.4, -0.1),
    slope_left=0.3,
    slope_right=0.5,
    noise_sd=0.35,
    seed=7,
)

JSIZE_DGP = DgpSpec(
    cell_probs=(0.22, 0.2, 0.18, 0.15, 0.15, 0.1),
    base_levels=(
        (0.55, 0.25),
        (0.50, 0.20),
        (0.65, 0.15),
        (0.60, 0.20),
        (0.45, 0.25),
        (0.70, 0.10),
    ),
    jumps=(
        (0.40, 0.05),
        (0.10, 0.40),
        (0.25, 0.25),
        (0.30, 0.15),
        (0.15, 0.30),
        (0.20, 0.10),
    ),
    betas=((0.5, -0.3),) * 6,
    intercepts=(0.2, 0.4, -0.1, 0.3, 0.0, 0.1),
    slope_left=0.3,
    slope_right=0.5,
    noise_sd=0.35,
    seed=7,
)

JPOWER_DGP = DgpSpec(
    cell_probs=(0.4, 0.35, 0.25),
    base_levels=((0.55, 0.25), (0.50, 0.25), (0.70, 0.15)),
    jumps=((0.40, 0.10), (0.40, 0.35), (0.05, 0.55)),
    betas=((0.2, -0.3), (0.7, -0.3), (0.45, -0.3)),  # beta_1 separated by 0.5
    intercepts=(0.2, 0.4, -0.1),
    slope_left=0.3,
    slope_right=0.5,
    noise_sd=0.35,
    seed=7,
)

# Homogeneous fit of the sample: 2,049 rows in the window, 2 + 19 columns.
SAMPLE_HOMOGENEOUS = {
    "beta": {"x1": 0.05669573462153886, "x2": -0.10252204413013315},
    "se": {"x1": 0.19871767909334923, "x2": 0.157118495624778},
    "j_stat": 3.9544078835524314,
    "n_effective": 2049,
}

# Conditional fit of the sample (3 strata of educ, just identified).
SAMPLE_CONDITIONAL = {
    "beta": {
        "x1|educ=COL": 0.052435665173397185,
        "x1|educ=DRP": -1.947349964523491,
        "x1|educ=HS": -3.2509251054051336,
        "x2|educ=COL": 0.05115021489766437,
        "x2|educ=DRP": 0.9096835471010017,
        "x2|educ=HS": 4.888234352146641,
    },
    "se": {
        "x1|educ=COL": 0.388652063463072,
        "x1|educ=DRP": 3.75481565387206,
        "x1|educ=HS": 24.737079962144865,
        "x2|educ=COL": 0.5878687046243435,
        "x2|educ=DRP": 1.949090329459705,
        "x2|educ=HS": 37.90621448981498,
    },
    "j_stat": 0.0,
    "n_effective": 2049,
}

# Eigenvalues of the relevance matrix that diagnose reports for the sample.
SAMPLE_RELEVANCE_EIGENVALUES = (0.008760560930282789, 0.12113224123501493)
SAMPLE_CELLS = 6
