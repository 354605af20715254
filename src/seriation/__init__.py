"""Statistical seriation at desk scale.

Recover an unknown row order of a noisy matrix whose columns share a shape
(increasing or unimodal): exact shape-constrained projections, permutation
estimators, complexity metrics of the ground truth, seeded generators, and a
Monte-Carlo experiment harness.
"""

from .core import (
    EPS,
    Permutation,
    compose,
    derive_rng,
    frobenius_sq_dist,
    inverse,
    permute_rows,
    read_matrix_csv,
    read_permutation,
    write_matrix_csv,
    write_permutation,
)
from .estimators import (
    METHODS,
    EstimatorConfig,
    FitResult,
    LossBreakdown,
    UnsupportedShapeError,
    averaging_fit,
    estimation_losses,
    exhaustive_ls,
    fit,
    oracle_fit,
    rank_score,
    rank_sum,
)
from .experiments import (
    ExperimentConfig,
    ExperimentRecord,
    SlopeFit,
    emit_csv,
    figure_configs,
    fit_loglog_slope,
    read_records_csv,
    run_experiment,
    run_figure,
)
from .metrics import (
    ComplexityReport,
    RearrangementCheck,
    complexity_report,
    count_levels,
    gap,
    gap_scores,
    min_adjacent_row_gap,
    pair_score,
    pairwise_gaps,
    r_statistic,
    rearrangement_check,
    variation,
)
from .shape import (
    MONOTONE,
    UNIMODAL,
    ShapeSpec,
    VectorFit,
    antitonic_fit,
    fixed_mode,
    fixed_mode_fit,
    isotonic_fit,
    project_columns,
    unimodal_fit,
)
from .synth import (
    FAMILIES,
    check_noise,
    draw_noise,
    draw_truth,
    gen_noise,
    gen_observation,
    gen_permutation,
    gen_truth,
)

__version__ = "0.1.0"
