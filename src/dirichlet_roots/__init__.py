"""Expected real zeros of random Dirichlet polynomials.

Library surface: build a spec, sample coefficients, evaluate the polynomial,
integrate the exact Kac-Rice zero density, compare against the closed-form
asymptotics, and simulate root counts.
"""

from .core import (
    CoefficientSample,
    Interval,
    Part,
    PolynomialSpec,
    experiment_interval,
    make_spec,
    mix_seed,
    sample_coefficients,
)
from .dirichlet_eval import (
    WeightTable,
    eval_polynomial,
    log_moment_sum,
    make_weight_table,
    u_moment,
)
from .kac_rice import (
    DensityBreakdown,
    NumericalError,
    QuadratureBudgetError,
    QuadratureResult,
    breakdown_at,
    expected_count_deterministic,
    expected_count_stratified,
)
from .asymptotics import (
    AsymptoticPrediction,
    model_vs_zeta_ratio,
    predict_expected_zeros,
    stieltjes_constant,
    stieltjes_sum_check,
    stieltjes_table,
    zeta_zero_count,
)
from .monte_carlo import (
    RootCountResult,
    TrialAggregate,
    count_roots,
    default_grid_step,
    mean_zero_spacing,
    run_trials,
    sigma_sweep,
)
from .diagnostics import (
    StepReport,
    USupReport,
    l2_mean_value_check,
    proof_step_integrals,
    u_sup_monitor,
)

__version__ = "0.1.0"
