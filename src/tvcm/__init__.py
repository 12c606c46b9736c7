"""Tree-based varying-coefficient models trained by cyclic gradient boosting.

A varying-coefficient regression keeps the linear-predictor structure of
a GLM but lets every coefficient be a function of effect modifiers,
fitted as a sum of shrunken regression trees. Training cycles through
the coefficient dimensions, one tree per dimension per cycle, each tree
fitted to directional partial derivatives of the deviance loss; tree
counts are tuned per dimension by validation early stopping.
"""

from .boosting import (
    BoostConfig,
    FeatureImportance,
    FiStar,
    FitResult,
    StoppingConfig,
    TraceRow,
    TuneResult,
    feature_importance,
    fi_star,
    fit_tvcm,
    importance_report,
    train,
    tune_kappa,
    write_trace_csv,
)
from .data import (
    Dataset,
    Schema,
    SimulationSpec,
    Standardizer,
    load_csv,
    onehot_encode,
    simulate,
    split,
    split_by_indices,
    standardize,
    true_beta,
    true_mu,
)
from .errors import (
    ConfigError,
    DataError,
    DomainError,
    EtaOverflowError,
    FitError,
    ModelFormatError,
    TvcmError,
)
from .losses import (
    GAUSSIAN,
    IDENTITY,
    LOG,
    POISSON,
    check_canonical,
    directional_gradient,
    get_link,
    get_loss,
    loss_total,
)
from .model import (
    CoefficientFunction,
    FeatureSpace,
    GlmCoefficients,
    TvcmModel,
    fit_glm,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from .tree import (
    RegressionTree,
    TreeConfig,
    adjust_leaves,
    fit_partition,
    presort_columns,
)

__version__ = "0.1.0"
