"""Cyclic boosting loop, dimension-wise early stopping, feature importance.

Training and tuning run one cyclic loop. Each cycle fits one candidate
tree per open dimension, in ascending dimension order, to directional
gradients recomputed from the live linear predictor. An acceptance rule
decides whether the candidate is applied; rejected candidates are
discarded entirely. A dimension closes at its tree-count cap or after
``patience`` consecutive rejections. Training accepts every candidate,
so it adds exactly kappa_j trees to dimension j. Tuning runs the loop on
a train half and accepts a candidate only when it lowers the loss on the
validation half by more than a noise margin (``acceptance_z`` standard
errors of its first-order loss delta; z = 0 is plain strict decrease).
Fitted models and tune results are immutable outputs. A trace is
written with ``tvcm.data.write_csv``, as every CSV file tvcm writes is.

Most candidates are rejected, so eta stays put for many candidates in a
row. Each half keeps what depends on eta alone in one ``losses.EtaRecord``:
mu, the gradient base and the per-row loss on the train half
(``_CycleState.at``), the per-row loss and the noise-margin score on the
validation half (``tune_kappa``). Only ``EtaRecord.stepped`` moves eta,
on the rows where the tree's x is non-zero: per accepted tree on the
train half, per candidate on the validation half.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from operator import attrgetter

import numpy as np

from .data import Dataset, OneHotMap, require_fit_data, split, standardize, write_csv
from .errors import ConfigError, FitError
from .losses import EtaRecord, check_canonical, intercept_shift

# nothing here calls it; the name stays importable here, where the
# benchmark's traced run wraps it
from .losses import loss_total  # noqa: F401
from .model import (
    CoefficientFunction,
    FeatureSpace,
    GlmCoefficients,
    TvcmModel,
    fit_glm,
    glm_linear_predictor,
    modifier_columns,
)
from .tree import SplitIndex, TreeConfig, fit_gradient_tree, presort_columns


def _per_dimension(name: str, value, dtype, p: int) -> np.ndarray:
    """``value``, a scalar or one value per dimension, as p values."""
    v = np.asarray(value, dtype=dtype)
    if v.shape not in ((), (1,), (p,)):
        raise ConfigError(f"{name} lists {v.size} values for {p} dimensions")
    return np.broadcast_to(v, (p,)).copy()


@dataclass(frozen=True)
class BoostConfig:
    """Shrinkage, tree counts, tree shape, and per-dimension modifier sets.

    ``epsilon`` and ``kappa`` accept a scalar or one value per
    dimension. ``modifier_sets`` maps each dimension to the feature
    column names its trees may split on (None: every column for every
    dimension).
    """

    epsilon: float | tuple = 0.01
    kappa: int | tuple = 0
    tree: TreeConfig = field(default_factory=TreeConfig)
    modifier_sets: tuple | None = None

    def epsilon_vector(self, p: int) -> np.ndarray:
        eps = _per_dimension("epsilon", self.epsilon, float, p)
        if np.any(eps <= 0) or np.any(eps > 1):
            raise ConfigError("epsilon values must lie in (0, 1]")
        return eps

    def kappa_vector(self, p: int) -> np.ndarray:
        kappa = _per_dimension("kappa", self.kappa, np.int64, p)
        if np.any(kappa < 0):
            raise ConfigError("kappa values must be >= 0")
        return kappa


@dataclass(frozen=True)
class StoppingConfig:
    """Early-stopping protocol: split fraction, patience, and margin.

    ``acceptance_z`` scales a noise margin on the validation
    improvement: a candidate is accepted when it beats the current loss
    by more than z times the standard error of its first-order loss
    delta. z = 0 is plain strict decrease; at shrinkage 0.01 a strict
    decrease is nearly a coin flip for a no-signal candidate, so a
    positive z is what makes "no structure implies zero trees" hold in
    practice.
    """

    validation_fraction: float = 0.5
    patience: int = 20
    seed: int = 0
    acceptance_z: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction must be in (0, 1)")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.acceptance_z < 0:
            raise ConfigError("acceptance_z must be >= 0")


@dataclass(frozen=True)
class TraceRow:
    cycle: int
    dimension: str
    train_loss: float
    valid_loss: float | None
    accepted: bool


@dataclass
class TuneResult:
    kappa: np.ndarray
    trace: list[TraceRow]


@dataclass
class FiStar:
    """Mean absolute coefficient per dimension, normalized over the
    dimensions on a common (standardized) scale."""

    values: np.ndarray  # normalized; NaN for excluded dimensions
    raw: np.ndarray  # unnormalized mean |beta_j(x)|, all dimensions
    included: np.ndarray  # bool mask, False for one-hot member dimensions
    labels: list[str]


@dataclass
class FeatureImportance:
    split_gain: np.ndarray  # rows: dimensions, cols: aggregated modifiers
    row_labels: list[str]
    col_labels: list[str]
    fi_star: FiStar | None = None


def _resolve_modifier_sets(config: BoostConfig, ds: Dataset) -> list[np.ndarray]:
    if config.modifier_sets is None:
        full = np.arange(ds.p, dtype=np.int64)
        return [full for _ in range(ds.p)]
    if len(config.modifier_sets) != ds.p:
        raise ConfigError("modifier_sets must have one entry per dimension")
    pos = {n: i for i, n in enumerate(ds.x_names)}
    out = []
    for j, names in enumerate(config.modifier_sets):
        missing = [n for n in names if n not in pos]
        if missing:
            raise ConfigError(
                f"dimension {j}: unknown modifier column(s) {missing}"
            )
        if not names:
            raise ConfigError(f"dimension {j}: empty modifier set")
        out.append(np.asarray([pos[n] for n in names], dtype=np.int64))
    return out


def _moving_rows(x: np.ndarray):
    """The rows a tree along direction x can move: those with x != 0,
    or every row (a slice) when no x is 0."""
    rows = np.flatnonzero(x)
    return slice(None) if rows.size == x.size else rows


class _CycleState:
    """Mutable trainer state over one dataset: the ``EtaRecord`` at the
    current eta (``at``), one split-search index (``presort_columns``:
    one bundle per one-hot group, bin codes for other low-cardinality
    columns, sort orders for the rest) per unique modifier subset, and
    the accumulated trees.

    The record keeps mu, the gradient base that every candidate's
    gradient multiplies by its x column, and the per-row loss, which
    gives the leaf-step guard its loss at 0 and the trace its training
    loss. So the candidates that dimension-wise early stopping rejects,
    most of them, recompute none of these. ``apply`` steps it as
    ``tune_kappa`` steps its validation record.
    """

    def __init__(self, ds: Dataset, glm: GlmCoefficients, config: BoostConfig,
                 loss, modifier_sets):
        self.ds = ds
        self.config = config
        self.eps = config.epsilon_vector(ds.p)
        self.x_cols = [np.ascontiguousarray(ds.X[:, j]) for j in range(ds.p)]
        self.rows = [_moving_rows(x) for x in self.x_cols]
        self.at = EtaRecord(loss, glm_linear_predictor(glm, ds.X), ds.y, ds.w)
        self.trees: list[list] = [[] for _ in range(ds.p)]
        # the training-row leaf ids of the candidate fitted last
        self._leaf_of = np.empty(ds.n, dtype=np.int32)
        onehot = OneHotMap(ds.x_names, ds.onehot_groups)
        subsets: dict[tuple, tuple] = {}
        self._modifiers: list[np.ndarray] = []
        self._presorted: list[SplitIndex] = []
        for idx in modifier_sets:
            key = tuple(idx.tolist())
            if key not in subsets:
                # column-major: the split scan gathers whole columns
                sub = np.asfortranarray(ds.X[:, idx])
                # each one-hot group's members in this subset, by position
                local = {f: i for i, f in enumerate(key)}
                sub_groups = [[local[f] for f in members.values() if f in local]
                              for members in onehot.members.values()]
                subsets[key] = (
                    sub, presort_columns(sub, [g for g in sub_groups if g])
                )
            sub, pre = subsets[key]
            self._modifiers.append(sub)
            self._presorted.append(pre)

    def fit_candidate(self, j: int):
        """Candidate tree for dimension j at the current eta."""
        return fit_gradient_tree(
            self.x_cols[j],
            self._modifiers[j],
            self.at,
            self.config.tree,
            presorted=self._presorted[j],
            assign_out=self._leaf_of,
        )

    def apply(self, j: int, tree, cycle: int) -> None:
        """Add ``tree``, the candidate fitted last, to dimension j."""
        rows = self.rows[j]
        step = self.eps[j] * np.take(tree.value, self._leaf_of[rows]) * self.x_cols[j][rows]
        # eta is finite: check the step before the loss is evaluated at it
        if not np.all(np.isfinite(step)):
            raise FitError(
                f"non-finite linear predictor after cycle {cycle}, "
                f"dimension {j} ({self.ds.x_names[j]})"
            )
        self.at = self.at.stepped(rows, step)
        self.trees[j].append(tree)


def _run_cycles(state: _CycleState, kappa_max: np.ndarray, accept,
                patience: int = 1) -> list[TraceRow]:
    """The cyclic loop shared by training and tuning.

    Each cycle fits one candidate per open dimension, in ascending
    order, and asks ``accept(j, tree)`` for ``(accepted, valid_loss)``.
    An accepted candidate is applied to ``state``; a rejected one is
    discarded. Dimension j closes after ``kappa_max[j]`` cycles or after
    ``patience`` consecutive rejections (a rule that accepts every
    candidate never reaches it). Returns one trace row per candidate.
    """
    rejections = np.zeros(state.ds.p, dtype=np.int64)
    open_dim = kappa_max > 0
    trace: list[TraceRow] = []
    cycle = 0
    while np.any(open_dim):
        cycle += 1
        for j in np.flatnonzero(open_dim).tolist():
            tree = state.fit_candidate(j)
            accepted, valid_loss = accept(j, tree)
            if accepted:
                state.apply(j, tree, cycle)
                rejections[j] = 0
            else:
                rejections[j] += 1
                if rejections[j] >= patience:
                    open_dim[j] = False
            trace.append(
                TraceRow(
                    cycle=cycle,
                    dimension=state.ds.x_names[j],
                    train_loss=state.at.total,
                    valid_loss=valid_loss,
                    accepted=accepted,
                )
            )
        open_dim &= cycle < kappa_max
    return trace


def _build_space(ds: Dataset, scaler, modifier_sets) -> FeatureSpace:
    return FeatureSpace(
        feature_names=list(ds.x_names),
        modifier_sets=modifier_sets,
        onehot_groups={k: list(v) for k, v in ds.onehot_groups.items()},
        scaler=scaler,
    )


def train(
    dataset: Dataset,
    glm: GlmCoefficients,
    config: BoostConfig,
    loss,
    scaler,
) -> tuple[TvcmModel, list[TraceRow]]:
    """Cyclic training at fixed per-dimension tree counts.

    ``dataset`` must be encoded and standardized with ``scaler``. Every
    candidate is accepted, so dimension j gets exactly kappa_j trees.
    The intercept is recalibrated once, after all boosting. Returns the
    model plus the per-(cycle, dimension) training-loss trace. Bad
    training data is a DataError, as in ``fit_tvcm``.
    """
    require_fit_data(dataset, loss)
    kappa = config.kappa_vector(dataset.p)
    modifier_sets = _resolve_modifier_sets(config, dataset)
    state = _CycleState(dataset, glm, config, loss, modifier_sets)
    trace = _run_cycles(state, kappa, lambda j, tree: (True, None))
    beta0 = intercept_shift(loss, state.at.eta - glm.beta0, dataset.y, dataset.w)
    coef = [
        CoefficientFunction(
            beta_glm=float(glm.beta[j]),
            epsilon=float(state.eps[j]),
            trees=state.trees[j],
        )
        for j in range(dataset.p)
    ]
    model = TvcmModel(beta0, coef, loss, _build_space(dataset, scaler, modifier_sets))
    return model, trace


def tune_kappa(
    dataset: Dataset,
    config: BoostConfig,
    stopping: StoppingConfig,
    loss,
) -> TuneResult:
    """Dimension-wise early stopping on a train/validation split.

    The GLM initialization is fitted on the train part, so the loop
    starts at the stationary point of its own data. The cyclic loop then
    runs on the train part, capped at ``config.kappa`` trees per
    dimension. Each candidate is kept only if the validation loss with
    the tree applied drops by more than ``stopping.acceptance_z`` times
    the standard error of the tree's first-order validation loss delta
    (z = 0: any strict decrease). ``patience`` consecutive rejections
    close a dimension. The returned kappa counts accepted trees;
    rejected candidates leave no footprint. Bad data is a DataError
    naming its row of ``dataset``, as in ``fit_tvcm``.
    """
    require_fit_data(dataset, loss)
    kappa_max = config.kappa_vector(dataset.p)
    modifier_sets = _resolve_modifier_sets(config, dataset)
    frac = stopping.validation_fraction
    ds_tr, ds_va = split(dataset, (1.0 - frac, frac), stopping.seed)
    if ds_tr.n == 0 or ds_va.n == 0:
        raise ConfigError(
            f"degenerate train/validation split ({ds_tr.n}/{ds_va.n} rows)"
        )
    glm = fit_glm(ds_tr, loss)
    state = _CycleState(ds_tr, glm, config, loss, modifier_sets)

    va_modifiers = [modifier_columns(ds_va.X, idx) for idx in modifier_sets]
    va_xcols = [np.ascontiguousarray(ds_va.X[:, j]) for j in range(ds_va.p)]
    va_rows = [_moving_rows(x) for x in va_xcols]
    at_va = EtaRecord(loss, glm_linear_predictor(glm, ds_va.X), ds_va.y, ds_va.w)

    def validate(j, tree):
        nonlocal at_va
        rows = va_rows[j]
        step = state.eps[j] * tree.predict(va_modifiers[j][rows]) * va_xcols[j][rows]
        stepped = at_va.stepped(rows, step)
        margin = 0.0
        if stopping.acceptance_z > 0.0:
            # dL/deta per validation row times the step: the noise margin,
            # summed over every row, zeros included, in the full-length order
            contrib = np.zeros(ds_va.n)
            contrib[rows] = at_va.score[rows] * step
            margin = stopping.acceptance_z * float(
                np.sqrt(np.sum(contrib * contrib))
            )
        accepted = bool(stepped.total < at_va.total - margin)
        if accepted:
            at_va = stepped
        return accepted, stepped.total

    trace = _run_cycles(state, kappa_max, validate, stopping.patience)
    kappa = np.asarray([len(t) for t in state.trees], dtype=np.int64)
    return TuneResult(kappa=kappa, trace=trace)


@dataclass
class FitResult:
    model: TvcmModel
    glm: GlmCoefficients
    tune: TuneResult | None
    train_trace: list[TraceRow]


def fit_tvcm(
    dataset: Dataset,
    loss,
    link,
    config: BoostConfig,
    stopping: StoppingConfig | None = None,
) -> FitResult:
    """End-to-end fit on an encoded (one-hot, unstandardized) dataset.

    ``link`` must be ``loss.link``, or it is a ConfigError; it is a
    parameter only because bench/ still passes it. Standardizes with
    training statistics, fits the GLM initialization, optionally tunes
    per-dimension tree counts by early stopping, then trains on the full
    data at the tuned counts. A NaN or an infinity in X, y or w, a weight
    <= 0 and, under the Poisson loss, a response < 0 are each a DataError
    naming the first such row and its column.
    """
    check_canonical(loss, link)
    # before standardizing, so a NaN is reported at its own row
    require_fit_data(dataset, loss)
    ds_std, scaler = standardize(dataset)
    glm = fit_glm(ds_std, loss)
    cfg = config
    tune = None
    if stopping is not None:
        tune = tune_kappa(ds_std, cfg, stopping, loss)
        cfg = replace(cfg, kappa=tuple(int(k) for k in tune.kappa))
    model, trace = train(ds_std, glm, cfg, loss, scaler)
    return FitResult(model=model, glm=glm, tune=tune, train_trace=trace)


# -- feature importance ---------------------------------------------------------


def split_gain_shares(model: TvcmModel, rows, n_rows: int) -> np.ndarray:
    """Split gains by row and column group (``onehot.labels``): dimension
    j's total squared-error reduction from splits on each group, summed
    into row ``rows[j]``; each row with a positive sum is then divided
    by it."""
    onehot = model.space.onehot
    M = np.zeros((model.p, len(onehot.labels)))
    for j, cf in enumerate(model.coef):
        label_of = onehot.label_of[model.space.modifier_sets[j]]
        for tree in cf.trees:
            for local_f, gain in tree.split_gains().items():
                M[j, label_of[local_f]] += gain
    shares = np.zeros((n_rows, M.shape[1]))
    np.add.at(shares, rows, M)  # row by row, in row order
    sums = shares.sum(axis=1)
    nz = sums > 0
    shares[nz] /= sums[nz, None]
    return shares


def feature_importance(model: TvcmModel) -> FeatureImportance:
    """Split-gain importance matrix, rows normalized to sum to one.

    Entry (j, k): total squared-error reduction from splits on modifier
    k inside dimension j's trees, with one-hot member columns summed
    into their group before normalization. Rows of dimensions with no
    trees (or no splits) stay all-zero.
    """
    return FeatureImportance(
        split_gain=split_gain_shares(model, np.arange(model.p), model.p),
        row_labels=list(model.space.feature_names),
        col_labels=list(model.space.onehot.labels),
    )


def fi_star(model: TvcmModel, dataset: Dataset) -> FiStar:
    """Mean absolute coefficient value per dimension over dataset rows.

    One-hot member dimensions are excluded from the normalization (their
    indicator columns are not on the standardized scale); their
    normalized entries are NaN.
    """
    beta = model.beta_of(dataset.X)
    raw = np.mean(np.abs(beta), axis=0)
    included = ~model.space.onehot.grouped
    values = np.full(model.p, np.nan)
    total = float(raw[included].sum())
    if total > 0:
        values[included] = raw[included] / total
    else:
        values[included] = 0.0
    return FiStar(
        values=values,
        raw=raw,
        included=included,
        labels=list(model.space.feature_names),
    )


def importance_report(model: TvcmModel, dataset: Dataset | None = None) -> FeatureImportance:
    report = feature_importance(model)
    if dataset is not None:
        report.fi_star = fi_star(model, dataset)
    return report


def write_trace_csv(trace: list[TraceRow], path) -> None:
    """Trace export: one row per (cycle, dimension) candidate, in the
    fields' order; a training trace's valid_loss cells are empty."""
    names = [f.name for f in fields(TraceRow)]
    write_csv(path, names, map(attrgetter(*names), trace))
