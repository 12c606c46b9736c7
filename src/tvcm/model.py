"""The varying-coefficient model object: GLM initialization, coefficient
evaluation beta_j(x) = beta_glm_j + delta_j(x), mean prediction, intercept
recalibration, and the versioned JSON model format.

Coefficients are functions of the feature rows they multiply; each
dimension's trees split on its modifier set, a subset of the feature
columns.

Models are immutable after training; every prediction entry point is
read-only and safe for concurrent callers. Raw (unstandardized) inputs
are expected everywhere on the public surface; the stored training
standardization is applied internally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset, OneHotMap, Standardizer, require_finite, require_fit_data
from .errors import ConfigError, DataError, FitError, ModelFormatError
from .losses import check_canonical, check_eta, get_link, get_loss, loss_total
from .tree import RegressionTree

MODEL_FORMAT_VERSION = 1

# IRLS: the ridge on the non-intercept block of the normal equations,
# the relative loss change that stops it, and its iteration cap
_IRLS_RIDGE, _IRLS_TOL, _IRLS_MAX_ITER = 1e-8, 1e-10, 100


@dataclass
class GlmCoefficients:
    beta0: float
    beta: np.ndarray


@dataclass
class CoefficientFunction:
    """One GLM scalar plus the shrunken trees for one feature dimension."""

    beta_glm: float
    epsilon: float
    trees: list[RegressionTree]

    @property
    def kappa(self) -> int:
        return len(self.trees)


@dataclass
class FeatureSpace:
    """Feature metadata shared by training and prediction.

    ``modifier_sets[j]`` holds the indices (into ``feature_names``) of
    the columns coefficient function j may split on. ``onehot`` is the
    ``OneHotMap`` of ``onehot_groups``, which must agree with the names.
    """

    feature_names: list[str]
    modifier_sets: list[np.ndarray]
    onehot_groups: dict[str, list[str]]
    scaler: Standardizer

    def __post_init__(self):
        self.onehot = OneHotMap(self.feature_names, self.onehot_groups,
                                ModelFormatError)

    @property
    def p(self) -> int:
        return len(self.feature_names)


def modifier_columns(X: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Columns ``idx`` of X, or X itself when idx selects every column
    in order."""
    if idx.size == X.shape[1] and np.array_equal(idx, np.arange(idx.size)):
        return X
    return X[:, idx]


def _as_matrix(rows, names: list[str]) -> np.ndarray:
    """Raw feature rows as a 2-D float matrix, one column per name; a
    wrong width or a NaN/infinity is a DataError."""
    M = np.asarray(rows, dtype=float)
    if M.ndim == 1:
        M = M[None, :]
    if M.ndim != 2 or M.shape[1] != len(names):
        raise DataError(f"feature row has arity {M.shape[-1]}, expected {len(names)}")
    require_finite(M, names, "feature rows")
    return M


class Scores(NamedTuple):
    """Per-row outputs of one pass through the ensemble: delta[:, j] is
    dimension j's shrunken tree sum, beta = beta_glm + delta, and eta is
    the linear predictor."""

    delta: np.ndarray
    beta: np.ndarray
    eta: np.ndarray


class TvcmModel:
    """Intercept + p coefficient functions + loss/link + feature metadata."""

    def __init__(self, beta0, coef, loss, link, space):
        self.beta0 = float(beta0)
        self.coef: list[CoefficientFunction] = coef
        self.loss = loss
        self.link = link
        self.space: FeatureSpace = space

    @property
    def p(self) -> int:
        return len(self.coef)

    @property
    def beta_glm(self) -> np.ndarray:
        return np.asarray([cf.beta_glm for cf in self.coef])

    @property
    def kappa(self) -> np.ndarray:
        return np.asarray([cf.kappa for cf in self.coef], dtype=np.int64)

    # -- public raw-input surface -------------------------------------------

    def _standardized(self, X) -> np.ndarray:
        return self.space.scaler.apply_x(_as_matrix(X, self.space.feature_names))

    def scores(self, X) -> Scores:
        """Tree sums, coefficients and linear predictor of raw feature
        rows, from one pass of the rows through every tree."""
        X_std = self._standardized(X)
        X_cols = np.asfortranarray(X_std)  # each split reads a whole column
        delta = np.zeros((X_std.shape[0], self.p))
        for j, cf in enumerate(self.coef):
            if not cf.trees:
                continue
            Xj = modifier_columns(X_cols, self.space.modifier_sets[j])
            acc = np.zeros(X_std.shape[0])
            for tree in cf.trees:
                acc += tree.predict(Xj)
            delta[:, j] = cf.epsilon * acc
        beta = self.beta_glm[None, :] + delta
        eta = self.beta0 + np.sum(beta * X_std, axis=1)
        return Scores(delta, beta, eta)

    def mu_from_eta(self, eta) -> np.ndarray:
        """Mean from the linear predictor; under the log link an eta
        that would overflow or underflow exp() is an error naming its
        row."""
        if self.link.kind == "log":
            check_eta(eta, context="predict")
        return self.link.inverse(eta)

    def beta_of(self, X) -> np.ndarray:
        """Coefficient vector(s) beta(x) for raw feature rows."""
        return self.scores(X).beta

    def predict_mu(self, X, Z=None) -> np.ndarray:
        """Mean prediction for raw feature rows; expected response is w*mu
        under the Poisson profile."""
        # ``Z`` is read only by bench/, which still passes the feature
        # matrix a second time; a benchmark-only change deletes it.
        if Z is not None and Z is not X:
            raise DataError("Z must be omitted or be the feature matrix X itself")
        return self.mu_from_eta(self.scores(X).eta)


# -- GLM fitting (IRLS) -------------------------------------------------------


def _irls(y, w, X, loss, link):
    n, p = X.shape
    wy = float(np.sum(w * y))
    sw = float(np.sum(w))
    if link.kind == "log":
        m = wy / sw
        if m <= 0:
            raise FitError("cannot initialize log link: weighted mean response <= 0")
        beta0 = float(np.log(m))
    else:
        beta0 = wy / sw
    beta = np.zeros(p)
    A = np.column_stack([np.ones(n), X])
    ridge_diag = np.concatenate([[0.0], np.full(p, _IRLS_RIDGE)])
    coefs = np.concatenate([[beta0], beta])
    cur = loss_total(loss, link, A @ coefs, y, w)
    consecutive_bad = 0
    for _ in range(_IRLS_MAX_ITER):
        eta = A @ coefs
        if link.kind == "log":
            check_eta(eta, context="glm fit")
            mu = np.exp(eta)
            omega = w * mu
            z = eta + (y - mu) / mu
        else:
            omega = w.copy() if isinstance(w, np.ndarray) else np.full(n, w)
            z = y
        H = A.T @ (omega[:, None] * A)
        H[np.diag_indices_from(H)] += ridge_diag
        b = A.T @ (omega * z)
        try:
            proposal = np.linalg.solve(H, b)
        except np.linalg.LinAlgError as exc:
            raise FitError(f"normal equations are singular: {exc}") from exc
        new = proposal
        new_loss = loss_total(loss, link, A @ new, y, w)
        halvings = 0
        while new_loss > cur and halvings < 30:
            new = 0.5 * (new + coefs)
            new_loss = loss_total(loss, link, A @ new, y, w)
            halvings += 1
        if new_loss > cur:
            consecutive_bad += 1
            if consecutive_bad >= 5:
                raise FitError(
                    "GLM fit diverged: loss increased for 5 consecutive "
                    f"damped steps (loss {cur:.6g} -> {new_loss:.6g})"
                )
            continue
        consecutive_bad = 0
        coefs = new
        rel = abs(cur - new_loss) / max(1.0, abs(cur))
        cur = new_loss
        if rel <= _IRLS_TOL:
            break
    return GlmCoefficients(beta0=float(coefs[0]), beta=coefs[1:].copy())


def fit_glm(dataset: Dataset, loss, link) -> GlmCoefficients:
    """GLM estimate by iteratively reweighted least squares.

    Expects an encoded, standardized dataset. A tiny ridge (1e-8) on the
    non-intercept block keeps the normal equations solvable when one-hot
    blocks make the design rank deficient. Bad training data is a
    DataError, as in ``fit_tvcm``.
    """
    check_canonical(loss, link)
    require_fit_data(dataset, loss)
    return _irls(dataset.y, dataset.w, dataset.X, loss, link)


def glm_linear_predictor(glm: GlmCoefficients, X_std: np.ndarray) -> np.ndarray:
    return glm.beta0 + X_std @ glm.beta


# -- serialization -------------------------------------------------------------


def model_to_dict(model: TvcmModel) -> dict:
    space = model.space
    names = list(space.feature_names)
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "loss": model.loss.kind,
        "link": model.link.kind,
        "feature_names": names,
        # format v1 lists the modifier columns separately; they are the
        # feature columns
        "modifier_names": list(names),
        "modifier_names_per_dimension": [
            [names[i] for i in idx] for idx in space.modifier_sets
        ],
        "onehot_groups": {k: list(v) for k, v in space.onehot_groups.items()},
        "standardization": {
            "mean": {n: float(v) for n, v in zip(names, space.scaler.x_mean)},
            "sd": {n: float(v) for n, v in zip(names, space.scaler.x_sd)},
        },
        "beta0": model.beta0,
        "dimensions": [
            {
                "name": model.space.feature_names[j],
                "beta_glm": cf.beta_glm,
                "epsilon": cf.epsilon,
                "trees": [t.to_dict() for t in cf.trees],
            }
            for j, cf in enumerate(model.coef)
        ],
    }


def model_from_dict(payload: dict) -> TvcmModel:
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise ModelFormatError("not a model document: missing format_version")
    version = payload["format_version"]
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format_version {version!r}; "
            f"this build reads version {MODEL_FORMAT_VERSION}"
        )
    try:
        try:
            loss = get_loss(payload["loss"])
            link = get_link(payload["link"])
            check_canonical(loss, link)
        except ConfigError as exc:
            raise ModelFormatError(str(exc)) from None
        feature_names = list(payload["feature_names"])
        if list(payload["modifier_names"]) != feature_names:
            raise ModelFormatError(
                "modifier_names must equal feature_names: every modifier "
                "column is a feature column"
            )
        pos = {n: i for i, n in enumerate(feature_names)}
        modifier_sets = [
            np.asarray([pos[n] for n in names], dtype=np.int64)
            for names in payload["modifier_names_per_dimension"]
        ]
        std = payload["standardization"]
        scaler = Standardizer(
            x_mean=np.asarray([std["mean"][n] for n in feature_names]),
            x_sd=np.asarray([std["sd"][n] for n in feature_names]),
        )
        space = FeatureSpace(
            feature_names=feature_names,
            modifier_sets=modifier_sets,
            onehot_groups={k: list(v) for k, v in payload["onehot_groups"].items()},
            scaler=scaler,
        )
        coef = [
            CoefficientFunction(
                beta_glm=float(d["beta_glm"]),
                epsilon=float(d["epsilon"]),
                trees=[RegressionTree.from_dict(t) for t in d["trees"]],
            )
            for d in payload["dimensions"]
        ]
        beta0 = float(payload["beta0"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model document: {exc!r}") from exc
    if len(coef) != len(feature_names) or len(modifier_sets) != len(feature_names):
        raise ModelFormatError("dimension count disagrees with feature_names")
    return TvcmModel(beta0, coef, loss, link, space)


def save_model(model: TvcmModel, path) -> None:
    """Versioned, self-describing JSON; floats use shortest round-trip
    decimal form, so reloads are bit-exact."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=1)
        fh.write("\n")


def load_model(path) -> TvcmModel:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    return model_from_dict(payload)
