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

import numpy as np

from .data import Dataset, Standardizer
from .errors import DataError, FitError, ModelFormatError
from .losses import check_canonical, check_eta, get_link, get_loss, loss_total
from .losses import intercept_shift  # noqa: F401  (kept as model.intercept_shift)
from .tree import RegressionTree

MODEL_FORMAT_VERSION = 1


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
    the columns coefficient function j may split on.
    """

    feature_names: list[str]
    modifier_sets: list[np.ndarray]
    onehot_groups: dict[str, list[str]]
    scaler: Standardizer

    @property
    def p(self) -> int:
        return len(self.feature_names)

    def group_label(self, name: str) -> str:
        """The categorical column a one-hot member column was expanded
        from; any other column is its own group."""
        for base, members in self.onehot_groups.items():
            if name in members:
                return base
        return name

    def group_index(self, names) -> tuple[list[str], np.ndarray]:
        """Distinct group labels of ``names`` in first-seen order, and
        the position of each name's label in that list."""
        labels: list[str] = []
        pos: dict[str, int] = {}
        mapping = np.zeros(len(names), dtype=np.int64)
        for i, name in enumerate(names):
            label = self.group_label(name)
            if label not in pos:
                pos[label] = len(labels)
                labels.append(label)
            mapping[i] = pos[label]
        return labels, mapping

    def onehot_member_dims(self) -> set[int]:
        return {j for j, n in enumerate(self.feature_names)
                if self.group_label(n) != n}

    def raw_input_columns(self) -> tuple[list[str], list[str]]:
        """(numeric column names, categorical base names) a raw input
        frame must provide to cover the encoded feature columns."""
        labels = [self.group_label(n) for n in self.feature_names]
        numeric = [n for n, g in zip(self.feature_names, labels) if g == n]
        bases = list(dict.fromkeys(
            g for n, g in zip(self.feature_names, labels) if g != n
        ))
        return numeric, bases

    def encode_frame(self, columns: dict) -> np.ndarray:
        """Raw (unstandardized) encoded feature matrix from named columns.

        Numeric columns arrive as float arrays; categorical bases as raw
        level strings, matched against the training-time member columns.
        An unseen level is an error naming the row and the level.
        """
        numeric, bases = self.raw_input_columns()
        n = None
        for name in [*numeric, *bases]:
            if name not in columns:
                raise DataError(f"input frame is missing column {name!r}")
            size = len(columns[name])
            if n is None:
                n = size
            elif size != n:
                raise DataError(f"column {name!r} has {size} rows, expected {n}")
        col_pos = {name: k for k, name in enumerate(self.feature_names)}
        X = np.zeros((n, self.p))
        for name in numeric:
            X[:, col_pos[name]] = np.asarray(columns[name], dtype=float)
        for base in bases:
            level_col = {}
            for member in self.onehot_groups[base]:
                if member in col_pos:
                    level_col[member.split("=", 1)[1]] = col_pos[member]
            for r, value in enumerate(columns[base]):
                value = str(value)
                if value not in level_col:
                    raise DataError(
                        f"row {r}: unseen level {value!r} for column {base!r}"
                    )
                X[r, level_col[value]] = 1.0
        return X


def modifier_columns(X: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Columns ``idx`` of X, or X itself when idx selects every column
    in order."""
    if idx.size == X.shape[1] and np.array_equal(idx, np.arange(idx.size)):
        return X
    return X[:, idx]


def _as_matrix(rows, width: int, what: str) -> np.ndarray:
    M = np.asarray(rows, dtype=float)
    if M.ndim == 1:
        M = M[None, :]
    if M.ndim != 2 or M.shape[1] != width:
        raise DataError(f"{what} has arity {M.shape[-1]}, expected {width}")
    return M


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

    # -- standardized-space internals (2-D rows of width p) ----------------

    def delta_of_std(self, X_std: np.ndarray) -> np.ndarray:
        out = np.zeros((X_std.shape[0], self.p))
        for j, cf in enumerate(self.coef):
            if not cf.trees:
                continue
            Xj = modifier_columns(X_std, self.space.modifier_sets[j])
            acc = np.zeros(X_std.shape[0])
            for tree in cf.trees:
                acc += tree.predict(Xj)
            out[:, j] = cf.epsilon * acc
        return out

    def beta_of_std(self, X_std: np.ndarray) -> np.ndarray:
        return self.beta_glm[None, :] + self.delta_of_std(X_std)

    def eta_std(self, X_std: np.ndarray) -> np.ndarray:
        return self.beta0 + np.sum(self.beta_of_std(X_std) * X_std, axis=1)

    # -- public raw-input surface -------------------------------------------

    def _standardized(self, X) -> np.ndarray:
        return self.space.scaler.apply_x(_as_matrix(X, self.p, "feature row"))

    def beta_of(self, X) -> np.ndarray:
        """Coefficient vector(s) beta(x) for raw feature rows."""
        return self.beta_of_std(self._standardized(X))

    def delta_of(self, X) -> np.ndarray:
        """Tree-sum correction(s) to the GLM coefficients, no GLM term."""
        return self.delta_of_std(self._standardized(X))

    def linear_predictor(self, X, Z=None) -> np.ndarray:
        # ``Z`` is read only by bench/, which still passes the feature
        # matrix a second time; a benchmark-only change deletes it.
        if Z is not None and Z is not X:
            raise DataError("Z must be omitted or be the feature matrix X itself")
        return self.eta_std(self._standardized(X))

    def predict_mu(self, X, Z=None) -> np.ndarray:
        """Mean prediction for raw feature rows; expected response is w*mu
        under the Poisson profile. ``Z``: see ``linear_predictor``."""
        eta = self.linear_predictor(X, Z)
        if self.link.kind == "log":
            check_eta(eta, context="predict")
        return self.link.inverse(eta)


# -- GLM fitting (IRLS) -------------------------------------------------------


def _irls(y, w, X, loss, link, ridge=1e-8, tol=1e-10, max_iter=100):
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
    ridge_diag = np.concatenate([[0.0], np.full(p, ridge)])
    coefs = np.concatenate([[beta0], beta])
    cur = loss_total(loss, link, A @ coefs, y, w)
    consecutive_bad = 0
    for _ in range(max_iter):
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
        if rel <= tol:
            break
    return GlmCoefficients(beta0=float(coefs[0]), beta=coefs[1:].copy())


def fit_glm(dataset: Dataset, loss, link) -> GlmCoefficients:
    """GLM estimate by iteratively reweighted least squares.

    Expects an encoded, standardized dataset. A tiny ridge (1e-8) on the
    non-intercept block keeps the normal equations solvable when one-hot
    blocks make the design rank deficient.
    """
    check_canonical(loss, link)
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
        loss = get_loss(payload["loss"])
        link = get_link(payload["link"])
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
    except (KeyError, TypeError, ValueError) as exc:
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
