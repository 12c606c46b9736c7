"""Batch command-line front end.

Commands: simulate | tune | train | predict | evaluate | importance.
Every command is deterministic given its flags and seeds; rerunning
writes byte-identical files. All tabular outputs are headered CSV, and
figures are emitted as tidy CSV data rather than images; ``tvcm.data``
reads and writes every CSV file. Errors go to stderr with the prefix
``tvcm: error:`` and exit code 2: a bad cell names its file, row and
column, and a bad setting names its flag, or its config file and key.

Setting precedence: command-line flags > config file > profile
defaults. Config files are flat ``key = value`` text; ``#`` starts a
comment. The "sim" and "real" profiles carry the hyperparameters of the
simulation and claim-frequency setups (tree depth 2, learning rate
0.01, minimum leaf sizes 10 and 20).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import boosting, data, losses, model as model_mod
# the commands write every table through this name, which the traced
# benchmark wraps
from .data import write_csv
from .errors import ConfigError, DataError, TvcmError
from .tree import TreeConfig

PROFILES = {
    "sim": {
        "loss": "gaussian_deviance",
        "max_depth": "2",
        "min_samples_leaf": "10",
        "epsilon": "0.01",
        "max_kappa": "1500",
        "patience": "20",
        "validation_fraction": "0.5",
        "acceptance_z": "2.0",
        "response": "y",
        "weight": "w",
        "numeric": "auto",
        "categorical": "",
    },
    "real": {
        "loss": "poisson_deviance",
        "max_depth": "2",
        "min_samples_leaf": "20",
        "epsilon": "0.01",
        "max_kappa": "1000",
        "patience": "20",
        "validation_fraction": "0.5",
        "acceptance_z": "2.0",
        "response": "ClaimNb",
        "weight": "Exposure",
        "response_kind": "count",
        "response_per_weight": "true",
        "numeric": "VehPower,VehAge,DrivAge,BonusMalus,Density,Area",
        "categorical": "VehBrand,VehGas,Region",
        "ordinal:Area": "A,B,C,D,E,F",
        "cap:ClaimNb": "4",
        "cap:Exposure": "1",
    },
}


def parse_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'key = value', got {line!r}"
                    )
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return out


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


class Settings:
    """Flag > config file > profile resolution for one command run."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file = parse_config(args.config) if getattr(args, "config", None) else {}
        profile = getattr(args, "profile", None) or self.file.get("profile") or "sim"
        if profile not in PROFILES:
            raise ConfigError(f"unknown profile {profile!r}")
        self.profile_name = profile
        self.profile = PROFILES[profile]

    def _flag(self, key: str):
        return getattr(self.args, key.replace("-", "_").replace(":", "_"), None)

    def raw(self, key: str, default=None):
        flag = self._flag(key)
        if flag is not None:
            return flag
        return self.file.get(key, self.profile.get(key, default))

    def get(self, key: str, convert, what: str, default=None):
        """``convert(raw(key, default))``, or None; a value it rejects
        is a ConfigError naming the flag or the config file and key."""
        value = self.raw(key, default)
        if value is None:
            return None
        try:
            return convert(value)
        except (KeyError, ValueError):
            # profile values and defaults always convert
            where = ("--" + key.replace("_", "-") if self._flag(key) is not None
                     else f"{self.args.config}: {key}")
            raise ConfigError(f"{where}: expected {what}, got {value!r}") from None

    def get_str(self, key: str, default=None) -> str | None:
        value = self.raw(key, default)
        return None if value in (None, "", "none") else str(value)

    def required(self, *keys: str) -> list[str]:
        """The values of string settings ``keys``, each of which must be set."""
        values = [self.get_str(key) for key in keys]
        if not all(values):
            flags = " and ".join("--" + key for key in keys)
            raise ConfigError(f"{self.args.command} requires {flags}")
        return values

    def get_int(self, key: str, default=None) -> int | None:
        return self.get(key, int, "an integer", default)

    def get_float(self, key: str, default=None) -> float | None:
        return self.get(key, float, "a number", default)

    def get_bool(self, key: str, default=False) -> bool:
        return self.get(key, lambda v: _BOOLS[str(v).strip().lower()],
                        "one of " + ", ".join(_BOOLS), default)

    def get_list(self, key: str) -> list[str]:
        value = self.raw(key, "")
        if not value:
            return []
        return [item.strip() for item in str(value).split(",") if item.strip()]

    def prefixed(self, prefix: str) -> dict[str, str]:
        """Settings whose key starts with ``prefix``, keyed by the rest."""
        merged = {**self.profile, **self.file}
        return {k[len(prefix):]: v for k, v in merged.items() if k.startswith(prefix)}


def build_schema(st: Settings, data_path: str) -> data.Schema:
    response = st.get_str("response")
    weight = st.get_str("weight")
    categorical = st.get_list("categorical")
    numeric = st.get_list("numeric")
    ordinal = {
        col: tuple(v.strip() for v in levels.split(","))
        for col, levels in st.prefixed("ordinal:").items()
    }
    if numeric == ["auto"] or not numeric:
        skip = {response, weight, *categorical}
        numeric = [c for c in data.csv_header(data_path) if c not in skip and c]
    caps = {col: st.get_float(f"cap:{col}") for col in st.prefixed("cap:")}
    floors = {col: st.get_float(f"floor:{col}") for col in st.prefixed("floor:")}
    transforms = dict(st.prefixed("transform:"))
    return data.Schema(
        response=response,
        numeric=tuple(numeric),
        categorical=tuple(categorical),
        weight=weight,
        response_kind=st.get_str("response_kind", "real"),
        response_per_weight=st.get_bool("response_per_weight", False),
        caps=caps,
        floors=floors,
        transforms=transforms,
        ordinal=ordinal,
    )


def loss_of(st: Settings):
    """The configured loss; a config file may name its link, which must
    be the loss's own."""
    loss = losses.get_loss(st.get_str("loss"))
    if (link := st.get_str("link")) is not None:
        losses.check_canonical(loss, losses.get_link(link))
    return loss


def boost_config(st: Settings, kappa=0) -> boosting.BoostConfig:
    return boosting.BoostConfig(
        epsilon=st.get_float("epsilon"),
        kappa=kappa,
        tree=TreeConfig(
            max_depth=st.get_int("max_depth"),
            min_samples_leaf=st.get_int("min_samples_leaf"),
        ),
    )


def _rows_of(*cols):
    """Rows of equal-length 1-D arrays, one cell per array, as Python
    ints and floats, which ``write_csv`` formats without numpy calls."""
    return zip(*[np.asarray(c).tolist() for c in cols])


def _out_dir(st: Settings) -> str:
    out = st.get_str("out", ".")
    os.makedirs(out, exist_ok=True)
    return out


# -- commands ----------------------------------------------------------------


def cmd_simulate(st: Settings) -> None:
    n = st.get_int("n", 200000)
    seed = st.get_int("seed", 1)
    frac = st.get_float("split_frac")
    if frac is not None and not 0.0 < frac < 1.0:
        raise ConfigError(f"--split-frac must be in (0, 1), got {frac}")
    out = _out_dir(st)
    ds, mu = data.simulate(data.SimulationSpec(n=n, seed=seed))
    beta = data.true_beta(ds.X)

    def write_pair(stem: str, idx: np.ndarray) -> None:
        write_csv(
            os.path.join(out, f"{stem}.csv"),
            ["y", "w", *ds.x_names],
            _rows_of(ds.y[idx], ds.w[idx], *ds.X[idx].T),
        )
        write_csv(
            os.path.join(out, f"{stem}_truth.csv"),
            ["row_id", "mu", *[f"beta_{k}" for k in range(1, 9)]],
            _rows_of(idx, mu[idx], *beta[idx].T),
        )

    write_pair("sim_data", np.arange(n))
    if frac is not None:
        idx_train, idx_test = data.split_indices(n, frac, st.get_int("split_seed", seed))
        write_pair("sim_train", idx_train)
        write_pair("sim_test", idx_test)
    print(f"simulate: wrote {n} rows (seed {seed}) to {out}")


def cmd_tune(st: Settings) -> None:
    [path] = st.required("data")
    out = _out_dir(st)
    ds_enc = data.load_csv(path, build_schema(st, path))
    loss = loss_of(st)
    config = boost_config(st, kappa=st.get_int("max_kappa"))
    stopping = boosting.StoppingConfig(
        validation_fraction=st.get_float("validation_fraction"),
        patience=st.get_int("patience"),
        seed=st.get_int("seed", 0),
        acceptance_z=st.get_float("acceptance_z"),
    )
    print(
        f"tune: profile={st.profile_name} max_depth={config.tree.max_depth} "
        f"min_samples_leaf={config.tree.min_samples_leaf} "
        f"epsilon={config.epsilon} max_kappa={config.kappa} "
        f"patience={stopping.patience} "
        f"validation_fraction={stopping.validation_fraction} "
        f"acceptance_z={stopping.acceptance_z} seed={stopping.seed}"
    )
    ds_std, _ = data.standardize(ds_enc)
    result = boosting.tune_kappa(ds_std, config, stopping, loss)
    write_csv(
        os.path.join(out, "kappa.csv"),
        ["dimension", "kappa"],
        zip(ds_enc.x_names, result.kappa),
    )
    boosting.write_trace_csv(result.trace, os.path.join(out, "tune_trace.csv"))
    summary = " ".join(f"{n}={k}" for n, k in zip(ds_enc.x_names, result.kappa))
    print(f"tune: kappa {summary}")


def _read_kappa(st: Settings, names: list[str]) -> tuple[int, ...]:
    [spec] = st.required("kappa")
    if os.path.exists(spec):
        cells, _ = data.read_columns(spec, ["dimension", "kappa"])
        data.require_unique(cells["dimension"], "dimension", spec)
        kappa = data.int_cells(cells["kappa"], "kappa", spec)
        by_name = dict(zip(cells["dimension"], kappa))
        missing = [n for n in names if n not in by_name]
        if missing:
            raise ConfigError(f"kappa file {spec} is missing dimensions {missing}")
        return tuple(by_name[n] for n in names)
    values = st.get("kappa", lambda spec: [int(v) for v in spec.split(",")],
                    "a kappa file, one count or a comma list of counts")
    if len(values) == 1:
        return tuple(values * len(names))
    if len(values) != len(names):
        raise ConfigError(
            f"--kappa lists {len(values)} values for {len(names)} dimensions"
        )
    return tuple(values)


def cmd_train(st: Settings) -> None:
    [path] = st.required("data")
    out = _out_dir(st)
    loss = loss_of(st)
    ds_enc = data.load_csv(path, build_schema(st, path))
    kappa = _read_kappa(st, ds_enc.x_names)
    config = boost_config(st, kappa=kappa)
    result = boosting.fit_tvcm(ds_enc, loss, loss.link, config, stopping=None)
    model_path = os.path.join(out, "model.json")
    model_mod.save_model(result.model, model_path)
    if result.train_trace:
        boosting.write_trace_csv(
            result.train_trace, os.path.join(out, "train_trace.csv")
        )
    scores = result.model.scores(ds_enc.X)
    mu = result.model.mu_from_eta(scores.eta)
    train_loss = float(np.mean(loss.value(mu, ds_enc.y, ds_enc.w)))
    if st.get_bool("emit_beta", False):
        write_csv(
            os.path.join(out, "train_beta.csv"),
            ["row_id", *[f"beta_hat_{n}" for n in ds_enc.x_names]],
            _rows_of(np.arange(ds_enc.n), *scores.beta.T),
        )
    glm_txt = " ".join(
        f"{n}={g:.6g}" for n, g in zip(ds_enc.x_names, result.glm.beta)
    )
    kappa_txt = " ".join(f"{n}={k}" for n, k in zip(ds_enc.x_names, kappa))
    print(f"train: average training loss {train_loss:.6f}")
    print(f"train: glm beta0={result.glm.beta0:.6g} {glm_txt}")
    print(f"train: kappa {kappa_txt}")
    print(f"train: model written to {model_path}")


def _frame_for_model(st: Settings, mdl, path: str):
    """Raw encoded X for a scoring input, plus its weights (ones without
    a weight column) and row count. Numeric columns are cleaned by the
    same directives as training data; categorical columns are one-hot
    encoded by ``data.onehot_fill``, as in training, at the positions of
    the model's member columns."""
    schema = build_schema(st, path)
    space = mdl.space
    numeric = {name: j for j, name in enumerate(space.feature_names)
               if not space.onehot.grouped[j]}
    wanted = [*numeric, *space.onehot.members]
    weight = schema.weight if schema.weight in data.csv_header(path) else None
    if weight:
        wanted.append(weight)
    cells, n = data.read_columns(path, wanted)
    X = np.zeros((n, space.p))
    for col, j in numeric.items():
        X[:, j] = schema.numeric_values(col, cells[col], path)
    for base, level_column in space.onehot.members.items():
        data.onehot_fill(X, base, cells[base], level_column, path)
    w = schema.weight_values(cells[weight], path) if weight else np.ones(n)
    return X, w, n


def cmd_predict(st: Settings) -> None:
    model_path, path = st.required("model", "data")
    out = _out_dir(st)
    mdl = model_mod.load_model(model_path)
    X, w, n = _frame_for_model(st, mdl, path)
    scores = mdl.scores(X)
    mu = mdl.mu_from_eta(scores.eta)
    header = ["row_id", "mu_hat"]
    cols = [mu]
    if mdl.loss.kind == "poisson_deviance":
        header.append("expected_response")
        cols.append(w * mu)
    if st.get_bool("emit_beta", False):
        header += [f"beta_hat_{name}" for name in mdl.space.feature_names]
        cols += [scores.beta[:, j] for j in range(mdl.p)]
    if st.get_bool("emit_delta", False):
        header += [f"delta_{name}" for name in mdl.space.feature_names]
        cols += [scores.delta[:, j] for j in range(mdl.p)]
    dest = os.path.join(out, "predictions.csv")
    write_csv(dest, header, _rows_of(np.arange(n), *cols))
    print(f"predict: wrote {n} rows to {dest}")


def _load_predictions(path: str, n_expected: int, loss) -> np.ndarray:
    cells, n = data.read_columns(path, ["mu_hat"])
    if n != n_expected:
        raise DataError(f"{path}: {n} prediction rows for {n_expected} data rows")
    mu = data.float_cells(cells["mu_hat"], "mu_hat", path)
    data.require_finite(mu, ["mu_hat"], path)
    if loss.kind == "poisson_deviance":
        data.require_all(mu > 0, "non-positive mean under the Poisson loss",
                         "mu_hat", path)
    return mu


def _baseline_models(st: Settings, train_path: str, loss):
    ds_enc = data.load_csv(train_path, build_schema(st, train_path))
    zero = boost_config(st, kappa=0)
    glm_model = boosting.fit_tvcm(ds_enc, loss, loss.link, zero).model
    ds_null = data.Dataset(
        y=ds_enc.y, w=ds_enc.w, X=np.empty((ds_enc.n, 0)), x_names=[]
    )
    null_model = boosting.fit_tvcm(ds_null, loss, loss.link, zero).model
    return null_model, glm_model


def cmd_evaluate(st: Settings) -> None:
    [path] = st.required("data")
    preds = getattr(st.args, "pred", None) or []
    out = _out_dir(st)
    loss = loss_of(st)
    # the outcomes alone: --fit-baselines reads the features itself
    outcomes = replace(build_schema(st, path), numeric=(), categorical=(), ordinal={})
    ds = data.load_csv(path, outcomes)
    window = st.get_int("rolling")
    if window is not None and not 1 <= window <= ds.n:
        raise ConfigError(f"--rolling must be a window of 1 to {ds.n} rows, "
                          f"got {window}")
    named: list[tuple[str, np.ndarray]] = []
    for item in preds:
        name, _, ppath = item.partition("=")
        if not ppath:
            raise ConfigError(f"--pred wants NAME=path, got {item!r}")
        named.append((name, _load_predictions(ppath, ds.n, loss)))
    baseline_path = st.get_str("fit_baselines")
    if baseline_path:
        null_model, glm_model = _baseline_models(st, baseline_path, loss)
        X, _, _ = _frame_for_model(st, glm_model, path)
        named.append(("Intercept", null_model.predict_mu(np.empty((ds.n, 0)))))
        named.append(("GLM", glm_model.predict_mu(X)))
    if not named:
        raise ConfigError("evaluate needs --pred and/or --fit-baselines")
    poisson = loss.kind == "poisson_deviance"
    header = ["model", "avg_loss"] + (["avg_loss_x100"] if poisson else [])
    rows = []
    for name, mu in named:
        avg = float(np.mean(loss.value(mu, ds.y, ds.w)))
        rows.append([name, avg] + ([avg * 100.0] if poisson else []))
    dest = os.path.join(out, "evaluation.csv")
    write_csv(dest, header, rows)
    for row in rows:
        print(f"evaluate: {row[0]} avg_loss={row[1]:.6f}")
    if window is not None:
        order = np.argsort(named[0][1], kind="stable")
        kernel = np.ones(window) / window
        def roll(v):
            return np.convolve(v[order], kernel, mode="valid")
        roll_w = roll(ds.w)
        cols = [("y", roll(ds.y * ds.w) / roll_w)]
        cols += [(name, roll(mu)) for name, mu in named]
        dest = os.path.join(out, "rolling_mean.csv")
        write_csv(dest, ["index", *[c[0] for c in cols]],
                  _rows_of(np.arange(len(cols[0][1])), *[c[1] for c in cols]))
        print(f"evaluate: rolling-mean comparison written to {dest}")


def cmd_importance(st: Settings) -> None:
    model_path, path = st.required("model", "data")
    out = _out_dir(st)
    mdl = model_mod.load_model(model_path)
    X, _, _ = _frame_for_model(st, mdl, path)
    report = boosting.feature_importance(mdl)
    stars = boosting.fi_star(
        mdl, data.Dataset(y=np.zeros(len(X)), w=np.ones(len(X)), X=X,
                          x_names=list(mdl.space.feature_names))
    )
    kappa = mdl.kappa
    gain_rows = []
    for j, label in enumerate(report.row_labels):
        note = "" if kappa[j] > 0 else "no_trees"
        gain_rows.append([label, *report.split_gain[j], int(kappa[j]), note])
    dest_gain = os.path.join(out, "importance_split_gain.csv")
    write_csv(dest_gain, ["dimension", *report.col_labels, "kappa", "note"], gain_rows)
    if st.get_bool("aggregate_rows", False):
        onehot = mdl.space.onehot
        grouped = boosting.split_gain_shares(mdl, onehot.label_of, len(onehot.labels))
        write_csv(
            os.path.join(out, "importance_split_gain_grouped.csv"),
            ["dimension", *report.col_labels],
            ([label, *row] for label, row in zip(onehot.labels, grouped)),
        )
    star_rows = []
    for j, label in enumerate(stars.labels):
        if stars.included[j]:
            star_rows.append([label, stars.values[j], stars.raw[j], ""])
        else:
            star_rows.append([label, "", stars.raw[j], "onehot_excluded"])
    dest_star = os.path.join(out, "importance_fi_star.csv")
    write_csv(dest_star, ["dimension", "fi_star", "mean_abs_beta", "note"], star_rows)
    print(f"importance: wrote {dest_gain} and {dest_star}")


# -- argument parsing -----------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value settings file")
    sub.add_argument("--profile", choices=sorted(PROFILES), help="defaults profile")
    sub.add_argument("--seed", type=int, help="seed for any randomized step")
    sub.add_argument("--out", help="output directory (default: current)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvcm",
        description="Tree-based varying-coefficient models via cyclic boosting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a simulated dataset and its truth")
    p.add_argument("--n", type=int, help="rows to simulate (default 200000)")
    p.add_argument("--split-frac", type=float, help="also write a train/test split")
    p.add_argument("--split-seed", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tune", help="dimension-wise early stopping for tree counts")
    p.add_argument("--data", help="training CSV")
    p.add_argument("--max-kappa", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--validation-fraction", type=float)
    p.add_argument("--acceptance-z", type=float,
                   help="noise-margin multiplier for accepting a tree (0: "
                        "plain strict decrease)")
    _add_common(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("train", help="train at fixed per-dimension tree counts")
    p.add_argument("--data", help="training CSV")
    p.add_argument("--kappa", help="tune kappa.csv, one count, or comma list")
    p.add_argument("--emit-beta", action="store_true",
                   help="write per-row coefficient values")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict means (and coefficients) for a CSV")
    p.add_argument("--model", help="model.json from train")
    p.add_argument("--data", help="input CSV")
    p.add_argument("--emit-beta", action="store_true")
    p.add_argument("--emit-delta", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="average loss of predictions vs outcomes")
    p.add_argument("--data", help="CSV with outcomes")
    p.add_argument("--pred", action="append", metavar="NAME=path",
                   help="predictions CSV (repeatable)")
    p.add_argument("--fit-baselines", metavar="TRAIN_CSV",
                   help="also fit and score intercept-only and GLM baselines")
    p.add_argument("--rolling", type=int, metavar="WINDOW",
                   help="write a rolling-mean comparison ordered by the first model")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("importance", help="split-gain matrix and FI* scores")
    p.add_argument("--model", help="model.json from train")
    p.add_argument("--data", help="CSV to evaluate FI* on (training data)")
    p.add_argument("--aggregate-rows", action="store_true",
                   help="also write a matrix with one-hot rows grouped")
    _add_common(p)
    p.set_defaults(func=cmd_importance)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(Settings(args))
    except (TvcmError, OSError) as exc:
        print(f"tvcm: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
