"""The benchmark's three workloads.

Each workload has a set-up step that builds its inputs from the seed, an
operation ``op(k)`` that is the unit timed (and, in the traced run,
wrapped in spans) and ``check(k, result)``, which verifies the
operation's outputs outside the timed region. Operation ``k`` works on
input ``k % pool``; once every input has been used the loop starts over,
and each repeat must reproduce the first result bit for bit.

Sizes are scaled so that one operation takes 0.3 to 1.2 seconds on a
2-core 2 GHz Xeon VM, which gives a 30-second run about 25 to 100
operations. Every fit tunes the same number of candidates (patience
equals the κ cap, so no dimension closes early) and the fitting
workloads spread their operations over 32 inputs, so that what a run
measures depends little on its seed.

Every call into tvcm goes through a module attribute
(``tvcm.boosting.fit_tvcm``, not a name imported once), so that the
traced run's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

import claims


def sub_seeds(seed: int, k: int, count: int) -> list[int]:
    """Independent 32-bit seeds for input ``k`` of a run seeded ``seed``."""
    state = np.random.SeedSequence([seed, k]).generate_state(count)
    return [int(s) for s in state]


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class OpResult:
    key: int
    digest: str  # sha256 of the op's deterministic artifacts
    test_loss: float
    trees: int  # candidates plus trained trees (fits); model trees (scoring)
    model_s: float  # seconds in fit_tvcm (fits) or in `tvcm predict` (scoring)
    rows: int  # rows the operation takes in
    extra: dict = field(default_factory=dict)


class Workload:
    name = ""
    pool = 1
    # Set-up runs this many times per run; setup_s is their median.
    setup_repeats = 5

    def __init__(self, tvcm, work: str, seed: int):
        self.tvcm = tvcm
        self.work = work
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, k: int) -> OpResult:
        raise NotImplementedError

    def check(self, k: int, res: OpResult) -> list[str]:
        raise NotImplementedError

    def test_loss(self) -> float:
        """Deterministic held-out deviance of the run's inputs."""
        raise NotImplementedError

    def run_checks(self) -> list[str]:
        """Checks on the whole run's results; failure messages."""
        return []

    def info(self) -> dict:
        return {}


def _glm_test_deviance(fit, test) -> float:
    """Held-out deviance of the GLM that fit_tvcm started from."""
    model = fit.model
    eta = fit.glm.beta0 + model.space.scaler.apply_x(test.X) @ fit.glm.beta
    mu = model.link.inverse(eta)
    return float(np.mean(model.loss.value(mu, test.y, test.w)))


class _FitWorkload(Workload):
    """Tuned fit shared by the two fitting workloads, and the checks on
    its model."""

    rows = 0
    max_kappa = 0
    patience = 0
    epsilon = 0.0
    min_samples_leaf = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.first: dict[int, OpResult] = {}

    def _model_path(self, k: int) -> str:
        return os.path.join(self.work, f"model-{k % self.pool}.json")

    def _fit(self, k, train, loss, link):
        """Tune and train on ``train``; the fit and its seconds."""
        tvcm = self.tvcm
        cfg = tvcm.BoostConfig(
            epsilon=self.epsilon,
            kappa=self.max_kappa,
            tree=tvcm.TreeConfig(2, self.min_samples_leaf),
        )
        stop_seed = sub_seeds(self.seed, k % self.pool, 3)[2]
        stop = tvcm.StoppingConfig(0.5, self.patience, stop_seed, 2.0)
        t0 = time.perf_counter()
        fit = tvcm.boosting.fit_tvcm(train, loss, link, cfg, stop)
        return fit, time.perf_counter() - t0

    def _finish(self, k, train, test, fit, fit_s, mu_test):
        """Save the model and collect what the checks need."""
        self.tvcm.model.save_model(fit.model, self._model_path(k))
        loss = fit.model.loss
        return OpResult(
            key=k % self.pool,
            digest="",
            test_loss=float(np.mean(loss.value(mu_test, test.y, test.w))),
            trees=len(fit.tune.trace) + int(fit.model.kappa.sum()),
            model_s=fit_s,
            rows=self.rows,
            extra={
                "fit": fit,
                "test": test,
                "mu_test": mu_test,
                "train": train,
                "kappa": [int(v) for v in fit.model.kappa],
                "candidates": len(fit.tune.trace),
            },
        )

    def check(self, k: int, res: OpResult) -> list[str]:
        tvcm = self.tvcm
        fails = []
        res.digest = sha256_file(self._model_path(k))
        first = self.first.get(res.key)
        if first is not None:
            # A repeat of an input must give the same model and outputs.
            if res.digest != first.digest:
                fails.append(f"input {res.key}: model JSON differs on repeat")
            if not np.array_equal(res.extra["mu_test"], first.extra["mu_test"]):
                fails.append(f"input {res.key}: test predictions differ on repeat")
            res.extra = {"kappa": res.extra["kappa"]}
            return fails
        fit, test = res.extra["fit"], res.extra["test"]
        glm = _glm_test_deviance(fit, test)
        clone = tvcm.model.load_model(self._model_path(k))
        if not np.array_equal(clone.predict_mu(test.X, test.Z), res.extra["mu_test"]):
            fails.append(f"input {res.key}: reloaded model predicts differently")
        fails += self._extra_checks(res)
        # keep only what later repeats compare against
        res.extra = {
            "mu_test": res.extra["mu_test"],
            "kappa": res.extra["kappa"],
            "candidates": res.extra["candidates"],
            "glm_test_loss": glm,
        }
        self.first[res.key] = res
        return fails

    def _extra_checks(self, res: OpResult) -> list[str]:
        return []

    def test_loss(self) -> float:
        return float(np.mean([r.test_loss for r in self.first.values()]))

    def run_checks(self) -> list[str]:
        glm = float(np.mean([r.extra["glm_test_loss"] for r in self.first.values()]))
        if self.test_loss() < glm:
            return []
        return [f"TVCM test deviance {self.test_loss()!r} does not beat the "
                f"GLM's {glm!r}"]

    def info(self) -> dict:
        keys = sorted(self.first)
        digests = [self.first[k].digest for k in keys]
        return {
            "rows": self.rows, "split": [0.5, 0.5], "inputs": self.pool,
            "max_kappa": self.max_kappa, "patience": self.patience,
            "epsilon": self.epsilon, "max_depth": 2,
            "min_samples_leaf": self.min_samples_leaf, "acceptance_z": 2.0,
            "model_sha256": digests,
            "models_sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
            "kappa": [self.first[k].extra["kappa"] for k in keys],
            "candidates": [self.first[k].extra["candidates"] for k in keys],
            "test_loss": [self.first[k].test_loss for k in keys],
            "glm_test_loss": [self.first[k].extra["glm_test_loss"] for k in keys],
        }


class SimGaussian(_FitWorkload):
    """Scaled paper reproduction: simulate, split 50/50, tune and train,
    predict the test half, FI* importance, save the model.

    Continuous modifiers and the closed-form Gaussian leaf step put most
    of the fit in the presorted split scan.
    """

    name = "sim-gaussian"
    pool = 32
    setup_repeats = 9  # one set-up is a 0.2-second warm-up fit
    rows = 6000
    # Eight dimensions times ten cycles: 80 candidates per fit.
    max_kappa = 10
    patience = 10
    epsilon = 0.01
    min_samples_leaf = 10

    def setup(self) -> None:
        # Nothing to build: each operation simulates its own data. Set-up
        # runs the operation's code path once on a smaller problem, so
        # that first-call costs (imports inside numpy, allocator growth)
        # are not timed.
        tvcm = self.tvcm
        ds, _ = tvcm.data.simulate(tvcm.SimulationSpec(n=2000, seed=self.seed))
        cfg = tvcm.BoostConfig(epsilon=0.01, kappa=10, tree=tvcm.TreeConfig(2, 10))
        stop = tvcm.StoppingConfig(0.5, 2, self.seed, 2.0)
        fit = tvcm.boosting.fit_tvcm(ds, tvcm.GAUSSIAN, tvcm.IDENTITY, cfg, stop)
        fit.model.predict_mu(ds.X, ds.Z)
        tvcm.boosting.importance_report(fit.model, ds)
        tvcm.model.save_model(fit.model, os.path.join(self.work, "warm-up.json"))

    def op(self, k: int) -> OpResult:
        tvcm = self.tvcm
        data_seed, split_seed, _ = sub_seeds(self.seed, k % self.pool, 3)
        ds, _ = tvcm.data.simulate(tvcm.SimulationSpec(n=self.rows, seed=data_seed))
        train, test = tvcm.data.split(ds, (0.5, 0.5), seed=split_seed)
        fit, fit_s = self._fit(k, train, tvcm.GAUSSIAN, tvcm.IDENTITY)
        mu_test = fit.model.predict_mu(test.X, test.Z)
        tvcm.boosting.importance_report(fit.model, train)
        return self._finish(k, train, test, fit, fit_s, mu_test)


class ClaimsPoisson(_FitWorkload):
    """Claim-frequency fit: load a freMTPL2-shaped CSV with the ``real``
    profile's schema, one-hot encode (41 dimensions), tune and train a
    Poisson model, score the held-out half.

    Low-cardinality integer and indicator columns, mostly rejected
    candidates and the Newton leaf search stress different code than
    sim-gaussian does.
    """

    name = "claims-poisson"
    pool = 32
    rows = 4000
    # One tuning cycle over 41 dimensions: 41 candidates per fit, most
    # of them rejected. The larger step keeps the few accepted trees
    # enough to beat the GLM on held-out deviance. The Newton search's
    # cost still differs between inputs by up to a factor of two, which
    # small inputs and a large pool average out.
    max_kappa = 1
    patience = 1
    epsilon = 0.1
    min_samples_leaf = 20

    def _csv(self, k: int) -> str:
        return os.path.join(self.work, f"claims-{k % self.pool}.csv")

    def setup(self) -> None:
        for k in range(self.pool):
            claims.write_claims_csv(
                self._csv(k), self.rows, sub_seeds(self.seed, k, 3)[0]
            )

    def op(self, k: int) -> OpResult:
        tvcm = self.tvcm
        split_seed = sub_seeds(self.seed, k % self.pool, 3)[1]
        schema = tvcm.Schema(**claims.SCHEMA_KW)
        ds = tvcm.data.onehot_encode(tvcm.data.load_csv(self._csv(k), schema))
        train, test = tvcm.data.split(ds, (0.5, 0.5), seed=split_seed)
        fit, fit_s = self._fit(k, train, tvcm.POISSON, tvcm.LOG)
        mu_test = fit.model.predict_mu(test.X, test.Z)
        return self._finish(k, train, test, fit, fit_s, mu_test)

    def _extra_checks(self, res: OpResult) -> list[str]:
        # Aggregate balance on the training rows after the intercept refit.
        train, model = res.extra["train"], res.extra["fit"].model
        mu = model.predict_mu(train.X, train.Z)
        wy = float(np.sum(train.w * train.y))
        rel = abs(float(np.sum(train.w * mu)) - wy) / wy
        if not rel <= 1e-8:
            return [f"input {res.key}: Poisson balance off by {rel:.3e} > 1e-8"]
        return []


class ScoreCli(Workload):
    """Batch scoring through the CLI: ``tvcm predict --emit-beta`` and
    ``tvcm importance`` on a fixed 600-tree model.

    Nothing is trained in the timed part, so routing rows through trees,
    CSV input/output and model JSON do the work.
    """

    name = "score-cli"
    pool = 16
    setup_repeats = 3
    train_rows = 1000
    rows = 2500
    kappa = (0, 100, 100, 100, 100, 100, 100, 0)

    def __init__(self, *args):
        super().__init__(*args)
        self.model_path = os.path.join(self.work, "model.json")
        self.out = os.path.join(self.work, "out")
        self.data: list = []
        self.first_digest: dict[int, str] = {}
        self.losses: dict[int, float] = {}

    def _csv(self, k: int) -> str:
        return os.path.join(self.work, f"score-{k % self.pool}.csv")

    def setup(self) -> None:
        tvcm = self.tvcm
        # The model is the same for every seed, so its JSON hash tracks
        # whether a change to tvcm altered training; the seed picks the
        # rows to score.
        ds, _ = tvcm.data.simulate(tvcm.SimulationSpec(n=self.train_rows, seed=0))
        cfg = tvcm.BoostConfig(epsilon=0.01, kappa=self.kappa, tree=tvcm.TreeConfig(2, 10))
        self.model = tvcm.boosting.fit_tvcm(ds, tvcm.GAUSSIAN, tvcm.IDENTITY, cfg).model
        tvcm.model.save_model(self.model, self.model_path)
        self.data = []
        for k in range(self.pool):
            score_seed = sub_seeds(self.seed, k, 1)[0]
            d, _ = tvcm.data.simulate(tvcm.SimulationSpec(n=self.rows, seed=score_seed))
            tvcm.cli.write_csv(
                self._csv(k),
                ["y", "w", *d.x_names],
                ([d.y[i], d.w[i], *d.X[i]] for i in range(d.n)),
            )
            self.data.append(d)
        os.makedirs(self.out, exist_ok=True)

    def _cli(self, *argv: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.tvcm.cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"tvcm {argv[0]} exited with {code}")

    def op(self, k: int) -> OpResult:
        t0 = time.perf_counter()
        self._cli("predict", "--model", self.model_path, "--data", self._csv(k),
                  "--emit-beta", "--out", self.out)
        t1 = time.perf_counter()
        self._cli("importance", "--model", self.model_path, "--data", self._csv(k),
                  "--out", self.out)
        trees = int(sum(self.kappa))
        return OpResult(key=k % self.pool, digest="", test_loss=0.0, trees=trees,
                        model_s=t1 - t0, rows=self.rows)

    def _outputs(self) -> list[str]:
        return [os.path.join(self.out, n) for n in (
            "predictions.csv", "importance_split_gain.csv", "importance_fi_star.csv")]

    def check(self, k: int, res: OpResult) -> list[str]:
        digest = hashlib.sha256(
            "".join(sha256_file(p) for p in self._outputs()).encode()
        ).hexdigest()
        res.digest = digest
        first = self.first_digest.get(res.key)
        if first is not None:
            return [] if digest == first else [
                f"input {res.key}: CLI outputs differ between repeats of the same command"]
        self.first_digest[res.key] = digest
        tvcm, d = self.tvcm, self.data[res.key]
        fails = []
        mu = self.model.predict_mu(d.X)
        beta = self.model.beta_of(d.X)
        raw_fi = tvcm.boosting.fi_star(self.model, d).raw
        with open(self._outputs()[0], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        got = np.asarray([[float(c) for c in r] for r in body])
        if len(body) != d.n or not np.array_equal(got[:, header.index("mu_hat")], mu):
            fails.append(f"input {res.key}: tvcm predict mu_hat differs from model.predict_mu")
        cols = [header.index(f"beta_hat_{n}") for n in self.model.space.feature_names]
        if len(body) == d.n and not np.array_equal(got[:, cols], beta):
            fails.append(f"input {res.key}: tvcm predict beta_hat differs from model.beta_of")
        with open(self._outputs()[2], newline="", encoding="utf-8") as fh:
            fi = [float(r["mean_abs_beta"]) for r in csv.DictReader(fh)]
        if not np.array_equal(np.asarray(fi), raw_fi):
            fails.append(f"input {res.key}: tvcm importance FI* differs from boosting.fi_star")
        self.losses[res.key] = float(np.mean(tvcm.GAUSSIAN.value(mu, d.y, d.w)))
        return fails

    def test_loss(self) -> float:
        return float(np.mean(list(self.losses.values())))

    def info(self) -> dict:
        keys = sorted(self.first_digest)
        return {
            "train_rows": self.train_rows, "rows": self.rows, "inputs": self.pool,
            "kappa": list(self.kappa), "trees": int(sum(self.kappa)),
            "model_sha256": sha256_file(self.model_path),
            "outputs_sha256": [self.first_digest[k] for k in keys],
            "test_loss": [self.losses[k] for k in keys],
        }


WORKLOADS = {w.name: w for w in (SimGaussian, ClaimsPoisson, ScoreCli)}
