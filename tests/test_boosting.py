import dataclasses
import importlib.util
import math
import pathlib

import numpy as np
import pytest

from tvcm import boosting, data, losses, model, tree
from tvcm.errors import ConfigError, DataError


def sim_encoded(n=4000, seed=5):
    ds, mu = data.simulate(data.SimulationSpec(n=n, seed=seed))
    return ds, mu


def fit(ds, kappa, *, loss=losses.GAUSSIAN, link=losses.IDENTITY,
        min_leaf=10, stopping=None, epsilon=0.01):
    cfg = boosting.BoostConfig(
        epsilon=epsilon,
        kappa=kappa,
        tree=tree.TreeConfig(2, min_leaf),
    )
    return boosting.fit_tvcm(ds, loss, link, cfg, stopping=stopping)


def test_config_validation():
    with pytest.raises(ConfigError):
        boosting.BoostConfig(epsilon=0.0).epsilon_vector(3)
    with pytest.raises(ConfigError):
        boosting.BoostConfig(epsilon=1.5).epsilon_vector(3)
    with pytest.raises(ConfigError):
        boosting.BoostConfig(kappa=-1).kappa_vector(3)
    with pytest.raises(ConfigError):
        boosting.StoppingConfig(validation_fraction=0.0)
    with pytest.raises(ConfigError):
        boosting.StoppingConfig(patience=0)


@pytest.mark.parametrize(
    "field, row, column",
    [("X", 5, "x3"), ("y", 7, "response"), ("w", 0, "weight")],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_rejects_non_finite_training_data_with_coordinates(field, row, column, bad):
    ds, _ = sim_encoded(n=200, seed=3)
    values = getattr(ds, field).copy()
    if field == "X":
        values[row, 2] = bad
        values[row + 1, 0] = bad
    else:
        values[row] = bad
        values[row + 1] = bad
    ds = dataclasses.replace(ds, **{field: values})
    with pytest.raises(
        DataError, match=rf"training data: non-finite value at row {row}, column '{column}'"
    ):
        fit(ds, 1)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_fit_rejects_non_positive_weight_with_coordinates(bad):
    ds, _ = sim_encoded(n=200, seed=3)
    w = ds.w.copy()
    w[[4, 9]] = bad
    with pytest.raises(
        DataError, match=r"training data: non-positive weight at row 4, column 'weight'"
    ):
        fit(dataclasses.replace(ds, w=w), 1)


def test_poisson_fit_rejects_negative_response_with_coordinates():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((200, 2))
    y = rng.poisson(np.exp(0.3 * X[:, 0])).astype(float)
    y[[6, 11]] = -1.0
    ds = data.Dataset(y=y, w=np.ones(200), X=X, x_names=["a", "b"])
    with pytest.raises(
        DataError, match=r"training data: negative response at row 6, column 'response'"
    ):
        fit(ds, 1, loss=losses.POISSON, link=losses.LOG)


@pytest.mark.parametrize(
    "sets, message",
    [
        ((("x1",),) * 7, "one entry per dimension"),
        ((("x1",),) * 7 + (("x9",),),
         r"dimension 7: unknown modifier column\(s\) \['x9'\]"),
        ((("x1",),) * 7 + ((),), "dimension 7: empty modifier set"),
    ],
    ids=["entry-count", "unknown-column", "empty-set"],
)
def test_modifier_sets_are_checked_against_feature_names(sets, message):
    ds, _ = sim_encoded(n=200)
    cfg = boosting.BoostConfig(kappa=1, modifier_sets=sets)
    with pytest.raises(ConfigError, match=message):
        boosting.fit_tvcm(ds, losses.GAUSSIAN, losses.IDENTITY, cfg)


def test_zero_kappa_returns_recalibrated_glm():
    ds, _ = sim_encoded()
    res = fit(ds, kappa=0)
    std, _ = data.standardize(ds)
    glm_pred = res.glm.beta0 + std.X @ res.glm.beta
    np.testing.assert_allclose(
        res.model.predict_mu(ds.X), glm_pred, atol=1e-10
    )
    assert res.train_trace == []
    assert all(cf.kappa == 0 for cf in res.model.coef)


def test_single_step_matches_hand_rolled_gradient_step():
    # one dimension, epsilon 1, one deep tree: the update must equal a
    # hand-assembled gradient step on the residuals
    rng = np.random.default_rng(3)
    n = 600
    X = rng.standard_normal((n, 1))
    y = np.sin(2 * X[:, 0]) * X[:, 0] + 0.1 * rng.standard_normal(n)
    ds = data.Dataset(y=y, w=np.ones(n), X=X, x_names=["x1"])
    cfg = boosting.BoostConfig(epsilon=1.0, kappa=1, tree=tree.TreeConfig(4, 5))
    res = boosting.fit_tvcm(ds, losses.GAUSSIAN, losses.IDENTITY, cfg)

    std, scaler = data.standardize(ds)
    glm = model.fit_glm(std, losses.GAUSSIAN, losses.IDENTITY)
    eta0 = glm.beta0 + std.X @ glm.beta
    g = losses.directional_gradient(
        losses.GAUSSIAN, losses.IDENTITY, std.X[:, 0], eta0, ds.y, ds.w
    )
    t = tree.fit_partition(g, std.X, tree.TreeConfig(4, 5))
    tree.adjust_leaves(
        t, std.X, std.X[:, 0], eta0, ds.y, ds.w, losses.GAUSSIAN, losses.IDENTITY
    )
    eta1 = eta0 + t.predict(std.X) * std.X[:, 0]
    shift = losses.intercept_shift(
        losses.GAUSSIAN, losses.IDENTITY, eta1 - glm.beta0, ds.y, ds.w
    )
    expected = eta1 - glm.beta0 + shift
    np.testing.assert_allclose(
        res.model.predict_mu(ds.X), expected, atol=1e-12
    )
    before = float(np.sum((ds.y - eta0) ** 2))
    after = float(np.sum((ds.y - expected) ** 2))
    assert after < before


@pytest.mark.parametrize("pair", ["gaussian", "poisson"])
def test_monotone_training_loss(pair):
    rng = np.random.default_rng(8)
    n = 3000
    if pair == "gaussian":
        ds, _ = sim_encoded(n=n, seed=8)
        loss, link = losses.GAUSSIAN, losses.IDENTITY
    else:
        X = rng.standard_normal((n, 3))
        w = rng.uniform(0.5, 2.0, size=n)
        counts = rng.poisson(w * np.exp(-1 + 0.4 * X[:, 0] - 0.2 * X[:, 1] ** 2))
        ds = data.Dataset(y=counts / w, w=w, X=X, x_names=["a", "b", "c"])
        loss, link = losses.POISSON, losses.LOG
    res = fit(ds, kappa=40, loss=loss, link=link, min_leaf=20)
    losses_seq = [r.train_loss for r in res.train_trace]
    for prev, cur in zip(losses_seq, losses_seq[1:]):
        assert cur <= prev + 1e-10


def test_kappa_zero_dimensions_stay_at_glm():
    ds, _ = sim_encoded()
    res = fit(ds, kappa=(0, 10, 10, 0, 0, 0, 0, 0))
    beta = res.model.beta_of(ds.X[:100])
    for j in (0, 3, 4, 5, 6, 7):
        assert np.all(beta[:, j] == res.glm.beta[j])
    assert res.model.kappa.tolist() == [0, 10, 10, 0, 0, 0, 0, 0]


def test_cached_eta_matches_recomputation():
    ds, _ = sim_encoded(n=5000, seed=13)
    cfg = boosting.BoostConfig(kappa=25, tree=tree.TreeConfig(2, 10))
    std, scaler = data.standardize(ds)
    glm = model.fit_glm(std, losses.GAUSSIAN, losses.IDENTITY)
    mdl, trace = boosting.train(
        std, glm, cfg, losses.GAUSSIAN, losses.IDENTITY, scaler
    )
    eta_cached_loss = trace[-1].train_loss
    eta_recomputed = mdl.scores(ds.X).eta
    # the final trace loss was computed before intercept recalibration;
    # undo the recorded recalibration shift for comparison
    recomputed_loss = losses.loss_total(
        losses.GAUSSIAN,
        losses.IDENTITY,
        eta_recomputed,
        ds.y,
        ds.w,
    )
    # recalibration can only decrease the loss
    assert recomputed_loss <= eta_cached_loss + 1e-10
    # and the model's eta equals the incremental eta to within drift
    rebuilt = glm.beta0 + std.X @ glm.beta
    for j, cf in enumerate(mdl.coef):
        acc = np.zeros(ds.n)
        for t in cf.trees:
            acc += t.predict(model.modifier_columns(std.X, mdl.space.modifier_sets[j]))
        rebuilt = rebuilt + cf.epsilon * acc * std.X[:, j]
    rebuilt += mdl.beta0 - glm.beta0
    np.testing.assert_allclose(eta_recomputed, rebuilt, atol=1e-10)


def test_training_determinism():
    ds, _ = sim_encoded(n=3000, seed=21)
    r1 = fit(ds, kappa=15)
    r2 = fit(ds, kappa=15)
    np.testing.assert_array_equal(
        r1.model.predict_mu(ds.X), r2.model.predict_mu(ds.X)
    )
    assert [t.train_loss for t in r1.train_trace] == [
        t.train_loss for t in r2.train_trace
    ]


def test_tune_rejects_degenerate_split():
    cfg = boosting.BoostConfig(kappa=5, tree=tree.TreeConfig(2, 10))
    with pytest.raises(ConfigError):
        boosting.StoppingConfig(validation_fraction=1.0)
    tiny, _ = data.simulate(data.SimulationSpec(n=1, seed=1))
    with pytest.raises(ConfigError):
        boosting.tune_kappa(
            tiny,
            cfg,
            boosting.StoppingConfig(validation_fraction=0.4, seed=0),
            losses.GAUSSIAN,
            losses.IDENTITY,
        )


def test_tune_trace_bookkeeping():
    ds, _ = sim_encoded(n=6000, seed=31)
    stopping = boosting.StoppingConfig(patience=5, seed=7)
    cfg = boosting.BoostConfig(kappa=25, tree=tree.TreeConfig(2, 10))
    std, _ = data.standardize(ds)
    result = boosting.tune_kappa(
        std, cfg, stopping, losses.GAUSSIAN, losses.IDENTITY
    )
    accepted = {name: 0 for name in ds.x_names}
    for row in result.trace:
        if row.accepted:
            accepted[row.dimension] += 1
        assert row.valid_loss is not None
    assert [accepted[n] for n in ds.x_names] == result.kappa.tolist()
    assert np.all(result.kappa <= 25)
    # validation loss of accepted candidates strictly decreases in time
    va = [r.valid_loss for r in result.trace if r.accepted]
    assert all(b < a for a, b in zip(va, va[1:]))


def test_tune_constant_dimension_gets_zero_kappa():
    # a dimension whose true coefficient is constant: across seeds the
    # majority of runs keep kappa at exactly 0, and it always stays far
    # below the structured dimension's count. (Acceptance of a single
    # candidate is nearly a coin flip at this shrinkage, so exact zero
    # is a per-seed event, not a certainty.)
    zeros = 0
    for seed in (1, 2, 3, 4, 5):
        rng = np.random.default_rng(seed)
        n = 20000
        X = rng.standard_normal((n, 2))
        y = 0.8 * X[:, 0] + 0.25 * X[:, 1] ** 3 + rng.standard_normal(n)
        ds = data.Dataset(y=y, w=np.ones(n), X=X, x_names=["a", "b"])
        stopping = boosting.StoppingConfig(patience=10, seed=seed)
        res = fit(ds, kappa=60, stopping=stopping)
        zeros += int(res.tune.kappa[0] == 0)
        assert res.tune.kappa[0] < res.tune.kappa[1]
        assert res.tune.kappa[1] > 10
    assert zeros >= 3


def test_tune_pure_noise_kappa_concentrates_at_zero():
    # with no structure anywhere, zero is the modal per-dimension count
    # and accepted trees only ever lower the validation loss
    kappas = []
    for seed in (0, 1, 2, 4, 5, 6, 7):
        rng = np.random.default_rng(seed)
        n = 8000
        X = rng.standard_normal((n, 3))
        y = rng.standard_normal(n)
        ds = data.Dataset(y=y, w=np.ones(n), X=X, x_names=["a", "b", "c"])
        stopping = boosting.StoppingConfig(patience=5, seed=seed)
        res = fit(ds, kappa=40, stopping=stopping)
        kappas.extend(res.tune.kappa.tolist())
        va = [r.valid_loss for r in res.tune.trace if r.accepted]
        assert all(b < a for a, b in zip(va, va[1:]))
    zeros = sum(k == 0 for k in kappas)
    assert zeros > len(kappas) / 2


def onehot_dataset(n=3000, seed=17, levels=("a", "b", "c")):
    rng = np.random.default_rng(seed)
    x_num = rng.standard_normal(n)
    cat = rng.choice(levels, size=n)
    shift = {lv: s for lv, s in zip(levels, (-0.4, 0.1, 0.5))}
    y = (
        0.5 * x_num
        + np.vectorize(shift.get)(cat) * x_num
        + np.array([shift[c] for c in cat])
        + 0.2 * rng.standard_normal(n)
    )
    ds = data.Dataset(y=y, w=np.ones(n), X=x_num[:, None], x_names=["x1"])
    return data.onehot_encode(ds, {"g": cat.tolist()})


def test_importance_unit_row_and_zero_row():
    ds, _ = sim_encoded(n=4000, seed=51)
    # dimension 2 may only split on modifier x3 (index 2); dimension 0
    # gets no trees
    sets = tuple(
        ("x3",) if j == 2 else tuple(ds.x_names) for j in range(8)
    )
    cfg = boosting.BoostConfig(
        kappa=(0, 5, 5, 0, 0, 0, 0, 0),
        tree=tree.TreeConfig(2, 10),
        modifier_sets=sets,
    )
    res = boosting.fit_tvcm(ds, losses.GAUSSIAN, losses.IDENTITY, cfg)
    rep = boosting.feature_importance(res.model)
    assert rep.split_gain[0].sum() == 0.0
    row2 = rep.split_gain[2]
    assert row2[2] == pytest.approx(1.0)
    assert row2.sum() == pytest.approx(1.0)
    # every row with trees sums to one
    for j in (1, 2):
        assert rep.split_gain[j].sum() == pytest.approx(1.0, abs=1e-12)


def test_importance_onehot_column_aggregation():
    ds = onehot_dataset()
    res = fit(ds, kappa=20)
    rep = boosting.feature_importance(res.model)
    assert rep.col_labels == ["x1", "g"]
    assert rep.row_labels == ["x1", "g=a", "g=b", "g=c"]
    for j in range(len(rep.row_labels)):
        total = rep.split_gain[j].sum()
        assert total == pytest.approx(1.0, abs=1e-12) or total == 0.0


def test_fi_star_normalization_and_exclusions():
    ds = onehot_dataset()
    res = fit(ds, kappa=10)
    stars = boosting.fi_star(res.model, ds)
    assert stars.included.tolist() == [True, False, False, False]
    assert np.nansum(stars.values) == pytest.approx(1.0)
    assert stars.values[0] == pytest.approx(1.0)
    assert np.all(np.isnan(stars.values[1:]))
    # raw means are reported for every dimension
    assert np.all(stars.raw >= 0)


def test_fi_star_constant_coefficient_raw_value():
    space_names = ["x1", "x2"]
    ds, _ = sim_encoded(n=1000, seed=61)
    res = fit(ds, kappa=0)
    stars = boosting.fi_star(res.model, ds)
    np.testing.assert_allclose(stars.raw, np.abs(res.glm.beta), atol=1e-14)
    top = int(np.argmax(np.abs(res.glm.beta)))
    assert int(np.nanargmax(stars.values)) == top


def test_trace_csv_export(tmp_path):
    ds, _ = sim_encoded(n=2000, seed=71)
    stopping = boosting.StoppingConfig(patience=3, seed=1)
    res = fit(ds, kappa=5, stopping=stopping)
    dest = tmp_path / "trace.csv"
    boosting.write_trace_csv(res.tune.trace, dest)
    lines = dest.read_text().strip().splitlines()
    assert lines[0] == "cycle,dimension,train_loss,valid_loss,accepted"
    assert len(lines) == len(res.tune.trace) + 1
    first = lines[1].split(",")
    assert first[1] in ds.x_names
    assert first[4] in ("0", "1")


def test_train_schedule_order():
    # one tree per open dimension per cycle, ascending dimensions;
    # dimension j closes after kappa_j cycles
    rng = np.random.default_rng(41)
    n = 500
    X = rng.standard_normal((n, 4))
    y = X @ np.array([0.5, -0.3, 0.2, 0.1]) + X[:, 0] * X[:, 1] + rng.standard_normal(n)
    ds = data.Dataset(y=y, w=np.ones(n), X=X, x_names=["a", "b", "c", "d"])
    res = fit(ds, kappa=(0, 3, 1, 2))
    order = [(r.cycle, r.dimension) for r in res.train_trace]
    assert order == [(1, "b"), (1, "c"), (1, "d"), (2, "b"), (2, "d"), (3, "b")]
    assert all(r.accepted and r.valid_loss is None for r in res.train_trace)


def test_tune_schedule_closes_on_patience():
    # pure noise with a short patience: dimensions close on rejections
    # long before the cap, and a closed dimension gets no further rows
    rng = np.random.default_rng(3)
    n = 4000
    X = rng.standard_normal((n, 3))
    y = 0.6 * X[:, 0] * (X[:, 1] > 0) + rng.standard_normal(n)
    ds = data.Dataset(y=y, w=np.ones(n), X=X, x_names=["a", "b", "c"])
    std, _ = data.standardize(ds)
    patience, cap = 3, 30
    cfg = boosting.BoostConfig(kappa=cap, tree=tree.TreeConfig(2, 10))
    result = boosting.tune_kappa(
        std,
        cfg,
        boosting.StoppingConfig(patience=patience, seed=2, acceptance_z=1.0),
        losses.GAUSSIAN,
        losses.IDENTITY,
    )
    closed_on_patience = 0
    for name in ds.x_names:
        rows = [r for r in result.trace if r.dimension == name]
        # one row per cycle while open, from cycle 1 on
        assert [r.cycle for r in rows] == list(range(1, len(rows) + 1))
        run = 0
        for k, r in enumerate(rows):
            run = 0 if r.accepted else run + 1
            if run == patience:
                # the dimension closed here: this is its last row
                assert k == len(rows) - 1
                closed_on_patience += 1
        if run < patience:
            assert len(rows) == cap
    assert closed_on_patience >= 1
    # within each cycle, rows come in ascending dimension order
    pos = {n: i for i, n in enumerate(ds.x_names)}
    for cycle in {r.cycle for r in result.trace}:
        dims = [pos[r.dimension] for r in result.trace if r.cycle == cycle]
        assert dims == sorted(dims) and len(set(dims)) == len(dims)


def test_tune_reuses_train_loss_after_rejection(monkeypatch):
    # a rejected candidate leaves eta unchanged, so its trace row reuses
    # the last training loss instead of evaluating the train half again
    ds, _ = sim_encoded(n=3000, seed=9)
    std, _ = data.standardize(ds)
    stopping = boosting.StoppingConfig(
        validation_fraction=0.4, patience=4, seed=1, acceptance_z=1.0
    )
    n_train = data.split(std, (0.6, 0.4), stopping.seed)[0].n
    assert n_train != std.n - n_train
    calls = []
    real = boosting.loss_total

    def counting(loss, link, eta, y, w):
        calls.append(len(y))
        return real(loss, link, eta, y, w)

    monkeypatch.setattr(boosting, "loss_total", counting)
    cfg = boosting.BoostConfig(kappa=15, tree=tree.TreeConfig(2, 10))
    result = boosting.tune_kappa(
        std, cfg, stopping, losses.GAUSSIAN, losses.IDENTITY
    )
    accepted = int(result.kappa.sum())
    rejected = len(result.trace) - accepted
    assert rejected > 1
    assert calls.count(n_train) <= 1 + accepted
    # the reused value is the one a fresh evaluation would give
    for prev, row in zip(result.trace, result.trace[1:]):
        if not row.accepted:
            assert row.train_loss == prev.train_loss


CLAIMS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "claims.py"


def claims_dataset(path, n, seed):
    """A freMTPL2-shaped claims input (bench/claims.py), one-hot encoded."""
    spec = importlib.util.spec_from_file_location("bench_claims", CLAIMS)
    claims = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(claims)
    claims.write_claims_csv(path, n, seed)
    return data.load_csv(path, data.Schema(**claims.SCHEMA_KW))


@pytest.mark.parametrize("case", ["poisson-claims", "gaussian-sim"])
def test_trace_losses_equal_fresh_loss_totals(case, tmp_path, monkeypatch):
    # the trace's losses come from per-eta records and sparse validation
    # updates; each must equal a fresh loss_total at that step's eta
    if case == "poisson-claims":
        ds = claims_dataset(tmp_path / "claims.csv", 4000, 11)
        loss, link, epsilon, min_leaf = losses.POISSON, losses.LOG, 0.1, 20
    else:
        ds, _ = sim_encoded(n=3000, seed=9)
        loss, link, epsilon, min_leaf = losses.GAUSSIAN, losses.IDENTITY, 0.05, 10
    std, _ = data.standardize(ds)
    stopping = boosting.StoppingConfig(patience=2, seed=3, acceptance_z=1.0)
    # the validation half and its starting eta, as tune_kappa makes them
    ds_tr, ds_va = data.split(std, (0.5, 0.5), stopping.seed)
    eta_va = model.glm_linear_predictor(model.fit_glm(ds_tr, loss, link), ds_va.X)
    train_losses, valid_losses = [], []

    real_train_loss = boosting._CycleState.train_loss

    def checked_train_loss(state):
        value = real_train_loss(state)
        fresh = losses.loss_total(state.loss, state.link, state.eta,
                                  state.ds.y, state.ds.w)
        assert np.float64(value).tobytes() == np.float64(fresh).tobytes()
        train_losses.append(value)
        return value

    real_run = boosting._run_cycles

    def checked_run(state, kappa_max, accept, patience=1):
        def checked_accept(j, candidate):
            nonlocal eta_va
            accepted, valid = accept(j, candidate)
            eta_new = eta_va + state.eps[j] * candidate.predict(ds_va.X) * ds_va.X[:, j]
            fresh = losses.loss_total(loss, link, eta_new, ds_va.y, ds_va.w)
            assert np.float64(valid).tobytes() == np.float64(fresh).tobytes()
            if accepted:
                eta_va = eta_new
            valid_losses.append(valid)
            return accepted, valid

        return real_run(state, kappa_max, checked_accept, patience)

    monkeypatch.setattr(boosting._CycleState, "train_loss", checked_train_loss)
    monkeypatch.setattr(boosting, "_run_cycles", checked_run)
    cfg = boosting.BoostConfig(
        epsilon=epsilon, kappa=4, tree=tree.TreeConfig(2, min_leaf)
    )
    result = boosting.tune_kappa(std, cfg, stopping, loss, link)
    accepted = [row.accepted for row in result.trace]
    assert any(accepted) and not all(accepted)
    assert train_losses == [row.train_loss for row in result.trace]
    assert valid_losses == [row.valid_loss for row in result.trace]


def test_poisson_fit_calls_no_checked_loss_evaluation(monkeypatch):
    # the entry points check y and w up front (adjust_leaves once per
    # tree); tuning (noise margin included), training and the leaf-step
    # guard then evaluate the loss without re-running those checks
    rng = np.random.default_rng(14)
    n = 1500
    X = rng.standard_normal((n, 3))
    w = rng.uniform(0.5, 2.0, size=n)
    counts = rng.poisson(w * np.exp(-1 + 0.5 * X[:, 0] - 0.3 * X[:, 1] * X[:, 2]))
    ds = data.Dataset(y=counts / w, w=w, X=X, x_names=["a", "b", "c"])
    calls = []
    for name in ("value", "deriv_mu"):
        real = getattr(losses.POISSON, name)

        def counting(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(losses.POISSON, name, counting)
    stopping = boosting.StoppingConfig(patience=3, seed=2, acceptance_z=1.0)
    res = fit(ds, kappa=10, loss=losses.POISSON, link=losses.LOG,
              min_leaf=20, stopping=stopping, epsilon=0.1)
    assert res.model.kappa.sum() > 0
    assert calls == []
    losses.POISSON.value(1.0, 1.0, 1.0)
    assert calls == ["value"]  # the counter is live


def test_fit_checks_response_and_weight_once_not_per_tree(monkeypatch):
    # fit_tvcm checks y and w at its entry; its trees take the leaf step
    # without the public adjust_leaves' per-call check
    checks = []
    real = tree.require_fit_response

    def counting(*args):
        checks.append(args[-1])
        return real(*args)

    monkeypatch.setattr(tree, "require_fit_response", counting)
    ds, _ = sim_encoded(n=1000, seed=3)
    res = fit(ds, kappa=4, stopping=boosting.StoppingConfig(patience=4, seed=1))
    assert res.model.kappa.sum() > 0
    assert checks == []
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((60, 1))
    t = tree.fit_partition(rng.standard_normal(60), Z, tree.TreeConfig(1, 10))
    tree.adjust_leaves(t, Z, np.ones(60), np.zeros(60), np.ones(60), 1.0,
                       losses.GAUSSIAN, losses.IDENTITY)
    assert checks == ["leaf adjustment"]  # the counter is live


def poisson_dataset_with_negative_response():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((200, 2))
    y = rng.poisson(np.exp(0.3 * X[:, 0])).astype(float)
    y[[6, 11]] = -1.0
    return data.Dataset(y=y, w=np.ones(200), X=X, x_names=["a", "b"])


@pytest.mark.parametrize("entry", ["fit_glm", "train", "tune_kappa"])
def test_every_fit_entry_point_rejects_a_negative_poisson_response(entry):
    # the fit loop evaluates the loss unchecked, so each public entry
    # point checks its data itself, reporting the row of its own input
    ds = poisson_dataset_with_negative_response()
    cfg = boosting.BoostConfig(epsilon=0.1, kappa=2, tree=tree.TreeConfig(2, 10))
    P, L = losses.POISSON, losses.LOG
    calls = {
        "fit_glm": lambda: model.fit_glm(ds, P, L),
        "train": lambda: boosting.train(
            ds, model.GlmCoefficients(0.0, np.zeros(2)), cfg, P, L,
            data.standardize(ds)[1],
        ),
        "tune_kappa": lambda: boosting.tune_kappa(
            ds, cfg, boosting.StoppingConfig(seed=1), P, L
        ),
    }
    with pytest.raises(
        DataError, match=r"training data: negative response at row 6, column 'response'"
    ):
        calls[entry]()


@pytest.mark.parametrize(
    "field, bad, message",
    [("y", -1.0, "negative response at row 3, column 'response'"),
     ("w", 0.0, "non-positive weight at row 3, column 'weight'")],
)
def test_adjust_leaves_rejects_bad_response_or_weight(field, bad, message):
    rng = np.random.default_rng(8)
    Z = rng.standard_normal((60, 1))
    arrays = {"y": rng.poisson(1.0, 60).astype(float), "w": np.ones(60)}
    arrays[field][[3, 5]] = bad
    t = tree.fit_partition(rng.standard_normal(60), Z, tree.TreeConfig(1, 10))
    with pytest.raises(DataError, match=f"leaf adjustment: {message}"):
        tree.adjust_leaves(t, Z, np.ones(60), np.zeros(60), arrays["y"],
                           arrays["w"], losses.POISSON, losses.LOG)
