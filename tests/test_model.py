import json
import math
import pathlib
import re

import numpy as np
import pytest

from helpers import tree_field_bytes
from tvcm import boosting, data, losses, model, tree
from tvcm.errors import DataError, EtaOverflowError, ModelFormatError


def gaussian_fit(ds_enc, kappa=0, **cfg_kw):
    cfg = boosting.BoostConfig(kappa=kappa, tree=tree.TreeConfig(2, 10), **cfg_kw)
    return boosting.fit_tvcm(ds_enc, losses.GAUSSIAN, losses.IDENTITY, cfg)


def identity_space(p, names=None):
    names = names or [f"x{j+1}" for j in range(p)]
    scaler = data.Standardizer(x_mean=np.zeros(p), x_sd=np.ones(p))
    return model.FeatureSpace(
        feature_names=list(names),
        modifier_sets=[np.arange(p) for _ in range(p)],
        onehot_groups={},
        scaler=scaler,
    )


def single_leaf_tree(value, n_features=1):
    t = tree.RegressionTree(n_features)
    nid = t._add_node(1)
    t.value[nid] = value
    return t


def test_fit_glm_exact_linear_recovery():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((1000, 4))
    y = 0.5 * X[:, 0]
    ds = data.Dataset(y=y, w=np.ones(1000), X=X, x_names=list("abcd"))
    glm = model.fit_glm(ds, losses.GAUSSIAN, losses.IDENTITY)
    assert abs(glm.beta0) < 1e-8
    assert abs(glm.beta[0] - 0.5) < 1e-8
    assert np.all(np.abs(glm.beta[1:]) < 1e-8)


def test_fit_glm_intercept_only_poisson_closed_form():
    # counts over exposure enter as y = count / w; the optimum is then
    # log(total count / total exposure)
    rng = np.random.default_rng(1)
    w = rng.uniform(0.5, 2.0, size=500)
    counts = rng.poisson(0.7 * w).astype(float)
    ds = data.Dataset(
        y=counts / w, w=w, X=np.empty((500, 0)), x_names=[]
    )
    glm = model.fit_glm(ds, losses.POISSON, losses.LOG)
    assert glm.beta0 == pytest.approx(
        math.log(counts.sum() / w.sum()), abs=1e-10
    )
    assert glm.beta.size == 0


def test_fit_glm_simulated_profile():
    ds, _ = data.simulate(data.SimulationSpec(n=50000, seed=12))
    std, _ = data.standardize(ds)
    glm = model.fit_glm(std, losses.GAUSSIAN, losses.IDENTITY)
    assert glm.beta[0] == pytest.approx(0.5, abs=0.05)
    assert glm.beta[5] == pytest.approx(0.125, abs=0.05)
    for j in (1, 3, 4, 6, 7):
        assert abs(glm.beta[j]) <= 0.05


def test_beta_of_zero_trees_is_glm():
    ds, _ = data.simulate(data.SimulationSpec(n=2000, seed=5))
    res = gaussian_fit(ds, kappa=0)
    X = ds.X[:50]
    beta = res.model.beta_of(X)
    np.testing.assert_allclose(beta, np.tile(res.glm.beta, (50, 1)), atol=1e-14)
    np.testing.assert_array_equal(res.model.scores(X).delta, np.zeros((50, 8)))


def test_beta_of_hand_composed_tree():
    space = identity_space(1)
    cf = model.CoefficientFunction(
        beta_glm=0.3, epsilon=0.01, trees=[single_leaf_tree(2.0)]
    )
    mdl = model.TvcmModel(0.0, [cf], losses.GAUSSIAN, losses.IDENTITY, space)
    assert mdl.beta_of(np.array([[1.2]]))[0, 0] == pytest.approx(0.3 + 0.02)


def test_beta_minus_glm_equals_delta():
    ds, _ = data.simulate(data.SimulationSpec(n=3000, seed=6))
    res = gaussian_fit(ds, kappa=15)
    X = ds.X[:200]
    lhs = res.model.beta_of(X) - res.model.beta_glm[None, :]
    np.testing.assert_allclose(lhs, res.model.scores(X).delta, atol=1e-15)


def test_log_link_multiplicative_decomposition():
    rng = np.random.default_rng(7)
    n = 4000
    X = rng.standard_normal((n, 3))
    eta = -0.5 + 0.3 * X[:, 0] - 0.2 * X[:, 1] + 0.1 * X[:, 1] * X[:, 2]
    w = rng.uniform(0.5, 2.0, size=n)
    y = rng.poisson(w * np.exp(eta)) / w
    ds = data.Dataset(y=y, w=w, X=X, x_names=["a", "b", "c"])
    cfg = boosting.BoostConfig(kappa=20, tree=tree.TreeConfig(2, 20))
    res = boosting.fit_tvcm(ds, losses.POISSON, losses.LOG, cfg)
    mdl = res.model
    rows = rng.choice(n, size=1000, replace=False)
    Xq = ds.X[rows]
    mu = mdl.predict_mu(Xq)
    X_std = mdl.space.scaler.apply_x(Xq)
    glm_mu = np.exp(mdl.beta0 + X_std @ mdl.beta_glm)
    corr = np.exp(np.sum(mdl.scores(Xq).delta * X_std, axis=1))
    np.testing.assert_allclose(mu, glm_mu * corr, rtol=1e-10)


def test_predict_all_zero_x_gives_inverse_link_of_intercept():
    space = identity_space(2)
    cfs = [
        model.CoefficientFunction(beta_glm=0.5, epsilon=0.01, trees=[])
        for _ in range(2)
    ]
    mdl = model.TvcmModel(0.7, cfs, losses.GAUSSIAN, losses.IDENTITY, space)
    assert mdl.predict_mu(np.zeros((1, 2)))[0] == pytest.approx(0.7)
    mdl_log = model.TvcmModel(0.7, cfs, losses.POISSON, losses.LOG, space)
    assert mdl_log.predict_mu(np.zeros((1, 2)))[0] == pytest.approx(math.exp(0.7))


def test_glm_only_model_matches_direct_formula():
    ds, _ = data.simulate(data.SimulationSpec(n=2000, seed=8))
    res = gaussian_fit(ds, kappa=0)
    std, scaler = data.standardize(ds)
    direct = res.glm.beta0 + std.X @ res.glm.beta
    np.testing.assert_allclose(
        res.model.predict_mu(ds.X), direct, atol=1e-10
    )


def test_zero_tree_reduction_invariant():
    # recalibrated zero-tree model reproduces the GLM predictions
    ds, _ = data.simulate(data.SimulationSpec(n=5000, seed=9))
    res = gaussian_fit(ds, kappa=0)
    std, _ = data.standardize(ds)
    glm_pred = res.glm.beta0 + std.X @ res.glm.beta
    np.testing.assert_allclose(
        res.model.predict_mu(ds.X), glm_pred, atol=1e-10
    )


def test_recalibrate_fixed_point_and_shift_invariance():
    ds, _ = data.simulate(data.SimulationSpec(n=3000, seed=10))
    mdl = gaussian_fit(ds, kappa=10).model
    rest = mdl.scores(ds.X).eta - mdl.beta0
    # a trained model's intercept is already the stationary one
    beta0 = losses.intercept_shift(mdl.loss, mdl.link, rest, ds.y, ds.w)
    assert beta0 == pytest.approx(mdl.beta0, abs=1e-10)
    # shifting the rest of the predictor by a constant shifts the
    # recalibrated intercept back by the same constant
    back = losses.intercept_shift(mdl.loss, mdl.link, rest + 3.7, ds.y, ds.w)
    assert back == pytest.approx(beta0 - 3.7, abs=1e-10)


def test_poisson_balance_after_recalibration():
    rng = np.random.default_rng(11)
    n = 6000
    X = rng.standard_normal((n, 2))
    w = rng.uniform(0.2, 2.0, size=n)
    counts = rng.poisson(w * np.exp(-1.0 + 0.4 * X[:, 0])).astype(float)
    ds = data.Dataset(y=counts / w, w=w, X=X, x_names=["a", "b"])
    cfg = boosting.BoostConfig(kappa=15, tree=tree.TreeConfig(2, 20))
    res = boosting.fit_tvcm(ds, losses.POISSON, losses.LOG, cfg)
    mu = res.model.predict_mu(ds.X)
    assert abs(float(np.sum(w * mu)) - counts.sum()) <= 1e-8 * counts.sum()


def test_standardization_invisible_under_affine_rescaling():
    ds, _ = data.simulate(data.SimulationSpec(n=4000, seed=13))
    res_a = gaussian_fit(ds, kappa=8)
    X2 = ds.X.copy()
    X2[:, 2] = 35.0 * X2[:, 2] - 4.0  # rescale one raw column
    ds2 = data.Dataset(y=ds.y, w=ds.w, X=X2, x_names=list(ds.x_names))
    res_b = gaussian_fit(ds2, kappa=8)
    pred_a = res_a.model.predict_mu(ds.X)
    pred_b = res_b.model.predict_mu(ds2.X)
    np.testing.assert_allclose(pred_a, pred_b, rtol=1e-6, atol=1e-6)


def test_serialize_round_trip_bit_exact(tmp_path):
    ds, _ = data.simulate(data.SimulationSpec(n=3000, seed=14))
    res = gaussian_fit(ds, kappa=12)
    path = tmp_path / "model.json"
    model.save_model(res.model, path)
    clone = model.load_model(path)
    a = res.model.predict_mu(ds.X)
    b = clone.predict_mu(ds.X)
    assert np.array_equal(a, b)
    ba = res.model.beta_of(ds.X[:100])
    bb = clone.beta_of(ds.X[:100])
    assert np.array_equal(ba, bb)
    # double round trip is byte-stable
    path2 = tmp_path / "model2.json"
    model.save_model(clone, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_serialize_glm_only_round_trip(tmp_path):
    ds, _ = data.simulate(data.SimulationSpec(n=1000, seed=15))
    res = gaussian_fit(ds, kappa=0)
    path = tmp_path / "glm.json"
    model.save_model(res.model, path)
    clone = model.load_model(path)
    assert np.array_equal(
        res.model.predict_mu(ds.X), clone.predict_mu(ds.X)
    )


def test_load_rejects_unknown_version(tmp_path):
    ds, _ = data.simulate(data.SimulationSpec(n=500, seed=16))
    res = gaussian_fit(ds, kappa=0)
    payload = model.model_to_dict(res.model)
    payload["format_version"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match="format_version"):
        model.load_model(path)


def test_load_rejects_malformed_document(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{\"format_version\": 1, \"loss\": \"gaussian_deviance\"}")
    with pytest.raises(ModelFormatError):
        model.load_model(path)
    path.write_text("not json at all")
    with pytest.raises(ModelFormatError):
        model.load_model(path)


FIXTURE_V1 = pathlib.Path(__file__).parent / "data" / "gaussian_v1_model.json"


def fixture_v1_fit():
    """The fit that wrote FIXTURE_V1: format v1, eight simulated
    columns, two trees per dimension, dimension x3 split on x3 and x5."""
    ds, _ = data.simulate(data.SimulationSpec(n=400, seed=17))
    sets = tuple(
        ("x3", "x5") if j == 2 else tuple(ds.x_names) for j in range(ds.p)
    )
    cfg = boosting.BoostConfig(
        epsilon=0.1, kappa=2, tree=tree.TreeConfig(2, 10), modifier_sets=sets
    )
    return ds, boosting.fit_tvcm(ds, losses.GAUSSIAN, losses.IDENTITY, cfg).model


def test_load_rejects_a_tree_with_a_gain_per_node_missing():
    payload = json.loads(FIXTURE_V1.read_text())
    payload["dimensions"][0]["trees"][0]["gains"].pop()
    with pytest.raises(ModelFormatError, match="malformed model document"):
        model.model_from_dict(payload)


def test_v1_fixture_round_trip_and_retrain_are_byte_identical(tmp_path):
    saved = tmp_path / "saved.json"
    clone = model.load_model(FIXTURE_V1)
    model.save_model(clone, saved)
    assert saved.read_bytes() == FIXTURE_V1.read_bytes()

    ds, retrained = fixture_v1_fit()
    model.save_model(retrained, saved)
    assert saved.read_bytes() == FIXTURE_V1.read_bytes()
    assert np.array_equal(clone.predict_mu(ds.X), retrained.predict_mu(ds.X))
    assert np.array_equal(clone.beta_of(ds.X), retrained.beta_of(ds.X))


FIXTURE_POISSON_V1 = pathlib.Path(__file__).parent / "data" / "poisson_v1_model.json"


def fixture_poisson_v1_fit():
    """The fit that wrote FIXTURE_POISSON_V1: 600 claims-like rows with
    one continuous column (Density, presorted), small integers
    (VehPower) and 0/1 indicators (Diesel, three Region levels), all
    binned; three trees per dimension. Its leaf steps take all three
    Poisson paths: no response, constant x and Newton."""
    rng = np.random.default_rng(23)
    n = 600
    density = np.maximum(np.round(np.exp(rng.normal(5.0, 1.5, n))), 1.0)
    power = rng.integers(4, 10, n).astype(float)
    diesel = rng.integers(0, 2, n).astype(float)
    region = rng.integers(0, 3, n)
    w = np.maximum(np.round(rng.uniform(0.05, 1.0, n), 2), 0.05)
    eta = -3.0 + 0.25 * np.log(density) - 0.1 * (power - 6) + 0.4 * diesel
    y = rng.poisson(w * np.exp(eta)).astype(float)
    ds = data.onehot_encode(
        data.Dataset(
            y=y,
            w=w,
            X=np.column_stack([density, power, diesel]),
            x_names=["Density", "VehPower", "Diesel"],
        ),
        {"Region": [f"R{r + 1}" for r in region]},
    )
    cfg = boosting.BoostConfig(epsilon=0.1, kappa=3, tree=tree.TreeConfig(2, 15))
    return ds, boosting.fit_tvcm(ds, losses.POISSON, losses.LOG, cfg).model


def test_poisson_v1_fixture_round_trip_and_retrain_are_byte_identical(tmp_path):
    saved = tmp_path / "saved.json"
    clone = model.load_model(FIXTURE_POISSON_V1)
    model.save_model(clone, saved)
    assert saved.read_bytes() == FIXTURE_POISSON_V1.read_bytes()

    ds, retrained = fixture_poisson_v1_fit()
    model.save_model(retrained, saved)
    assert saved.read_bytes() == FIXTURE_POISSON_V1.read_bytes()
    assert np.array_equal(clone.predict_mu(ds.X), retrained.predict_mu(ds.X))
    assert np.array_equal(clone.beta_of(ds.X), retrained.beta_of(ds.X))


@pytest.mark.parametrize(
    "fixture", [FIXTURE_V1, FIXTURE_POISSON_V1], ids=["gaussian", "poisson"]
)
def test_v1_fixture_trees_round_trip_field_by_field(fixture):
    trees = [t for cf in model.load_model(fixture).coef for t in cf.trees]
    assert trees
    for t in trees:
        back = tree.RegressionTree.from_dict(t.to_dict())
        assert tree_field_bytes(back) == tree_field_bytes(t)


# each prediction output, keyed by the name of the entry point that
# once returned it alone
PREDICTION_OUTPUTS = {
    "predict_mu": lambda mdl, X: mdl.predict_mu(X),
    "linear_predictor": lambda mdl, X: mdl.scores(X).eta,
    "beta_of": lambda mdl, X: mdl.beta_of(X),
    "delta_of": lambda mdl, X: mdl.scores(X).delta,
}


@pytest.mark.parametrize("entry", list(PREDICTION_OUTPUTS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_prediction_rejects_non_finite_feature_with_coordinates(entry, bad):
    mdl = model.load_model(FIXTURE_V1)
    X = np.zeros((8, 8))
    X[5, 2] = bad
    X[6, 0] = bad
    with pytest.raises(DataError, match=r"non-finite value at row 5, column 'x3'"):
        PREDICTION_OUTPUTS[entry](mdl, X)
    with pytest.raises(DataError, match=r"row 0, column 'x3'"):
        PREDICTION_OUTPUTS[entry](mdl, X[5])


@pytest.mark.parametrize(
    "modifier_names",
    [["x2", "x1", "x3", "x4", "x5", "x6", "x7", "x8"], ["x1", "x2"]],
    ids=["reordered", "subset"],
)
def test_load_rejects_modifier_names_other_than_features(modifier_names):
    payload = json.loads(FIXTURE_V1.read_text())
    payload["modifier_names"] = modifier_names
    with pytest.raises(ModelFormatError, match="modifier_names"):
        model.model_from_dict(payload)


R = ["Region=R1", "Region=R2", "Region=R3"]


@pytest.mark.parametrize(
    "groups, message",
    [
        ({"Region": [*R[:2], "Region=R9"]}, "'Region=R9' of group 'Region' is not"),
        ({"Region": [*R, "Region=R1"]}, "'Region=R1' of group 'Region' is listed twice"),
        ({"Region": R, "Reg": ["Region=R3"]}, "'Region=R3' of group 'Reg' is listed twice"),
        ({"Region": R, "Diesel": []}, "group 'Diesel' is also a feature column"),
        ({"Region": R[:2], "Area": R[2:]}, "'Region=R3' of group 'Area' is not a feature column named Area=<level>"),
        ([R], "malformed model document"),
    ],
    ids=["not_a_feature", "twice_in_a_group", "in_two_groups", "group_is_a_feature",
         "named_after_another_group", "not_a_mapping"],
)
def test_load_rejects_onehot_groups_that_disagree_with_feature_names(groups, message):
    payload = json.loads(FIXTURE_POISSON_V1.read_text())
    payload["onehot_groups"] = groups
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        model.model_from_dict(payload)


def test_load_rejects_a_non_canonical_loss_link_pair():
    payload = json.loads(FIXTURE_V1.read_text())
    payload["link"] = "log"
    with pytest.raises(ModelFormatError, match=r"unsupported loss/link pairing"):
        model.model_from_dict(payload)


def test_predict_rejects_a_separate_modifier_matrix():
    mdl = model.load_model(FIXTURE_V1)
    X = np.zeros((3, 8))
    assert np.array_equal(mdl.predict_mu(X, X), mdl.predict_mu(X))
    with pytest.raises(DataError, match="Z must"):
        mdl.predict_mu(X, X.copy())
    with pytest.raises(DataError, match="Z must"):
        mdl.predict_mu(X, np.ones((3, 8)))


def test_predict_overflow_names_row():
    space = identity_space(1)
    cf = model.CoefficientFunction(beta_glm=1.0, epsilon=1.0, trees=[])
    mdl = model.TvcmModel(0.0, [cf], losses.POISSON, losses.LOG, space)
    X = np.array([[1.0], [900.0]])
    with pytest.raises(EtaOverflowError, match="row 1"):
        mdl.predict_mu(X)


def test_predict_underflow_names_row():
    # exp(-800) is 0.0 in float64: a zero mean, not a tiny one
    space = identity_space(1)
    cf = model.CoefficientFunction(beta_glm=1.0, epsilon=1.0, trees=[])
    mdl = model.TvcmModel(0.0, [cf], losses.POISSON, losses.LOG, space)
    X = np.array([[1.0], [-800.0], [2.0]])
    with pytest.raises(EtaOverflowError, match=r"-800 at row 1 underflows .*\(predict\)"):
        mdl.predict_mu(X)


def test_arity_mismatch_is_contract_violation():
    ds, _ = data.simulate(data.SimulationSpec(n=500, seed=17))
    res = gaussian_fit(ds, kappa=0)
    with pytest.raises(DataError):
        res.model.beta_of(np.zeros((3, 5)))
    with pytest.raises(DataError):
        res.model.predict_mu(np.zeros((3, 2)))
