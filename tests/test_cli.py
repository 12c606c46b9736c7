import csv
import hashlib
import json
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tvcm import boosting, data, model
from tvcm.cli import main, write_csv
from tvcm.data import _fmt


def run(args):
    return main([str(a) for a in args])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def dir_digests(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """simulate -> tune -> train -> predict -> evaluate -> importance on a
    small simulated dataset."""
    root = tmp_path_factory.mktemp("pipeline")
    assert run(["simulate", "--n", 3000, "--seed", 3,
                "--split-frac", 0.5, "--split-seed", 4, "--out", root]) == 0
    train_csv = root / "sim_train.csv"
    test_csv = root / "sim_test.csv"
    assert run(["tune", "--data", train_csv, "--max-kappa", 15,
                "--patience", 3, "--seed", 5, "--out", root]) == 0
    assert run(["train", "--data", train_csv, "--kappa", root / "kappa.csv",
                "--emit-beta", "--out", root]) == 0
    assert run(["predict", "--model", root / "model.json", "--data", test_csv,
                "--emit-beta", "--emit-delta", "--out", root]) == 0
    assert run(["evaluate", "--data", test_csv,
                "--pred", f"TVCM={root/'predictions.csv'}",
                "--fit-baselines", train_csv,
                "--rolling", 200, "--out", root]) == 0
    assert run(["importance", "--model", root / "model.json",
                "--data", train_csv, "--out", root]) == 0
    return root


def test_pipeline_outputs_exist(pipeline):
    for name in (
        "sim_data.csv",
        "sim_data_truth.csv",
        "sim_train.csv",
        "sim_test.csv",
        "kappa.csv",
        "tune_trace.csv",
        "model.json",
        "train_trace.csv",
        "train_beta.csv",
        "predictions.csv",
        "evaluation.csv",
        "rolling_mean.csv",
        "importance_split_gain.csv",
        "importance_fi_star.csv",
    ):
        assert (pipeline / name).exists(), name


# sha256 of the trace files of the pipeline run, as the csv module
# wrote them
TRACE_SHA256 = {
    "tune_trace.csv": "10152c5599d2105b7ca7bb4bb31a6d46f30b5a514d710b033b80f6c5f96c7efe",
    "train_trace.csv": "fcb98387f26c5c23192307a3dbcb205953712d1d1fe99925a907d0e3352e0e59",
}


def test_trace_files_keep_their_bytes(pipeline):
    digests = dir_digests(pipeline)
    assert {name: digests[name] for name in TRACE_SHA256} == TRACE_SHA256


def test_simulate_shapes_and_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(["simulate", "--n", 500, "--seed", 9, "--out", out_a]) == 0
    assert run(["simulate", "--n", 500, "--seed", 9, "--out", out_b]) == 0
    assert dir_digests(out_a) == dir_digests(out_b)
    rows = read_rows(out_a / "sim_data.csv")
    assert len(rows) == 500
    assert list(rows[0]) == ["y", "w"] + [f"x{j}" for j in range(1, 9)]
    truth = read_rows(out_a / "sim_data_truth.csv")
    assert list(truth[0]) == ["row_id", "mu"] + [f"beta_{j}" for j in range(1, 9)]
    assert float(truth[0]["beta_1"]) == 0.5


def test_kappa_table_row_count(pipeline):
    rows = read_rows(pipeline / "kappa.csv")
    assert len(rows) == 8
    assert {r["dimension"] for r in rows} == {f"x{j}" for j in range(1, 9)}


def test_tune_trace_row_count(pipeline):
    rows = read_rows(pipeline / "tune_trace.csv")
    # one row per candidate, grouped per dimension; acceptances per
    # dimension must equal the kappa table
    kappa = {r["dimension"]: int(r["kappa"]) for r in read_rows(pipeline / "kappa.csv")}
    accepted = {}
    for r in rows:
        accepted[r["dimension"]] = accepted.get(r["dimension"], 0) + int(r["accepted"])
    for dim, k in kappa.items():
        assert accepted.get(dim, 0) == k


def test_predict_columns(pipeline):
    rows = read_rows(pipeline / "predictions.csv")
    cols = list(rows[0])
    assert cols[0] == "row_id" and cols[1] == "mu_hat"
    for j in range(1, 9):
        assert f"beta_hat_x{j}" in cols
        assert f"delta_x{j}" in cols
    assert len(rows) == 1500


def test_model_reload_gives_identical_predictions(pipeline, tmp_path):
    out2 = tmp_path / "re"
    assert run(["predict", "--model", pipeline / "model.json",
                "--data", pipeline / "sim_test.csv", "--out", out2]) == 0
    a = [r["mu_hat"] for r in read_rows(pipeline / "predictions.csv")]
    b = [r["mu_hat"] for r in read_rows(out2 / "predictions.csv")]
    assert a == b


def test_evaluate_report(pipeline):
    rows = {r["model"]: float(r["avg_loss"]) for r in read_rows(pipeline / "evaluation.csv")}
    assert set(rows) == {"TVCM", "Intercept", "GLM"}
    # baselines must not beat the boosted model on this structured data
    assert rows["TVCM"] < rows["GLM"] < rows["Intercept"]


def test_evaluate_perfect_predictions_zero_loss(tmp_path):
    out = tmp_path
    assert run(["simulate", "--n", 200, "--seed", 2, "--out", out]) == 0
    rows = read_rows(out / "sim_data.csv")
    with open(out / "perfect.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row_id", "mu_hat"])
        for i, r in enumerate(rows):
            writer.writerow([i, r["y"]])
    assert run(["evaluate", "--data", out / "sim_data.csv",
                "--pred", f"perfect={out/'perfect.csv'}", "--out", out]) == 0
    report = read_rows(out / "evaluation.csv")
    assert float(report[0]["avg_loss"]) == 0.0


def test_importance_outputs(pipeline):
    gain = read_rows(pipeline / "importance_split_gain.csv")
    assert len(gain) == 8
    for row in gain:
        vals = [float(row[f"x{j}"]) for j in range(1, 9)]
        total = sum(vals)
        if int(row["kappa"]) == 0:
            assert total == 0.0 and row["note"] == "no_trees"
        else:
            assert total == pytest.approx(1.0, abs=1e-9)
    stars = read_rows(pipeline / "importance_fi_star.csv")
    included = [r for r in stars if r["fi_star"] != ""]
    assert sum(float(r["fi_star"]) for r in included) == pytest.approx(1.0, abs=1e-9)


def test_rolling_mean_output(pipeline):
    rows = read_rows(pipeline / "rolling_mean.csv")
    assert list(rows[0]) == ["index", "y", "TVCM", "Intercept", "GLM"]
    assert len(rows) == 1500 - 200 + 1


def test_missing_file_is_clean_error(tmp_path, capsys):
    code = run(["train", "--data", tmp_path / "nope.csv", "--kappa", "1",
                "--out", tmp_path])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("tvcm: error:")


@pytest.mark.parametrize("command", ["predict", "importance", "evaluate"])
def test_unseen_level_predict_error(tmp_path, capsys, command):
    # train a tiny poisson model with a categorical, then score a file
    # carrying a novel level through every scoring entry point
    data_csv = tmp_path / "claims.csv"
    rng = np.random.default_rng(0)
    with open(data_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "expo", "age", "region"])
        for i in range(400):
            age = rng.uniform(20, 80)
            expo = rng.uniform(0.2, 1.0)
            region = rng.choice(["north", "south"])
            lam = expo * 0.1 * (1 + (age > 50))
            writer.writerow([rng.poisson(lam), expo, age, region])
    cfg = tmp_path / "claims.cfg"
    cfg.write_text(
        "loss = poisson_deviance\nlink = log\nresponse = n\nweight = expo\n"
        "response_kind = count\nresponse_per_weight = true\n"
        "numeric = age\ncategorical = region\nmin_samples_leaf = 20\n"
    )
    out = tmp_path / "out"
    assert run(["train", "--data", data_csv, "--config", cfg, "--kappa", "3",
                "--out", out]) == 0
    bad_csv = tmp_path / "bad.csv"
    with open(bad_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "expo", "age", "region"])
        writer.writerow([0, 0.5, 44.0, "north"])
        writer.writerow([0, 0.5, 44.0, "east"])
    source = (["--fit-baselines", data_csv] if command == "evaluate"
              else ["--model", out / "model.json"])
    capsys.readouterr()
    code = run([command, *source, "--data", bad_csv, "--config", cfg,
                "--out", out])
    assert code == 2
    assert capsys.readouterr().err == (
        f"tvcm: error: {bad_csv}: unseen level 'east' at row 1, column 'region'\n"
    )


def test_poisson_predictions_emit_expected_response(tmp_path):
    data_csv = tmp_path / "claims.csv"
    rng = np.random.default_rng(1)
    with open(data_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "expo", "age"])
        for _ in range(300):
            expo = rng.uniform(0.5, 1.5)
            writer.writerow([rng.poisson(expo * 0.2), expo, rng.uniform(20, 80)])
    cfg = tmp_path / "p.cfg"
    cfg.write_text(
        "loss = poisson_deviance\nlink = log\nresponse = n\nweight = expo\n"
        "response_kind = count\nresponse_per_weight = true\nnumeric = age\n"
        "min_samples_leaf = 20\ncap:expo = 1\n"
    )
    out = tmp_path / "out"
    assert run(["train", "--data", data_csv, "--config", cfg, "--kappa", "0",
                "--out", out]) == 0
    assert run(["predict", "--model", out / "model.json", "--data", data_csv,
                "--config", cfg, "--out", out]) == 0
    rows = read_rows(out / "predictions.csv")
    assert "expected_response" in rows[0]
    mu = np.array([float(r["mu_hat"]) for r in rows])
    exp_resp = np.array([float(r["expected_response"]) for r in rows])
    expo = []
    with open(data_csv) as fh:
        for r in csv.DictReader(fh):
            expo.append(float(r["expo"]))
    # expected response uses the exposure as training saw it: capped at 1
    assert max(expo) > 1.0
    np.testing.assert_allclose(exp_resp, mu * np.minimum(expo, 1.0), rtol=1e-12)


def test_poisson_evaluate_emits_x100_column(tmp_path):
    data_csv = tmp_path / "claims.csv"
    rng = np.random.default_rng(2)
    with open(data_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "expo", "age"])
        for _ in range(300):
            expo = rng.uniform(0.5, 1.0)
            writer.writerow([rng.poisson(expo * 0.2), expo, rng.uniform(20, 80)])
    cfg = tmp_path / "p.cfg"
    cfg.write_text(
        "loss = poisson_deviance\nlink = log\nresponse = n\nweight = expo\n"
        "response_kind = count\nresponse_per_weight = true\nnumeric = age\n"
        "min_samples_leaf = 20\n"
    )
    out = tmp_path / "out"
    assert run(["train", "--data", data_csv, "--config", cfg, "--kappa", "0",
                "--out", out]) == 0
    assert run(["predict", "--model", out / "model.json", "--data", data_csv,
                "--config", cfg, "--out", out]) == 0
    assert run(["evaluate", "--data", data_csv, "--config", cfg,
                "--pred", f"GLM={out/'predictions.csv'}", "--out", out]) == 0
    report = read_rows(out / "evaluation.csv")
    assert "avg_loss_x100" in report[0]
    assert float(report[0]["avg_loss_x100"]) == pytest.approx(
        100.0 * float(report[0]["avg_loss"]), rel=1e-12
    )


def test_config_precedence_flag_over_file_over_profile(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n = 77\nseed = 3\n")
    out = tmp_path / "o"
    # file overrides the profile default n=200000; flag overrides file
    assert run(["simulate", "--config", cfg, "--out", out]) == 0
    assert len(read_rows(out / "sim_data.csv")) == 77
    assert run(["simulate", "--config", cfg, "--n", 33, "--out", out]) == 0
    assert len(read_rows(out / "sim_data.csv")) == 33


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["simulate", "--n", 800, "--seed", 6,
                    "--split-frac", 0.5, "--out", out]) == 0
        assert run(["tune", "--data", out / "sim_train.csv", "--max-kappa", 6,
                    "--patience", 2, "--seed", 1, "--out", out]) == 0
        assert run(["train", "--data", out / "sim_train.csv",
                    "--kappa", out / "kappa.csv", "--out", out]) == 0
        assert run(["predict", "--model", out / "model.json",
                    "--data", out / "sim_test.csv", "--out", out]) == 0
    assert dir_digests(a) == dir_digests(b)


def test_unknown_profile_rejected(tmp_path, capsys):
    code = run(["simulate", "--profile", "sim", "--n", 10, "--out", tmp_path])
    assert code == 0
    cfg = tmp_path / "c.cfg"
    cfg.write_text("profile = nonsense\n")
    code = run(["simulate", "--config", cfg, "--n", 10, "--out", tmp_path])
    assert code == 2
    assert "profile" in capsys.readouterr().err


def test_simulate_rejects_split_frac_outside_unit_interval(tmp_path, capsys):
    for frac in (1.5, 0.0, -0.2):
        code = run(["simulate", "--n", 20, "--split-frac", frac, "--out", tmp_path])
        assert code == 2
        assert "split-frac" in capsys.readouterr().err
    assert not (tmp_path / "sim_train.csv").exists()


@pytest.mark.parametrize(
    "column, cell, message",
    [
        ("w", "0", "non-positive weight"),
        ("w", "-1.5", "non-positive weight"),
        ("w", "nan", "non-finite value"),
        ("w", "inf", "non-finite value"),
        ("x3", "nan", "non-finite value"),
        ("x3", "-inf", "non-finite value"),
    ],
)
def test_predict_rejects_bad_cell_with_coordinates(pipeline, tmp_path, capsys,
                                                   column, cell, message):
    with open(pipeline / "sim_test.csv", newline="") as fh:
        rows = list(csv.reader(fh))[:5]
    rows[3][rows[0].index(column)] = cell  # data row 2
    bad_csv = tmp_path / "bad.csv"
    with open(bad_csv, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    code = run(["predict", "--model", pipeline / "model.json", "--data", bad_csv,
                "--out", tmp_path])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{message} at row 2, column {column!r}" in err


def set_cell(r, c, text):
    """Edit of a CSV's rows (the header is row 0) setting one cell."""
    def edit(rows):
        rows[r][c] = text
    return edit


def add_field(r):
    def edit(rows):
        rows[r].append("7")
    return edit


def poisson_means(r, text):
    """Edit of a predictions file setting every mu_hat to 1.0 but that
    of data row r, which it sets to ``text``."""
    def edit(rows):
        for row in rows[1:]:
            row[1] = "1.0"
        rows[r + 1][1] = text
    return edit


POISSON_CFG = "loss = poisson_deviance\nlink = log\n"

# name: (pipeline file copied to bad.csv, its edit or None, config file
# text, extra flags, command, what the error line must name)
MALFORMED = {
    "kappa_cell": ("kappa.csv", set_cell(3, 1, "abc"), "", [], "train",
                   ["bad.csv", "'abc' at row 2, column 'kappa'"]),
    "kappa_column": ("kappa.csv", set_cell(0, 1, "k"), "", [], "train",
                     ["bad.csv", "missing column 'kappa'"]),
    "kappa_repeat": ("kappa.csv", set_cell(4, 0, "x2"), "", [], "train",
                     ["bad.csv", "dimension 'x2' listed twice"]),
    "pred_field": ("predictions.csv", add_field(2), "", [], "evaluate",
                   ["bad.csv", "row 1 has"]),
    "pred_text": ("predictions.csv", set_cell(2, 1, "oops"), "", [], "evaluate",
                  ["bad.csv", "'oops' at row 1, column 'mu_hat'"]),
    "pred_nan": ("predictions.csv", set_cell(2, 1, "nan"), "", [], "evaluate",
                 ["bad.csv", "non-finite value at row 1, column 'mu_hat'"]),
    "header_repeat": ("sim_train.csv", set_cell(0, 3, "x1"), "", [], "train",
                      ["bad.csv", "column 'x1' listed twice"]),
    "config_int": ("kappa.csv", None, "max_depth = two\n", [], "train",
                   ["c.cfg: max_depth", "'two'"]),
    "config_float": ("kappa.csv", None, "cap:x1 = big\n", [], "train",
                     ["c.cfg: cap:x1", "'big'"]),
    "config_bool": ("kappa.csv", None, "response_per_weight = maybe\n", [],
                    "train", ["c.cfg: response_per_weight", "'maybe'"]),
    "flag_kappa": ("kappa.csv", None, "", ["--kappa", "x"], "train",
                   ["--kappa", "'x'"]),
    # a Latin-1 byte, written through surrogateescape
    "not_utf8": ("sim_train.csv", set_cell(3, 2, "caf\udce9"), "", [], "train",
                 ["bad.csv", "line 4 is not UTF-8"]),
    "pred_negative": ("predictions.csv", poisson_means(3, "-1.0"), POISSON_CFG, [],
                      "evaluate", ["bad.csv", "at row 3, column 'mu_hat'"]),
    "pred_zero": ("predictions.csv", poisson_means(3, "0.0"), POISSON_CFG, [],
                  "evaluate", ["bad.csv", "at row 3, column 'mu_hat'"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_a_located_error(pipeline, tmp_path, capsys, case):
    name, edit, config, flags, command, located = MALFORMED[case]
    bad = tmp_path / "bad.csv"
    with open(pipeline / name, newline="") as fh:
        rows = list(csv.reader(fh))
    if edit is not None:
        edit(rows)
    with open(bad, "w", newline="", encoding="utf-8",
              errors="surrogateescape") as fh:
        csv.writer(fh).writerows(rows)
    files = {"kappa.csv": pipeline / "sim_train.csv", "sim_train.csv": bad,
             "predictions.csv": pipeline / "sim_test.csv"}
    args = [command, "--data", files[name], "--out", tmp_path / "out"]
    if command == "train":
        args += ["--kappa", bad if name == "kappa.csv" else pipeline / "kappa.csv"]
    else:
        args += ["--pred", f"M={bad}"]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config)
    code = run(args + ["--config", cfg] + flags)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith("tvcm: error: ")
    for text in located:
        assert text in line


@pytest.fixture(scope="module")
def sim300(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim300")
    assert run(["simulate", "--n", 300, "--seed", 8, "--out", root]) == 0
    return root / "sim_data.csv"


def evaluate_rolling(path, window, out):
    return run(["evaluate", "--data", path, "--fit-baselines", path,
                "--rolling", window, "--out", out])


@pytest.mark.parametrize("window", [-3, 0])
def test_evaluate_rejects_a_rolling_window_below_one(sim300, tmp_path, capsys,
                                                     window):
    assert evaluate_rolling(sim300, window, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("tvcm: error: --rolling ") and f"got {window}" in err
    assert "Traceback" not in err


def test_evaluate_rejects_a_rolling_window_longer_than_the_data(sim300, tmp_path,
                                                                capsys):
    assert evaluate_rolling(sim300, 1000, tmp_path / "long") == 2
    err = capsys.readouterr().err
    assert err.startswith("tvcm: error: --rolling ") and "got 1000" in err
    assert not (tmp_path / "long" / "rolling_mean.csv").exists()
    # a window of every row gives one mean
    assert evaluate_rolling(sim300, 300, tmp_path / "all") == 0
    assert len(read_rows(tmp_path / "all" / "rolling_mean.csv")) == 1


def test_a_byte_order_mark_is_skipped(pipeline, tmp_path):
    plain = (pipeline / "sim_train.csv").read_bytes()[:20000].rsplit(b"\n", 1)[0]
    digests = []
    for name, body in (("plain", plain), ("bom", b"\xef\xbb\xbf" + plain)):
        (tmp_path / f"{name}.csv").write_bytes(body + b"\n")
        assert run(["train", "--data", tmp_path / f"{name}.csv", "--kappa", 2,
                    "--out", tmp_path / name]) == 0
        digests.append(dir_digests(tmp_path / name)["model.json"])
    assert digests[0] == digests[1]


def write_region_claims(path, n=400, seed=3):
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "expo", "age", "region"])
        for _ in range(n):
            age = rng.uniform(20, 80)
            expo = rng.uniform(0.2, 1.0)
            region = rng.choice(["north", "south", "west"])
            lam = expo * 0.2 * (1 + 2 * (age > 50)) * (1 + (region == "west"))
            writer.writerow([rng.poisson(lam), expo, age, region])


def test_importance_aggregate_rows(tmp_path):
    data_csv = tmp_path / "claims.csv"
    write_region_claims(data_csv)
    cfg = tmp_path / "claims.cfg"
    cfg.write_text(
        "loss = poisson_deviance\nlink = log\nresponse = n\nweight = expo\n"
        "response_kind = count\nresponse_per_weight = true\n"
        "numeric = age\ncategorical = region\nmin_samples_leaf = 20\n"
        "epsilon = 0.1\n"
    )
    out = tmp_path / "out"
    assert run(["train", "--data", data_csv, "--config", cfg, "--kappa", "4",
                "--out", out]) == 0
    assert run(["importance", "--model", out / "model.json", "--data", data_csv,
                "--config", cfg, "--aggregate-rows", "--out", out]) == 0
    with open(out / "importance_split_gain_grouped.csv", newline="") as fh:
        header, *body = list(csv.reader(fh))
    mdl = model.load_model(out / "model.json")
    assert mdl.space.feature_names == ["age", "region=north", "region=south",
                                       "region=west"]
    # raw gain totals per dimension (row) and column group: age, region
    raw = np.zeros((4, 2))
    for j, cf in enumerate(mdl.coef):
        for t in cf.trees:
            for f, gain in t.split_gains().items():
                raw[j, min(f, 1)] += gain
    assert header == ["dimension", "age", "region"]
    assert [r[0] for r in body] == ["age", "region"]
    # one row per original column: member rows' raw gains are summed,
    # then the row is normalized to one
    for label, rows in (("age", [0]), ("region", [1, 2, 3])):
        expected = raw[rows].sum(axis=0)
        assert expected.sum() > 0
        got = [float(v) for v in body[[r[0] for r in body].index(label)][1:]]
        np.testing.assert_allclose(got, expected / expected.sum(), rtol=1e-12)


@st.composite
def ingestion_cases(draw):
    """A random schema over positive numeric, ordinal and categorical
    columns, with random floor/cap/transform directives."""
    seed = draw(st.integers(0, 2**32 - 1))
    numeric = ["a", "b", "lvl"][: draw(st.integers(1, 3))]
    categorical = ["c0", "c1", "k=v"][: draw(st.integers(0, 3))]
    directives = {}
    for col in numeric:
        transform = draw(st.sampled_from([None, "log", "log1p"]))
        if transform:
            directives[f"transform:{col}"] = transform
        if draw(st.booleans()):
            directives[f"floor:{col}"] = draw(st.sampled_from([0.5, 1.5, 2.0]))
        if draw(st.booleans()):
            directives[f"cap:{col}"] = draw(st.sampled_from([2.5, 3.0, 12.0]))
    if draw(st.booleans()):
        directives["cap:w"] = draw(st.sampled_from([0.9, 1.2]))
    return seed, numeric, categorical, directives


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(ingestion_cases())
def test_scoring_sees_the_features_training_saw(case):
    seed, numeric, categorical, directives = case
    rng = np.random.default_rng(seed)
    n = 80
    levels = ("lo", "mid", "hi")
    columns = {
        "a": rng.uniform(0.2, 20.0, n),
        "b": rng.lognormal(0.5, 1.0, n),
        "lvl": rng.choice(levels, n),
        "c0": rng.choice(["p", "q"], n),
        "c1": rng.choice(["r", "s", "t"], n),
        "w": rng.uniform(0.5, 1.5, n),
    }
    columns["y"] = np.log1p(columns["a"]) + rng.standard_normal(n)
    columns["k=v"] = rng.choice(["x", "y"], n)
    header = ["y", "w", *numeric, *categorical]
    settings_text = {
        "response": "y", "weight": "w", "numeric": ",".join(numeric),
        "categorical": ",".join(categorical), "min_samples_leaf": "5",
        "ordinal:lvl": ",".join(levels) if "lvl" in numeric else None,
        **{k: str(v) for k, v in directives.items()},
    }
    with tempfile.TemporaryDirectory() as tmp:
        train_csv = os.path.join(tmp, "train.csv")
        with open(train_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(n):
                writer.writerow([columns[c][i] for c in header])
        cfg = os.path.join(tmp, "ingest.cfg")
        with open(cfg, "w") as fh:
            for key, value in settings_text.items():
                if value is not None:
                    fh.write(f"{key} = {value}\n")
        out = os.path.join(tmp, "out")
        common = ["--config", cfg, "--out", out]
        assert run(["train", "--data", train_csv, "--kappa", "2", *common]) == 0
        model_json = os.path.join(out, "model.json")
        assert run(["predict", "--model", model_json, "--data", train_csv,
                    *common]) == 0
        assert run(["importance", "--model", model_json, "--data", train_csv,
                    *common]) == 0
        mdl = model.load_model(model_json)
        schema = data.Schema(
            response="y",
            numeric=tuple(numeric),
            categorical=tuple(categorical),
            weight="w",
            caps={k[4:]: v for k, v in directives.items() if k.startswith("cap:")},
            floors={k[6:]: v for k, v in directives.items() if k.startswith("floor:")},
            transforms={k[10:]: v for k, v in directives.items()
                        if k.startswith("transform:")},
            ordinal={"lvl": levels} if "lvl" in numeric else {},
        )
        ds = data.load_csv(train_csv, schema)
        mu = np.array([float(r["mu_hat"]) for r in read_rows(os.path.join(out, "predictions.csv"))])
        assert np.array_equal(mu, mdl.predict_mu(ds.X))
        fi = [float(r["mean_abs_beta"])
              for r in read_rows(os.path.join(out, "importance_fi_star.csv"))]
        assert np.array_equal(np.asarray(fi), boosting.fi_star(mdl, ds).raw)


FIXTURES = pathlib.Path(__file__).parent / "data"

# sha256 of the files ``predict --emit-beta --emit-delta`` and
# ``importance`` write for each v1 fixture on ``v1_scoring_input``
V1_SCORING_SHA256 = {
    "gaussian_v1_model.json": {
        "importance_fi_star.csv":
            "0b266fc19bcfff6d8e68061721504dce15c5ca9fc25d390825a21bb23fe0273b",
        "importance_split_gain.csv":
            "2c9fa5045337b24974d8efd602b9634cf69a81013966ebd650ddbec6d0d2812b",
        "predictions.csv":
            "8b4166d1c45663e1723b1b3f2cbf7edd617bdc544c5ee62b6623b878441e8f18",
    },
    "poisson_v1_model.json": {
        "importance_fi_star.csv":
            "0d5c34e3d83856a4c04c9ffa262561ff7f9cc34f171721ca0276fd587f09da7f",
        "importance_split_gain.csv":
            "06d13cde890ca36aa859e715216174b7ddd0afef49bd48f5d5c39b2b5cd9c2ad",
        "predictions.csv":
            "5fdb27eaafc99454f4fa61a2e3522bb305c1fa9a9681a4d5f0bebc6a068c4e20",
    },
}


def v1_scoring_input(fixture):
    """Raw CSV columns to score a v1 fixture on, and the encoded feature
    matrix the model sees for them."""
    rng = np.random.default_rng(31)
    n = 40
    if fixture == "gaussian_v1_model.json":
        X = rng.standard_normal((n, 8))
        columns = {f"x{j + 1}": X[:, j] for j in range(8)}
    else:
        density = np.round(np.exp(rng.normal(5.0, 1.5, n)))
        power = rng.integers(4, 10, n).astype(float)
        diesel = rng.integers(0, 2, n).astype(float)
        region = rng.integers(0, 3, n)
        X = np.column_stack(
            [density, power, diesel, *(region == r for r in range(3))]
        ).astype(float)
        columns = {"Density": density, "VehPower": power, "Diesel": diesel,
                   "Region": [f"R{r + 1}" for r in region]}
    columns = {"y": rng.poisson(1.0, n).astype(float),
               "w": rng.uniform(0.1, 1.0, n), **columns}
    return columns, X


@pytest.mark.parametrize("fixture", sorted(V1_SCORING_SHA256))
def test_v1_fixture_scoring_outputs_equal_the_model_bit_for_bit(fixture, tmp_path):
    columns, X = v1_scoring_input(fixture)
    data_csv = tmp_path / "score.csv"
    with open(data_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        for row in zip(*columns.values()):
            writer.writerow([v if isinstance(v, str) else repr(float(v)) for v in row])
    model_json = FIXTURES / fixture
    out = tmp_path / "out"
    assert run(["predict", "--model", model_json, "--data", data_csv,
                "--emit-beta", "--emit-delta", "--out", out]) == 0
    assert run(["importance", "--model", model_json, "--data", data_csv,
                "--out", out]) == 0

    mdl = model.load_model(model_json)
    names = mdl.space.feature_names
    with open(out / "predictions.csv", newline="") as fh:
        header, *body = list(csv.reader(fh))
    got = np.asarray([[float(c) for c in r] for r in body])
    mu = mdl.predict_mu(X)
    assert np.array_equal(got[:, header.index("mu_hat")], mu)
    if mdl.loss.kind == "poisson_deviance":
        assert np.array_equal(got[:, header.index("expected_response")],
                              columns["w"] * mu)
    beta_cols = [header.index(f"beta_hat_{n}") for n in names]
    assert np.array_equal(got[:, beta_cols], mdl.beta_of(X))
    delta_cols = [header.index(f"delta_{n}") for n in names]
    assert np.array_equal(got[:, delta_cols], mdl.scores(X).delta)
    ds = data.Dataset(y=np.zeros(len(X)), w=np.ones(len(X)), X=X, x_names=list(names))
    fi = [float(r["mean_abs_beta"]) for r in read_rows(out / "importance_fi_star.csv")]
    assert np.array_equal(np.asarray(fi), boosting.fi_star(mdl, ds).raw)
    assert dir_digests(out) == V1_SCORING_SHA256[fixture]


def set_key(key, value):
    def edit(payload):
        payload[key] = value
    return edit


# name: (edit of the Gaussian v1 fixture's document, or the bytes of the
# file; the start of the error after the file name)
BAD_MODEL_FILES = {
    "link": (set_key("link", "log"),
             "unsupported loss/link pairing (gaussian_deviance, log)"),
    "onehot": (set_key("onehot_groups", {"x1": ["x2"]}),
               "one-hot group 'x1' is also a feature column"),
    "malformed": (set_key("beta0", "zero"), "malformed model document"),
    "not_json": (b"not json", "model file is not valid JSON"),
    "not_utf8": (b'{"loss": "caf\xe9"}', "model file is not valid JSON"),
}


@pytest.mark.parametrize("case", sorted(BAD_MODEL_FILES))
def test_a_bad_model_file_is_named_in_its_error(tmp_path, capsys, case):
    edit, message = BAD_MODEL_FILES[case]
    bad = tmp_path / "bad.json"
    if isinstance(edit, bytes):
        bad.write_bytes(edit)
    else:
        payload = json.loads((FIXTURES / "gaussian_v1_model.json").read_text())
        edit(payload)
        bad.write_text(json.dumps(payload))
    code = run(["predict", "--model", bad, "--data", tmp_path / "score.csv",
                "--out", tmp_path])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"tvcm: error: {bad}: {message}")


@pytest.mark.parametrize("link, message", [
    ("log", "unsupported loss/link pairing (gaussian_deviance, log); "
            "supported: gaussian_deviance+identity, poisson_deviance+log"),
    ("logit", "unknown link kind 'logit'"),
])
def test_a_config_file_link_must_be_the_losss_own(pipeline, tmp_path, capsys,
                                                  link, message):
    # the profiles name no link; a config file may, and it is checked
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"link = {link}\n")
    code = run(["train", "--data", pipeline / "sim_train.csv", "--kappa", "1",
                "--config", cfg, "--out", tmp_path])
    assert code == 2
    assert capsys.readouterr().err == f"tvcm: error: {message}\n"


def test_poisson_tune_rejects_a_negative_real_kind_response(tmp_path, capsys):
    # load_csv rejects y < 0 only for a count response; tuning itself
    # must reject it under the Poisson loss
    data_csv = tmp_path / "neg.csv"
    rng = np.random.default_rng(5)
    with open(data_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "w", "a"])
        for i in range(200):
            writer.writerow([-0.5 if i == 4 else rng.poisson(1.0), 1.0, rng.uniform()])
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("loss = poisson_deviance\nlink = log\nresponse = y\nnumeric = a\n")
    code = run(["tune", "--data", data_csv, "--config", cfg, "--max-kappa", "2",
                "--out", tmp_path / "out"])
    assert code == 2
    err = capsys.readouterr().err
    assert "negative response at row 4, column 'response'" in err


def test_write_csv_writes_the_bytes_of_the_csv_module(tmp_path):
    # numeric rows skip the csv module; every row must still read back
    # byte for byte as the csv module writes it
    rows = [
        [-0.0, 0.0, float("nan"), float("inf"), -float("inf")],
        [1e-7, 1e16, 1e20, 0.1, -2.5e-300],
        [0, -7, 2**63, -(10**30), 12345678901234567890],
        [3, 1.5, 'a "quoted", cell', "plain", -0.0, None],
        [1.0, True, 2],
        [],
    ]
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b,c", "d"], rows)
    with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
        # write_csv prints a bool as an int, as it always has
        csv.writer(fh).writerows([["a", "b,c", "d"], *rows[:4],
                                  [1.0, 1, 2], []])
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_writes_numpy_cells_as_the_csv_module_did(tmp_path):
    # numeric rows of numpy scalars skip the csv module too; the
    # reference is the csv module fed write_csv's cell text
    f64, i64 = np.float64, np.int64
    big = np.iinfo(np.uint64).max
    rows = [
        [f64(v) for v in (-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-7)],
        [i64(0), i64(-7), np.int32(5), np.uint64(big)],
        [12, f64(0.25), f64(-1e300)],
        # each with otherwise numeric cells, which alone take the join
        [True, f64(2.0)],
        [np.bool_(True), i64(1)],
        [np.float32(0.1), 3],
        ['a "quoted", cell', f64(1.5), i64(3)],
    ]
    matrix = np.array([[-0.0, 0.1, 1e-7], [np.nan, 5e-324, 3.0]])
    ref = tmp_path / "ref.csv"
    for name, body in (("rows", rows), ("matrix", matrix)):
        path = tmp_path / f"{name}.csv"
        write_csv(path, ["a", "b,c", "d"], body)
        with open(ref, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b,c", "d"])
            for row in body:
                writer.writerow([c if isinstance(c, str) else _fmt(c) for c in row])
        assert path.read_bytes() == ref.read_bytes(), name
    text = (tmp_path / "rows.csv").read_text(encoding="utf-8").splitlines()
    # a bool prints as an int, a numpy bool as a float, a float32 widened
    assert text[4:7] == ["1,2.0", "1.0,1", "0.10000000149011612,3"]
    assert text[2] == f"0,-7,5,{big}"


# sha256 of rolling_mean.csv as the csv module wrote it for this input
ROLLING_SHA256 = "6996a34152c92b4a905de88e72cfef226483ceafc1d7bb774105c877685c7df2"


def test_evaluate_rolling_writes_the_same_bytes(tmp_path):
    # each row is an int index plus numpy float cells
    rng = np.random.default_rng(41)
    n = 60
    y = rng.poisson(2.0, n).astype(float)
    mu = rng.uniform(0.5, 4.0, n)
    with open(tmp_path / "data.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "w", "x1"])
        for row in zip(y, rng.uniform(0.1, 1.0, n), rng.standard_normal(n)):
            writer.writerow([repr(float(v)) for v in row])
    for name, pred in (("a", mu), ("b", mu * rng.uniform(0.9, 1.1, n))):
        with open(tmp_path / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row_id", "mu_hat"])
            writer.writerows([i, repr(float(v))] for i, v in enumerate(pred))
    out = tmp_path / "out"
    assert run(["evaluate", "--data", tmp_path / "data.csv",
                "--pred", f"A={tmp_path / 'a.csv'}",
                "--pred", f"B={tmp_path / 'b.csv'}",
                "--rolling", 7, "--out", out]) == 0
    assert dir_digests(out)["rolling_mean.csv"] == ROLLING_SHA256
