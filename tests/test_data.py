import ast
import math
import pathlib
import re

import numpy as np
import pytest

from tvcm import data
from tvcm.errors import ConfigError, DataError


def test_true_beta_at_zero():
    beta = data.true_beta(np.zeros(8))
    np.testing.assert_array_equal(beta, [0.5, 0, 0, 0, 0, 0, 0, 0])


def test_true_beta_component3_known_value():
    x = np.zeros(8)
    x[2] = math.pi / 4
    assert data.true_beta(x)[2] == pytest.approx(0.5, rel=1e-12)


def test_true_beta_component_means():
    # E[beta_1] = 0.5 and E[beta_6] = E[X^2]/8 = 0.125 exactly;
    # E[beta_3] = integral of sgn(x) sin(2x) phi(x) / 2 ~ 0.255
    rng = np.random.default_rng(100)
    X = rng.standard_normal((400000, 8))
    beta = data.true_beta(X)
    means = beta.mean(axis=0)
    assert means[0] == 0.5
    assert means[5] == pytest.approx(0.125, abs=0.002)
    # quadrature oracle for E[sgn(X) sin(2X)] / 2 on the same law
    grid = np.linspace(0.0, 12.0, 400001)
    phi = np.exp(-grid * grid / 2.0) / math.sqrt(2 * math.pi)
    expected = float(np.trapezoid(np.sin(2 * grid) * phi, grid))  # half-line
    assert 2 * expected * 0.5 == pytest.approx(0.255, abs=0.002)
    assert means[2] == pytest.approx(2 * expected * 0.5, abs=0.003)


def test_true_mu_zero_at_origin():
    assert data.true_mu(np.zeros(8)) == 0.0


def test_simulate_reproducible():
    a, mu_a = data.simulate(data.SimulationSpec(n=500, seed=9))
    b, mu_b = data.simulate(data.SimulationSpec(n=500, seed=9))
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(mu_a, mu_b)
    c, _ = data.simulate(data.SimulationSpec(n=500, seed=10))
    assert not np.array_equal(a.y, c.y)


def test_simulate_moments():
    ds, mu = data.simulate(data.SimulationSpec(n=1000000, seed=3))
    corr = np.corrcoef(ds.X[:, 1], ds.X[:, 7])[0, 1]
    assert corr == pytest.approx(0.5, abs=0.01)
    for j in range(8):
        assert ds.X[:, j].var() == pytest.approx(1.0, abs=0.01)
        assert ds.X[:, j].mean() == pytest.approx(0.0, abs=0.01)
    # other pairs essentially uncorrelated
    assert abs(np.corrcoef(ds.X[:, 0], ds.X[:, 4])[0, 1]) < 0.01


def test_simulate_noise_variance():
    ds, mu = data.simulate(data.SimulationSpec(n=100000, seed=4))
    assert float(np.var(ds.y - mu)) == pytest.approx(1.0, abs=0.02)
    assert np.all(ds.w == 1.0)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def toy_schema(**kw):
    defaults = dict(
        response="y", numeric=("a", "b"), categorical=("c",), weight="w"
    )
    defaults.update(kw)
    return data.Schema(**defaults)


def test_load_csv_toy(tmp_path):
    path = tmp_path / "toy.csv"
    write_csv(
        path,
        ["y", "w", "a", "b", "c"],
        [[1.0, 1.0, 0.5, 2.0, "red"], [0.0, 2.0, -1.0, 0.0, "blue"],
         [2.0, 0.5, 3.0, 1.0, "red"]],
    )
    ds = data.load_csv(path, toy_schema())
    assert ds.n == 3
    np.testing.assert_array_equal(ds.w, [1.0, 2.0, 0.5])
    # numeric columns, then one 0/1 column per sorted level: blue, red
    assert ds.x_names == ["a", "b", "c=blue", "c=red"]
    assert ds.onehot_groups == {"c": ["c=blue", "c=red"]}
    np.testing.assert_array_equal(
        ds.X, [[0.5, 2.0, 0.0, 1.0], [-1.0, 0.0, 1.0, 0.0], [3.0, 1.0, 0.0, 1.0]]
    )


def test_load_csv_nonpositive_weight_names_row(tmp_path):
    path = tmp_path / "w.csv"
    rows = [[1.0, 1.0, 0.0, 0.0, "x"] for _ in range(10)]
    rows[7][1] = 0.0
    write_csv(path, ["y", "w", "a", "b", "c"], rows)
    with pytest.raises(DataError, match="row 7"):
        data.load_csv(path, toy_schema())


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "m.csv"
    write_csv(path, ["y", "w", "a", "c"], [[1, 1, 1, "x"]])
    with pytest.raises(DataError, match="'b'"):
        data.load_csv(path, toy_schema())


def test_load_csv_unparsable_cell_names_coordinates(tmp_path):
    path = tmp_path / "u.csv"
    write_csv(
        path,
        ["y", "w", "a", "b", "c"],
        [[1, 1, 1, 2, "x"], [1, 1, "oops", 2, "x"]],
    )
    with pytest.raises(DataError, match="row 1, column 'a'"):
        data.load_csv(path, toy_schema())


def test_load_csv_negative_count_rejected(tmp_path):
    path = tmp_path / "n.csv"
    write_csv(path, ["y", "w", "a", "b", "c"], [[-1, 1, 1, 2, "x"]])
    with pytest.raises(DataError, match="negative count"):
        data.load_csv(path, toy_schema(response_kind="count"))


def test_load_csv_response_per_weight_and_caps(tmp_path):
    path = tmp_path / "c.csv"
    write_csv(
        path,
        ["y", "w", "a", "b", "c"],
        [[6.0, 2.0, 9.9, 0.0, "x"], [1.0, 0.5, -5.0, 1.0, "x"]],
    )
    schema = toy_schema(
        response_per_weight=True,
        caps={"y": 4.0, "a": 5.0},
        floors={"a": -1.0},
    )
    ds = data.load_csv(path, schema)
    # cap before dividing: min(6,4)/2 = 2.0
    np.testing.assert_allclose(ds.y, [2.0, 2.0])
    np.testing.assert_allclose(ds.X[:, 0], [5.0, -1.0])


def test_load_csv_ordinal_levels(tmp_path):
    path = tmp_path / "o.csv"
    write_csv(
        path,
        ["y", "w", "a", "b", "c"],
        [[1, 1, "B", 0, "x"], [1, 1, "D", 0, "x"]],
    )
    schema = toy_schema(ordinal={"a": ("A", "B", "C", "D")})
    ds = data.load_csv(path, schema)
    np.testing.assert_array_equal(ds.X[:, 0], [2.0, 4.0])
    write_csv(path, ["y", "w", "a", "b", "c"], [[1, 1, "Z", 0, "x"]])
    with pytest.raises(DataError, match="'Z'"):
        data.load_csv(path, schema)


def test_onehot_encode_levels_and_groups():
    ds = data.Dataset(y=np.ones(3), w=np.ones(3), X=np.zeros((3, 2)),
                      x_names=["a", "b"])
    assert data.onehot_encode(ds) is ds
    enc = data.onehot_encode(ds, {"c": ["m", "l", "s"], "B": ["u", "u", "u"]})
    # groups follow in column-name order
    assert enc.x_names == ["a", "b", "B=u", "c=l", "c=m", "c=s"]
    assert enc.onehot_groups == {"B": ["B=u"], "c": ["c=l", "c=m", "c=s"]}
    np.testing.assert_array_equal(enc.X[:, 2], np.ones(3))
    # row with the middle sorted level maps to (0, 1, 0)
    np.testing.assert_array_equal(enc.X[0, 3:], [0.0, 1.0, 0.0])
    # group columns sum to one per row, and argmax decodes the level
    np.testing.assert_array_equal(enc.X[:, 3:].sum(axis=1), np.ones(3))
    decoded = [enc.onehot_groups["c"][k].split("=")[1]
               for k in np.argmax(enc.X[:, 3:], axis=1)]
    assert decoded == ["m", "l", "s"]


def test_onehot_fill_sets_level_columns_and_names_unseen_level():
    # scoring's map: levels from a model's member names, which may hold "="
    onehot = data.OneHotMap(["a", "k=v=x", "k=v=y"], {"k=v": ["k=v=x", "k=v=y"]})
    groups = onehot.members
    assert groups == {"k=v": {"x": 1, "y": 2}}
    X = np.zeros((2, 3))
    data.onehot_fill(X, "k=v", ["y", "x"], groups["k=v"], "s.csv")
    np.testing.assert_array_equal(X, [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    with pytest.raises(DataError) as err:
        data.onehot_fill(X, "k=v", ["y", "z"], groups["k=v"], "s.csv")
    assert str(err.value) == "s.csv: unseen level 'z' at row 1, column 'k=v'"


def test_onehot_map_positions_and_labels():
    names = ["a", "k=y", "b", "k=x", "j=1"]
    m = data.OneHotMap(names, {"k": ["k=y", "k=x"], "j": ["j=1"]})
    # member positions in each group's own order, the groups in theirs
    assert list(m.members) == ["k", "j"]
    assert list(m.members["k"].items()) == [("y", 1), ("x", 3)]
    assert m.members["j"] == {"1": 4}
    # labels in first-seen order over the columns
    assert m.labels == ["a", "k", "b", "j"]
    assert m.label_of.tolist() == [0, 1, 2, 1, 3]
    assert m.grouped.tolist() == [False, True, False, True, True]


# name: (numeric columns, categorical levels per row, the column the error names)
NAME_COLLISIONS = {
    "member_is_numeric": (["r=a"], {"r": ["a", "b", "a", "b"]}, "'r=a'"),
    "group_is_numeric": (["r"], {"r": ["a", "b", "a", "b"]}, "'r'"),
    "two_groups_one_member": (
        ["z"], {"a": ["b=c", "d", "b=c", "d"], "a=b": ["c"] * 4}, "'a=b=c'"
    ),
}


@pytest.mark.parametrize("case", sorted(NAME_COLLISIONS))
def test_onehot_encode_rejects_a_name_collision(case):
    numeric, categorical, column = NAME_COLLISIONS[case]
    ds = data.Dataset(y=np.ones(4), w=np.ones(4), X=np.arange(4.0)[:, None],
                      x_names=numeric)
    with pytest.raises(DataError, match=re.escape(column)):
        data.onehot_encode(ds, categorical)


def test_load_csv_rejects_a_numeric_column_named_like_a_member(tmp_path):
    # the numeric column would otherwise be taken for a one-hot column
    # and left unstandardized
    path = tmp_path / "r.csv"
    rng = np.random.default_rng(2)
    write_csv(path, ["y", "w", "r=a", "r"],
              [[1.0, 1.0, 5.0 + 3.0 * rng.standard_normal(), "ab"[i % 2]]
               for i in range(20)])
    schema = toy_schema(numeric=("r=a",), categorical=("r",))
    message = f"{path}: one-hot column 'r=a' of group 'r'"
    with pytest.raises(DataError, match="^" + re.escape(message)):
        data.load_csv(path, schema)


def test_split_sizes_and_determinism():
    ds, _ = data.simulate(data.SimulationSpec(n=10, seed=1))
    a, b = data.split(ds, (0.5, 0.5), seed=5)
    assert (a.n, b.n) == (5, 5)
    a2, b2 = data.split(ds, (0.5, 0.5), seed=5)
    assert np.array_equal(a.y, a2.y) and np.array_equal(b.y, b2.y)
    joined = np.sort(np.concatenate([a.y, b.y]))
    assert np.array_equal(joined, np.sort(ds.y))
    with pytest.raises(ConfigError):
        data.split(ds, (0.6, 0.5), seed=1)


def test_split_by_indices():
    ds, _ = data.simulate(data.SimulationSpec(n=20, seed=2))
    first = np.array([0, 3, 7, 19])
    a, b = data.split_by_indices(ds, first)
    assert a.n == 4 and b.n == 16
    assert np.array_equal(a.y, ds.y[first])
    with pytest.raises(DataError):
        data.split_by_indices(ds, [0, 0, 1])
    with pytest.raises(DataError):
        data.split_by_indices(ds, [25])


def test_standardize_moments_and_onehot_passthrough(tmp_path):
    path = tmp_path / "s.csv"
    rows = []
    rng = np.random.default_rng(0)
    for i in range(50):
        rows.append([1, 1, 100 + 10 * rng.standard_normal(), 5.0,
                     "ab"[i % 2]])
    write_csv(path, ["y", "w", "a", "b", "c"], rows)
    ds = data.load_csv(path, toy_schema())
    std, scaler = data.standardize(ds)
    assert std.X[:, 0].mean() == pytest.approx(0.0, abs=1e-12)
    assert std.X[:, 0].std() == pytest.approx(1.0, rel=1e-12)
    # constant column: sd fallback keeps values finite
    assert scaler.x_sd[1] == 1.0
    # one-hot columns pass through untouched
    np.testing.assert_array_equal(std.X[:, 2:], ds.X[:, 2:])
    back = std.X[:, 0] * scaler.x_sd[0] + scaler.x_mean[0]
    np.testing.assert_allclose(back, ds.X[:, 0], rtol=1e-12)


def test_schema_validation():
    with pytest.raises(ConfigError):
        data.Schema(response="y", numeric=("a",), response_kind="weird")
    with pytest.raises(ConfigError):
        data.Schema(response="y", numeric=("a",), response_per_weight=True)
    with pytest.raises(ConfigError):
        data.Schema(response="y", numeric=("a",), transforms={"a": "exp"})
    with pytest.raises(ConfigError):
        data.Schema(response="y", numeric=("a",), ordinal={"b": ("x",)})


def test_log_transform_declared(tmp_path):
    path = tmp_path / "l.csv"
    write_csv(path, ["y", "w", "a", "b", "c"],
              [[1, 1, 10.0, 1.0, "x"], [1, 1, 100.0, 2.0, "x"]])
    schema = toy_schema(transforms={"a": "log"})
    ds = data.load_csv(path, schema)
    np.testing.assert_allclose(ds.X[:, 0], np.log([10.0, 100.0]))
    # a cell outside the transform's domain is rejected with coordinates
    for transform, cell in (("log", 0.0), ("log1p", -2.0)):
        write_csv(path, ["y", "w", "a", "b", "c"],
                  [[1, 1, 3.0, 1.0, "x"], [1, 1, cell, 2.0, "x"]])
        with pytest.raises(DataError, match="row 1, column 'a'"):
            data.load_csv(path, toy_schema(transforms={"a": transform}))


def test_only_the_data_module_imports_csv():
    # tvcm.data owns the CSV format: every other module reads and writes
    # CSV files through it
    importers = []
    for path in sorted(pathlib.Path(data.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(n is not None and n.split(".")[0] == "csv" for n in names):
                importers.append(path.stem)
    assert sorted(set(importers)) == ["data"]
