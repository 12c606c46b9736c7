"""The traced benchmark wraps tvcm functions by name (bench/spans.py).

Building its hooks looks every traced name up on the package, so a
renamed or deleted function fails here instead of in a benchmark run.
"""

import importlib.util
import pathlib

import numpy as np

import tvcm
import tvcm.cli

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_hooks_install_and_remove():
    spans = load_bench_module("spans")
    tracer = spans.Tracer()
    hooks = spans.Hooks(tvcm, tracer)
    originals = {
        "tree.fit_partition": tvcm.tree.fit_partition,
        "cli.read_frame": tvcm.cli._frame_for_model,
        "cli.write_csv": tvcm.cli.write_csv,
    }
    hooks.install()
    try:
        assert tvcm.tree.fit_partition is not originals["tree.fit_partition"]
        assert tvcm.cli._frame_for_model is not originals["cli.read_frame"]
        ds, _ = tvcm.data.simulate(tvcm.SimulationSpec(n=200, seed=1))
        cfg = tvcm.BoostConfig(kappa=1, tree=tvcm.TreeConfig(2, 10))
        tvcm.boosting.fit_tvcm(ds, tvcm.GAUSSIAN, tvcm.IDENTITY, cfg)
    finally:
        hooks.remove()
    assert tvcm.tree.fit_partition is originals["tree.fit_partition"]
    assert tvcm.cli._frame_for_model is originals["cli.read_frame"]
    assert tvcm.cli.write_csv is originals["cli.write_csv"]
    assert "value" not in vars(tvcm.GAUSSIAN)
    calls = tracer.summary()
    assert calls["boosting.fit_tvcm"]["calls"] == 1
    assert calls["tree.fit_partition"]["calls"] == 8


def test_bench_claims_ingest_is_traced(tmp_path):
    # the claims-poisson workload's ingest, as bench/workloads.py calls it
    claims = load_bench_module("claims")
    path = tmp_path / "claims.csv"
    claims.write_claims_csv(path, 2000, 1)
    schema = tvcm.data.Schema(**claims.SCHEMA_KW)
    plain = tvcm.data.load_csv(path, schema)
    spans = load_bench_module("spans")
    tracer = spans.Tracer()
    hooks = spans.Hooks(tvcm, tracer)
    hooks.install()
    try:
        ds = tvcm.data.onehot_encode(tvcm.data.load_csv(path, schema))
    finally:
        hooks.remove()
    assert ds.p == 41
    assert ds.x_names == plain.x_names
    assert ds.onehot_groups == plain.onehot_groups
    for a, b in ((ds.X, plain.X), (ds.y, plain.y), (ds.w, plain.w)):
        assert np.array_equal(a, b)
    calls = tracer.summary()
    assert calls["data.load_csv"]["calls"] == 1
    # one call inside load_csv, and the pass-through around it
    assert calls["data.onehot_encode"]["calls"] == 2
