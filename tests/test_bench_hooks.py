"""The traced benchmark wraps tvcm functions by name (bench/spans.py).

Building its hooks looks every traced name up on the package, so a
renamed or deleted function fails here instead of in a benchmark run.
"""

import importlib.util
import pathlib

import tvcm
import tvcm.cli

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_hooks_install_and_remove():
    spans = load_spans()
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
