"""The benchmark's tracer (``perfbench/tracer.py``) wraps package functions
and methods by name, as listed in its ``SPANS`` table.  A rename in the
package breaks ``perfbench/run.py --trace 1``; these tests catch it in the
fast suite."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import filtermc.cli as cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracer):
    for prefix, targets in tracer.SPANS.items():
        for mod_name, attr in targets:
            assert mod_name in tracer.MODULES, prefix
            module = importlib.import_module(f"filtermc.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                assert meth in vars(getattr(module, cls_name, object)), f"{prefix}: {attr}"
            else:
                assert callable(getattr(module, attr, None)), f"{prefix}: {attr}"


def test_tracer_counts_a_cli_run_and_restores_the_package(tracer, tmp_path):
    fd = importlib.import_module("filtermc.filter_dynamics")
    originals = (fd.pushforward, fd.DiscreteMeasure.__init__)
    model = tmp_path / "k.json"
    with tracer.Tracer() as t:  # wraps ``cli.run`` where the module holds it
        assert cli.run(["gallery", "kesten", "--out", str(model)]) == 0
        assert cli.run(["evolve", "--model", str(model), "--steps", "3",
                    "--out", str(tmp_path / "mu.json")]) == 0
    assert (fd.pushforward, fd.DiscreteMeasure.__init__) == originals
    v = t.values
    assert v["cli.calls"] == 2 and v["gallery.build.calls"] >= 1
    assert v["filter_dynamics.pushforward.calls"] == 3
    assert v["filter_dynamics.atoms_in"] >= v["filter_dynamics.atoms_out"] > 0
