"""What importing the package loads, and the contract of its lazy exports.

``decoylink/__init__`` resolves each public name on first use (PEP 562), so
``import decoylink`` loads no submodule, and parsing a scenario loads neither
numpy nor the array engine. The footprint tests run in a fresh interpreter
each, since this one has loaded everything already.
"""
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import decoylink
from decoylink import bounds, model, sweep

SRC = Path(decoylink.__file__).resolve().parents[1]
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.append(str(BENCHMARKS))
import probe  # noqa: E402

ENGINE = ("decoylink.bounds", "decoylink.sweep", "decoylink.optimize", "decoylink.cli")


def loaded_after(code: str) -> list[str]:
    """``sys.modules``, in the order its entries were added, after ``code`` runs in a
    fresh interpreter that imports the package from this tree."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(list(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestImportFootprint:
    def test_import_loads_only_the_package(self):
        modules = loaded_after("import decoylink")
        assert [m for m in modules if m.startswith("decoylink")] == ["decoylink"]

    def test_load_scenario_loads_no_array_engine(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(
            "sweep:\n  axes:\n    - {name: p_ap, min: 1.0e-4, max: 0.2, count: 30, spacing: log}\n"
        )
        modules = loaded_after(
            f"import decoylink\nassert decoylink.load_scenario({str(path)!r}).sweep is not None"
        )
        assert "decoylink.config" in modules
        assert not {"numpy", *ENGINE} & set(modules)

    def test_axis_values_loads_numpy_but_no_engine(self):
        modules = loaded_after(
            'import decoylink\nassert len(decoylink.Axis("p_ap", 1e-4, 0.2, 30, "log").values()) == 30'
        )
        assert "numpy" in modules
        assert not set(ENGINE) & set(modules)

    def test_cli_compiles_its_modules_before_numpy(self, tmp_path):
        """Every module of the package compiles before numpy loads.

        With no bytecode cache (as under PYTHONDONTWRITEBYTECODE=1), a module
        compiled after numpy has loaded raises ru_maxrss by its compile
        transient: bounds.py +1.9 MB, optimize.py +1.25 MB, cli.py +1.1 MB.
        Compiled before numpy, a module costs nothing net; ``cli``, ``sweep``
        and ``optimize`` order their imports for this. The import and
        compile audit events give the order; ``sys.modules`` cannot, as a
        module moves to its end when its body finishes, so bounds, whose body
        imports numpy, always follows numpy there.
        """
        code = (
            "import sys\nevents = []\n"
            "sys.addaudithook(lambda event, args: events.append("
            "args[0] if event == 'import' else 'compile ' + str(args[1]).rsplit('/', 1)[-1]"
            ") if event in ('import', 'compile') else None)\n"
            "import decoylink.cli\nimport json\nprint(json.dumps(events))"
        )
        # a cache of its own, kept empty, makes the interpreter compile every module
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONPYCACHEPREFIX": str(tmp_path)}
        done = subprocess.run(
            [sys.executable, "-B", "-c", code], capture_output=True, text=True, env=env
        )
        assert done.returncode == 0, done.stderr
        events = json.loads(done.stdout.splitlines()[-1])
        compiled = [e.split(" ", 1)[1] for e in events[:events.index("numpy")] if " " in e]
        assert set(compiled) >= {
            "__init__.py", "cli.py", "config.py", "errors.py", "model.py", "sweep.py",
            "optimize.py", "bounds.py",
        }


class TestExports:
    def test_all_is_listed_by_dir(self):
        assert len(decoylink.__all__) == len(set(decoylink.__all__)) == 44
        assert set(decoylink.__all__) <= set(dir(decoylink))

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from decoylink import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(decoylink.__all__)

    def test_each_name_is_its_home_module_attribute(self):
        for name in decoylink.__all__:
            home = importlib.import_module(f"decoylink.{decoylink._HOME[name]}")
            value = getattr(decoylink, name)
            assert value is getattr(home, name), name
            # the table names the defining module, not one that imports the name
            assert getattr(value, "__module__", home.__name__) == home.__name__, name
            assert name in vars(decoylink)  # cached after the first lookup

    def test_moved_names_have_one_definition(self):
        assert decoylink.Axis is sweep.Axis is model.Axis
        assert decoylink.SweepSpec is sweep.SweepSpec is model.SweepSpec
        assert sweep.check_grid_size is model.check_grid_size
        assert sweep.MAX_GRID_POINTS is model.MAX_GRID_POINTS
        assert sweep.MU_POLICIES is model.MU_POLICIES
        for name in ("SCALAR_METRICS", "LINK_METRICS", "METRIC_NAMES", "AXES", "AXIS_NAMES"):
            assert getattr(bounds, name) is getattr(model, name), name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            decoylink.no_such_name
        assert not hasattr(decoylink, "Grid")  # public in bounds, not exported


def test_benchmark_probe_targets_resolve_after_cli_import():
    """Every span and count of ``benchmarks/probe.py`` resolves after ``import decoylink.cli``.

    ``spans.install`` patches only modules already in ``sys.modules``, so a
    target whose module the CLI loaded later would read 0.
    """
    targets = [*probe.SPANS.values(), *probe.COUNTS]
    assert len(targets) == 11
    code = (
        f"import sys\nsys.path.insert(0, {str(BENCHMARKS)!r})\nimport decoylink.cli\nimport spans\n"
        f"missing = [t for t in {targets!r} if not spans.install('decoylink', t, lambda fn: fn)]\n"
        "assert not missing, missing"
    )
    loaded_after(code)


def test_numbers_enter_through_one_boundary():
    """Only ``model`` shows a value through ``_shown``, and ``config`` converts no number
    itself: every float input goes through ``model.as_float``."""
    sources = {path.name: path.read_text() for path in (SRC / "decoylink").glob("*.py")}
    assert [name for name, text in sources.items() if "_shown" in text] == ["model.py"]
    assert not re.search(r"\bfloat\(", sources["config.py"])
    assert "OverflowError" not in sources["config.py"]
