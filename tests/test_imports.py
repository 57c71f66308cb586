"""What importing the package loads and builds, and the contract of its exports.

``decoylink/__init__`` resolves each public name on first use (PEP 562), so
``import decoylink`` loads no submodule, and parsing a scenario loads neither
numpy nor the array engine. The footprint tests run in a fresh interpreter
each, since this one has loaded everything already. The value types are
frozen dataclasses, and every result record is a NamedTuple, which is far
cheaper to build at import.
"""
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

import decoylink
from decoylink import bounds, config, model, optimize, sweep
from decoylink.errors import NoSolutionError

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


def test_only_the_value_types_are_dataclasses():
    """After ``import decoylink.cli`` the package's dataclasses are the seven value types."""
    import decoylink.cli  # noqa: F401

    built = {
        f"{name.removeprefix('decoylink.')}.{value.__name__}"
        for name, module in list(sys.modules.items()) if name.startswith("decoylink.")
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == name and dataclasses.is_dataclass(value)
    }
    assert built == {
        "model.DetectorUnit", "model.ReceiverModel", "model.ChannelModel", "model.IntensitySet",
        "model.ProtocolParams", "model.Axis", "model.SweepSpec",
    }


def _table():
    return bounds.LinkTable(
        {"q_mu": np.array([0.5])}, np.array([0.48]), np.array([0.038]), np.array([False]),
        np.array([False]), np.array([True]), np.array([False]),
    )


_TABLE_REPR = (
    "LinkTable(values={'q_mu': array([0.5])}, mu=array([0.48]), nu1=array([0.038]), "
    "gain_error=array([False]), domain_error=array([False]), infeasible=array([ True]), "
    "clamped=array([False]))"
)

# Each result record type: its fields in order, their defaults, a sample
# instance (built on use) and that sample's repr, as they were when the nine
# records other than ResultRecord and ContourPoint were frozen dataclasses.
RECORDS = [
    pytest.param(
        bounds.SinglePhotonEstimate, ("y1_lower", "e1_upper", "q1_lower", "clamped"),
        {"clamped": False}, lambda: bounds.SinglePhotonEstimate(0.25, 0.5, 0.125, True),
        "SinglePhotonEstimate(y1_lower=0.25, e1_upper=0.5, q1_lower=0.125, clamped=True)",
        id="SinglePhotonEstimate",
    ),
    pytest.param(
        bounds.LinkMetrics,
        ("q_mu", "e_mu", "q_nu1", "e_nu1", "y0_measured", "estimate", "skr_lower", "skr_raw",
         "skr_approx", "reason"),
        {"reason": None},
        lambda: bounds.LinkMetrics(
            0.01, 0.02, 0.001, 0.03, 1e-06, bounds.SinglePhotonEstimate(0.25, 0.5, 0.125),
            0.001, 0.002, 0.003,
        ),
        "LinkMetrics(q_mu=0.01, e_mu=0.02, q_nu1=0.001, e_nu1=0.03, y0_measured=1e-06, "
        "estimate=SinglePhotonEstimate(y1_lower=0.25, e1_upper=0.5, q1_lower=0.125, "
        "clamped=False), skr_lower=0.001, skr_raw=0.002, skr_approx=0.003, reason=None)",
        id="LinkMetrics",
    ),
    pytest.param(
        bounds.LinkTable,
        ("values", "mu", "nu1", "gain_error", "domain_error", "infeasible", "clamped"), {},
        _table, _TABLE_REPR, id="LinkTable",
    ),
    pytest.param(
        optimize.OptimalMu, ("mu", "residual", "boundary"), {"boundary": False},
        lambda: optimize.OptimalMu(1.0, 0.0, True),
        "OptimalMu(mu=1.0, residual=0.0, boundary=True)", id="OptimalMu",
    ),
    pytest.param(
        optimize.MaximizeResult, ("mu", "skr", "reason"), {"reason": None},
        lambda: optimize.MaximizeResult(0.48, 0.0, "no_positive_key"),
        "MaximizeResult(mu=0.48, skr=0.0, reason='no_positive_key')", id="MaximizeResult",
    ),
    pytest.param(
        optimize.MuSearch, ("table", "errors"), {},
        lambda: optimize.MuSearch(_table(), {0: NoSolutionError("no bracket")}),
        f"MuSearch(table={_TABLE_REPR}, errors={{0: NoSolutionError('no bracket')}})",
        id="MuSearch",
    ),
    pytest.param(
        optimize.ThresholdSearch, ("dark_count", "achieved", "feasible", "converged"), {},
        lambda: optimize.ThresholdSearch(
            np.array([1e-06, np.nan]), np.array([0.07, np.nan]), np.array([True, False]),
            np.array([True, True]),
        ),
        "ThresholdSearch(dark_count=array([1.e-06,    nan]), achieved=array([0.07,  nan]), "
        "feasible=array([ True, False]), converged=array([ True,  True]))",
        id="ThresholdSearch",
    ),
    pytest.param(
        config.Scenario, ("receiver", "channel", "intensities", "protocol", "sweep"),
        {"sweep": None}, lambda: config.parse_scenario(None),
        "Scenario(receiver=ReceiverModel(detectors=(DetectorUnit(afterpulse_prob=0.0, "
        "bias=0.0), DetectorUnit(afterpulse_prob=0.0, bias=0.0)), "
        "dark_count_prob_total=6e-07, intrinsic_error=0.02, background_error=0.5, "
        "detector_efficiency=0.1), channel=ChannelModel(attenuation_db_per_km=0.21, "
        "distance_km=0.0, transmission_loss_db=None), intensities=IntensitySet("
        "signal_mu=0.48, weak_decoy_nu1=0.038, vacuum_decoy=0.0), protocol=ProtocolParams("
        "sifting_factor=0.5, ec_efficiency=1.16), sweep=None)",
        id="Scenario",
    ),
    pytest.param(
        sweep.SweepBlock, ("axis_index", "outputs", "mu_opt", "statuses", "reasons"), {},
        lambda: sweep.SweepBlock(
            (np.array([0, 1]),), ((np.array([0.5, 0.25]), np.array([False, True])),), None,
            np.array(["ok", "infeasible"], dtype=object),
            np.array([None, "estimation_infeasible"], dtype=object),
        ),
        "SweepBlock(axis_index=(array([0, 1]),), outputs=((array([0.5 , 0.25]), "
        "array([False,  True])),), mu_opt=None, statuses=array(['ok', 'infeasible'], "
        "dtype=object), reasons=array([None, 'estimation_infeasible'], dtype=object))",
        id="SweepBlock",
    ),
    pytest.param(
        sweep.ResultRecord, ("axis_values", "values", "mu_opt", "status", "reason"),
        {"reason": None}, lambda: sweep.ResultRecord((0.01, 10.0), (0.5, None), None, "ok"),
        "ResultRecord(axis_values=(0.01, 10.0), values=(0.5, None), mu_opt=None, "
        "status='ok', reason=None)",
        id="ResultRecord",
    ),
    pytest.param(
        optimize.ContourPoint,
        ("p_ap", "intrinsic_error", "loss_db", "dark_count_prob", "achieved_qber", "feasible",
         "converged"),
        {"converged": True}, lambda: optimize.ContourPoint(0.01, 0.02, 10.0, 1e-06, 0.07, True),
        "ContourPoint(p_ap=0.01, intrinsic_error=0.02, loss_db=10.0, dark_count_prob=1e-06, "
        "achieved_qber=0.07, feasible=True, converged=True)",
        id="ContourPoint",
    ),
]


@pytest.mark.parametrize("record_type, fields, defaults, build, text", RECORDS)
def test_result_record_api(record_type, fields, defaults, build, text):
    """Each result record keeps its fields, defaults and repr, stays immutable, and
    ``_replace`` keeps its type."""
    assert record_type._fields == fields
    assert record_type._field_defaults == defaults
    sample = build()
    assert type(sample) is record_type
    assert repr(sample) == text
    with pytest.raises(AttributeError):
        setattr(sample, fields[0], None)
    assert sample == tuple(sample)
    last = fields[-1]
    changed = sample._replace(**{last: getattr(sample, last)})
    assert type(changed) is record_type and repr(changed) == text


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
