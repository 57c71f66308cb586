"""Differential tests: the CLI and the intensity optimizer against the frozen seed code.

``benchmarks/reference/decoylink`` is the seed code, loaded here under the
package name ``decoylink_seed``. A derandomized strategy writes scenario
files, and each example runs ``cli.main`` of both trees on the same argv and
compares the exit code, stdout and stderr; this tree runs its grids in slabs
of a drawn size. Inputs whose output changed on purpose (non-finite or NaN
numbers, ``null`` fields, subnormal values, intensities so small that
``mu*nu1 - nu1*nu1`` underflows, a repeated key) are not drawn here;
CHANGES.md lists them and they keep tests of their own. A second strategy
runs ``maximize_skr_over_mu`` of both trees at random receivers and links.
"""
import importlib
import importlib.util
import io
import math
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import decoylink
from decoylink import cli, sweep
from decoylink.bounds import AXIS_NAMES, METRIC_NAMES

SEED_PACKAGE = Path(__file__).resolve().parents[1] / "benchmarks" / "reference" / "decoylink"


def _load_seed_package():
    spec = importlib.util.spec_from_file_location(
        "decoylink_seed", SEED_PACKAGE / "__init__.py",
        submodule_search_locations=[str(SEED_PACKAGE)],
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return package


seed = _load_seed_package()
seed_cli = importlib.import_module("decoylink_seed.cli")


def numbers(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, allow_subnormal=False)


def intensities(hi):
    """0, or a number in [1e-100, hi]: no product of two of them underflows."""
    return st.one_of(st.just(0.0), numbers(1e-100, hi))


# Axis name -> range its endpoints are drawn from; most reach past what the
# model accepts, so rejected nodes occur too.
AXIS_RANGES = {
    "p_ap": (0.0, 1.2),
    "loss_db": (0.0, 60.0),
    "distance_km": (0.0, 250.0),
    "intrinsic_error": (0.0, 1.0),
    "dark_count_prob": (0.0, 1e-3),
    "signal_mu": (0.0, 1.5),
    "weak_decoy_nu1": (0.0, 0.6),
}
assert set(AXIS_RANGES) == set(AXIS_NAMES)


@st.composite
def receivers(draw):
    section = {}
    if draw(st.booleans()):
        raw = draw(st.lists(numbers(-0.5, 0.5), max_size=3))
        section["detectors"] = [
            {"afterpulse_prob": draw(numbers(0.0, 0.3)), "bias": bias}
            for bias in raw + [-math.fsum(raw)]
        ]
    else:
        section["num_detectors"] = draw(st.integers(1, 4))
        section["afterpulse_prob"] = draw(numbers(0.0, 0.3))
    dark = draw(st.sampled_from(["dark_count_prob_total", "dark_count_prob_per_detector"]))
    section[dark] = draw(numbers(0.0, 1e-4))
    section["intrinsic_error"] = draw(numbers(0.0, 0.2))
    section["detector_efficiency"] = draw(numbers(0.01, 1.0))
    return section


@st.composite
def axes(draw, names):
    drawn = []
    for name in names:
        lo, hi = AXIS_RANGES[name]
        spacing = draw(st.sampled_from(["linear", "log"]))
        if spacing == "log":
            lo = max(lo, hi * 1e-4)
        ends = sorted(draw(st.lists(numbers(lo, hi), min_size=2, max_size=2)))
        drawn.append(
            {"name": name, "min": ends[0], "max": ends[1], "count": draw(st.integers(1, 3)),
             "spacing": spacing}
        )
    return drawn


@st.composite
def runs(draw):
    """(scenario mapping, CLI arguments without --config)."""
    command = draw(st.sampled_from(
        ["sweep", "contour", "report", "report-csv", "optimal-mu", "skr-vs-afterpulse"]
    ))
    cfg = {"receiver": draw(receivers())}
    if draw(st.booleans()):
        cfg["channel"] = {"loss_db": draw(numbers(0.0, 60.0))}
    else:
        cfg["channel"] = {
            "distance_km": draw(numbers(0.0, 250.0)),
            "attenuation_db_per_km": draw(numbers(0.15, 0.3)),
        }
    nu1, mu = sorted(draw(st.lists(intensities(1.5), min_size=2, max_size=2)))
    cfg["intensities"] = {"signal_mu": mu, "weak_decoy_nu1": nu1}
    if command == "contour":
        names = draw(st.permutations(["p_ap", "intrinsic_error"]))
        cfg["sweep"] = {"axes": draw(axes(names))}
        target = draw(st.one_of(numbers(0.005, 0.2), numbers(0.0, 0.6)))
        return cfg, ["contour", "--target-qber", repr(target)]
    if command == "sweep":
        names = draw(st.lists(st.sampled_from(AXIS_NAMES), min_size=1, max_size=3, unique=True))
        cfg["sweep"] = {
            "axes": draw(axes(names)),
            "outputs": draw(st.lists(st.sampled_from(METRIC_NAMES), min_size=1, max_size=4)),
            "mu_policy": draw(st.sampled_from(["fixed", "optimize-per-point"])),
        }
        return cfg, ["sweep"]
    if command == "skr-vs-afterpulse":
        # a log-uniform lowest p_ap, and a highest one up to 2.5 decades above
        # it or half a decade below it (exit 2); the range can pass p_ap = 1
        pap_min = 10.0 ** draw(numbers(-6.0, 0.0))
        pap_max = pap_min * 10.0 ** draw(numbers(-0.5, 2.5))
        points = str(draw(st.integers(1, 4)))
        return cfg, [command, "--points", points, "--pap-min", repr(pap_min),
                     "--pap-max", repr(pap_max)]
    if command == "report-csv":
        return cfg, ["report", "--format", "csv"]
    return cfg, [command]


def run(main, argv):
    """(exit code, stdout, stderr, warnings) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


# The drawn grids hold at most 27 nodes; slabs of 1-7 nodes split them at
# every axis depth.
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(runs(), st.integers(1, 7))
def test_cli_matches_the_seed_code(tmp_path_factory, drawn, block_nodes):
    cfg, argv = drawn
    path = tmp_path_factory.mktemp("scenario") / "scenario.yaml"
    path.write_text(yaml.safe_dump(cfg))
    argv = [*argv, "--config", str(path)]
    with patch.object(sweep, "BLOCK_NODES", block_nodes):
        assert run(cli.main, argv) == run(seed_cli.main, argv)


@st.composite
def optimizer_inputs(draw):
    """(``ReceiverModel`` fields, loss in dB, nu1, max_iterations) of one search."""
    raw = draw(st.lists(numbers(-0.3, 0.3), max_size=3))
    receiver = {
        "detectors": [(draw(numbers(0.0, 0.3)), bias) for bias in raw + [-math.fsum(raw)]],
        "dark_count_prob_total": draw(numbers(0.0, 1e-4)),
        "intrinsic_error": draw(numbers(0.0, 0.2)),
        "detector_efficiency": draw(numbers(0.01, 1.0)),
    }
    nu1 = draw(numbers(1e-100, 0.6))
    return receiver, draw(numbers(0.0, 60.0)), nu1, draw(st.integers(1, 200))


def search(package, receiver, loss_db, nu1, max_iterations):
    """``maximize_skr_over_mu`` of ``package``: (mu, skr, reason) with the floats as
    bits, or the exception as (type, message)."""
    types = package.model
    try:
        result = package.optimize.maximize_skr_over_mu(
            types.ReceiverModel(**{
                **receiver,
                "detectors": [types.DetectorUnit(p, bias) for p, bias in receiver["detectors"]],
            }),
            types.ChannelModel(transmission_loss_db=loss_db),
            nu1,
            types.ProtocolParams(),
            package.optimize.SolverConfig(max_iterations=max_iterations),
        )
    except package.errors.DecoyLinkError as exc:
        return type(exc).__name__, str(exc)
    return result.mu.hex(), result.skr.hex(), result.reason


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(optimizer_inputs())
def test_optimizer_matches_the_seed_code(drawn):
    assert search(decoylink, *drawn) == search(seed, *drawn)
