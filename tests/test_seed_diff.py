"""Differential tests: the CLI and the intensity optimizer against the frozen seed code.

``benchmarks/reference/decoylink`` is the seed code, loaded here under the
package name ``decoylink_seed``. A derandomized strategy writes scenario
files, and each example runs ``cli.main`` of both trees on the same argv and
compares the exit code, stdout and stderr; this tree runs its grids in slabs
and writes them in chunks, each of a drawn size. Inputs whose output changed
on purpose (non-finite or NaN numbers, ``null`` fields, subnormal values,
intensities so small that ``mu*nu1 - nu1*nu1`` underflows, a repeated key)
are not drawn here; CHANGES.md lists them and they keep tests of their own.
A drawn ``contour`` node whose seed bisection ran out of steps away from the
target is ``ok`` in the seed code's output and ``not-converged`` in this
tree's; ``unconverged_contour`` marks it so in the seed code's output, after
checking that node's seed result at full precision.
``SEED_CASES`` is a fixed table of CLI cases compared the same way, with
any ``--output`` file, and ``python -m decoylink`` runs once in a process of
its own on each tree. A second strategy runs ``maximize_skr_over_mu`` of
both trees at random receivers and links. Two more tests draw intensities, transmittances and
error rates where numpy's vectorized exp, expm1 and log1p round differently
from the C library's: one compares ``link_table`` with ``evaluate_link``,
the other the optimizer with the seed code, bit for bit, so the array
kernel must call the C library as the scalar model does.
"""
import importlib
import importlib.util
import io
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import decoylink
from decoylink import cli, model, optimize, sweep
from decoylink.bounds import AXIS_NAMES, METRIC_NAMES, evaluate_link, link_table
from decoylink.errors import DecoyLinkError

REPO = Path(__file__).resolve().parents[1]
SEED_PACKAGE = REPO / "benchmarks" / "reference" / "decoylink"
sys.path.append(str(REPO / "benchmarks"))
import workloads  # noqa: E402


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
    section["background_error"] = draw(st.one_of(st.just(0.5), numbers(0.0, 1.0)))
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


# The drawn grids hold at most 27 nodes (the preset's 24); slabs of 1-7 nodes
# split them at every axis depth, and write chunks of 1-7 nodes drawn apart
# from the slabs end inside slabs, on their edges, or hold a whole slab.
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(runs(), st.integers(1, 7), st.integers(1, 7))
def test_cli_matches_the_seed_code(tmp_path_factory, drawn, slab_nodes, chunk_nodes):
    cfg, argv = drawn
    path = tmp_path_factory.mktemp("scenario") / "scenario.yaml"
    path.write_text(yaml.safe_dump(cfg))
    argv = [*argv, "--config", str(path)]
    with patch.object(sweep, "SLAB_NODES", slab_nodes), \
            patch.object(cli, "CHUNK_NODES", chunk_nodes):
        ours = run(cli.main, argv)
    theirs = run(seed_cli.main, argv)
    if argv[0] == "contour" and theirs[0] == 0:
        theirs = (theirs[0], unconverged_contour(theirs[1], path, float(argv[2])), *theirs[2:])
    assert ours == theirs


def unconverged_contour(out, path, target):
    """The seed code's ``contour`` stdout ``out``, with status ``not-converged`` at each
    node whose seed bisection ended more than ABS_TOLERANCE from the target.

    The seed code prints ``ok`` there; this tree says the bisection ran out
    of steps, and prints every other cell as the seed code does.
    """
    scenario = seed.config.load_scenario(str(path))
    axes = {ax.name: ax.values() for ax in scenario.sweep.axes}
    points = seed.optimize.trace_iso_qber_surface(
        axes["p_ap"], axes["intrinsic_error"], scenario.channel.loss_db, target,
        scenario.receiver, scenario.intensities.signal_mu,
    )
    header, *rows = out.splitlines(keepends=True)
    for i, point in enumerate(points):
        if point.feasible and not abs(point.achieved_qber - target) < optimize.ABS_TOLERANCE:
            assert rows[i].endswith(",ok\n")
            rows[i] = rows[i][:-len("ok\n")] + "not-converged\n"
    return header + "".join(rows)


@st.composite
def optimizer_inputs(draw):
    """(``ReceiverModel`` fields, loss in dB, nu1, max_iterations) of one search.

    nu1 = 0 reaches the decoy-pair rejection, and p_ap = 1 at the last
    detector or p_dc near 0.5 gains above 1.
    """
    raw = draw(st.lists(numbers(-0.3, 0.3), max_size=3))
    p_ap = [draw(numbers(0.0, 0.3)) for _ in raw]
    p_ap.append(draw(st.one_of(numbers(0.0, 0.3), st.just(1.0))))
    receiver = {
        "detectors": list(zip(p_ap, raw + [-math.fsum(raw)])),
        "dark_count_prob_total": draw(
            st.one_of(numbers(0.0, 1e-4), st.just(0.0), numbers(0.4999, 0.5))
        ),
        "intrinsic_error": draw(numbers(0.0, 0.2)),
        "detector_efficiency": draw(numbers(0.01, 1.0)),
    }
    nu1 = draw(st.one_of(numbers(1e-100, 0.6), st.just(0.0)))
    return receiver, draw(numbers(0.0, 60.0)), nu1, draw(st.integers(1, 200))


def search(package, receiver, loss_db, nu1, max_iterations):
    """``maximize_skr_over_mu`` of ``package``: (mu, skr, reason) with the floats as
    bits, or the exception as (type, message). The seed code takes the step
    limit as a ``SolverConfig``, this tree as ``optimize.MAX_ITERATIONS``."""
    types = package.model
    limit = ()
    if package is seed:
        limit = (package.optimize.SolverConfig(max_iterations=max_iterations),)
    try:
        with patch.object(optimize, "MAX_ITERATIONS", max_iterations):
            result = package.optimize.maximize_skr_over_mu(
                types.ReceiverModel(**{
                    **receiver,
                    "detectors": [types.DetectorUnit(p, b) for p, b in receiver["detectors"]],
                }),
                types.ChannelModel(transmission_loss_db=loss_db),
                nu1,
                types.ProtocolParams(),
                *limit,
            )
    except package.errors.DecoyLinkError as exc:
        return type(exc).__name__, str(exc)
    return result.mu.hex(), result.skr.hex(), result.reason


# About a third of the draws have a positive key and one in eight a rejected
# decoy pair; 200 examples keep as many ordinary links as the narrower draw
# gave at 100.
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(optimizer_inputs())
@example((
    # the gain is above 1 at the first seed point, so the decoy pair at
    # nu1 = 0 is never reached: no_positive_key, not a rejection
    {
        "detectors": [(1.0, 0.0)], "dark_count_prob_total": 0.4999995,
        "intrinsic_error": 0.02, "detector_efficiency": 1.0,
    },
    0.0, 0.0, 200,
))
def test_optimizer_matches_the_seed_code(drawn):
    assert search(decoylink, *drawn) == search(seed, *drawn)


def differing(np_fn, libm_fn, sign, lo, hi):
    """Sorted arguments x in [lo, hi) at which ``np_fn`` and ``libm_fn`` differ at ``sign * x``.

    The candidates are 20,000 uniform and 20,000 log-uniform draws, so that
    small arguments occur too; about 2-10 % of them differ.
    """
    rng = np.random.default_rng(2005)
    x = np.concatenate([
        rng.uniform(lo, hi, 20_000), np.exp(rng.uniform(math.log(lo), math.log(hi), 20_000))
    ])
    libm = np.array([libm_fn(v) for v in (sign * x).tolist()])
    return sorted(set(x[np_fn(sign * x) != libm].tolist()))


# The kernel's arguments of exp(nu1), exp(mu) and exp(-mu), expm1(-eta nu1)
# and expm1(-eta mu), and log1p(-e_det), whose argument is e' at p_ap = 0.
EXP_NU1 = differing(np.exp, math.exp, 1.0, 1e-3, 0.6)
EXP_MU = sorted(set(
    differing(np.exp, math.exp, 1.0, 0.05, 1.5) + differing(np.exp, math.exp, -1.0, 0.05, 1.5)
))
EXPM1_ETA = differing(np.expm1, math.expm1, -1.0, 1e-6, 1.5)
LOG1P_E = differing(np.log1p, math.log1p, -1.0, 1e-4, 0.2)


def transmittance_for(product, intensity):
    """An eta <= 1 whose float product with ``intensity`` is ``product``, or None."""
    eta = product / intensity
    for candidate in (eta, math.nextafter(eta, 0.0), math.nextafter(eta, 2.0)):
        if candidate * intensity == product and candidate <= 1.0:
            return candidate
    return None


@st.composite
def differing_links(draw, intensity):
    """(p_ap, e', p_dc, eta) with eta * ``intensity`` in EXPM1_ETA and e' in LOG1P_E."""
    products = [x for x in EXPM1_ETA if x <= intensity]
    assume(products)
    eta = transmittance_for(draw(st.sampled_from(products)), intensity)
    assume(eta is not None)
    p_ap = draw(st.one_of(st.just(0.0), numbers(0.0, 0.3)))
    p_dc = draw(st.one_of(st.just(0.0), numbers(0.0, 1e-4)))
    return p_ap, draw(st.sampled_from(LOG1P_E)), p_dc, eta


@st.composite
def differing_nodes(draw):
    """(p_ap, e', p_dc, eta, mu, nu1) of one link_table node, at 0 dB."""
    mu = draw(st.sampled_from(EXP_MU))
    below = [v for v in EXP_NU1 if v < mu]
    assume(below)
    nu1 = draw(st.sampled_from(below))
    return (*draw(differing_links(mu)), mu, nu1)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.lists(differing_nodes(), min_size=1, max_size=8))
def test_kernel_matches_the_scalar_model_where_numpy_and_libm_differ(nodes):
    table = link_table(*map(np.array, zip(*nodes)), 0.5, model.ProtocolParams())
    for i, (p_ap, e_prime, p_dc, eta, mu, nu1) in enumerate(nodes):
        receiver = model.ReceiverModel(
            detectors=(model.DetectorUnit(p_ap),), dark_count_prob_total=p_dc,
            intrinsic_error=e_prime, detector_efficiency=eta,
        )
        try:
            metrics = evaluate_link(
                receiver, model.ChannelModel(transmission_loss_db=0.0),
                model.IntensitySet(mu, nu1), model.ProtocolParams(),
            )
        except DecoyLinkError as exc:
            assert table.domain_error[i]
            assert str(table.error(i)) == str(exc)
            continue
        assert not table.domain_error[i]
        assert table.infeasible[i] == (metrics.reason is not None)
        estimate = metrics.estimate
        expected = {
            "y0": metrics.y0_measured, "q_mu": metrics.q_mu, "e_mu": metrics.e_mu,
            "q_nu1": metrics.q_nu1, "e_nu1": metrics.e_nu1, "skr_lower": metrics.skr_lower,
            "skr_approx": metrics.skr_approx,
        }
        if estimate is not None:
            expected.update(
                y1_lower=estimate.y1_lower, e1_upper=estimate.e1_upper,
                q1_lower=estimate.q1_lower, skr_raw=metrics.skr_raw,
            )
        for name, value in expected.items():
            assert float(table.values[name][i]).hex() == float(value).hex(), name


@st.composite
def differing_searches(draw):
    """The arguments of ``search`` at 0 dB, with nu1 in EXP_NU1 and eta nu1 in EXPM1_ETA."""
    nu1 = draw(st.sampled_from(EXP_NU1))
    p_ap, e_prime, p_dc, eta = draw(differing_links(nu1))
    receiver = {
        "detectors": [(p_ap, 0.0)],
        "dark_count_prob_total": p_dc,
        "intrinsic_error": e_prime,
        "detector_efficiency": eta,
    }
    return receiver, 0.0, nu1, draw(st.integers(1, 200))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(differing_searches())
def test_optimizer_matches_the_seed_code_where_numpy_and_libm_differ(drawn):
    assert search(decoylink, *drawn) == search(seed, *drawn)


# The CLI cases compared byte for byte with the seed code, label -> (scenario
# YAML or None, argv). CONFIG and OUTPUT stand for the scenario file and an
# output file of each tree's own.
CONFIG, OUTPUT = "{config}", "{output}"
EVERY_FIELD = """\
receiver:
  detectors:
    - {afterpulse_prob: 0.01, bias: 0.25}
    - {afterpulse_prob: 0.02, bias: -0.25}
  dark_count_prob_per_detector: 3.0e-7
  intrinsic_error: 0.015
  background_error: 0.5
  detector_efficiency: 0.12
channel: {attenuation_db_per_km: 0.2, distance_km: 40.0}
intensities: {signal_mu: 0.5, weak_decoy_nu1: 0.05, vacuum_decoy: 0.0}
protocol: {sifting_factor: 0.5, ec_efficiency: 1.2}
sweep:
  axes:
    - {name: p_AP, min: 1.0e-4, max: 0.05, count: 4, spacing: log}
    - {name: distance_km, min: 0.0, max: 60.0, count: 3, spacing: linear}
  outputs: [skr_lower, e_mu, q_mu]
  mu_policy: optimize-per-point
"""
# identical detectors with per-detector dark counts over a distance
IDENTICAL = """\
receiver: {num_detectors: 4, afterpulse_prob: 0.008, dark_count_prob_per_detector: 1.5e-7}
channel: {distance_km: 25.0}
"""
WORKLOADS = [workloads.generate(name, 1) for name in workloads.NAMES]
E0_RECEIVER = """\
receiver: {num_detectors: 2, afterpulse_prob: 0.01, dark_count_prob_total: 6.0e-7,
           intrinsic_error: 0.02, background_error: 0.27}
"""
SEED_CASES = {
    "report.default": (None, ["report"]),
    "report-csv.default": (None, ["report", "--format", "csv"]),
    "optimal-mu.default": (None, ["optimal-mu"]),
    # an overdriven signal at 40 dB: decoy estimation is infeasible
    **{label: ("""\
receiver: {num_detectors: 2, afterpulse_prob: 0.05, dark_count_prob_total: 6.0e-7}
channel: {loss_db: 40.0}
intensities: {signal_mu: 6.0, weak_decoy_nu1: 0.05}
""", argv) for label, argv in (
        ("report.infeasible", ["report", "--config", CONFIG]),
        ("report-csv.infeasible", ["report", "--format", "csv", "--config", CONFIG]),
    )},
    # the preset at its defaults: 360 nodes, one slab of the lockstep optimizer
    "preset.default": (None, ["skr-vs-afterpulse"]),
    # one slab of 1800 nodes, written in 6 chunks of one curve each, with p_ap > 1
    # rejected
    "preset.blocks": (None, ["skr-vs-afterpulse", "--points", "300", "--pap-max", "1.5"]),
    # p_ap values where the detectors' weighted afterpulse sum overflows
    "preset.huge-pap": (None, ["skr-vs-afterpulse", "--pap-max", "1e308", "--points", "3"]),
    "sweep.huge-pap": ("""\
sweep:
  axes:
    - {name: p_ap, min: 0.5, max: 1.0e+308, count: 3, spacing: log}
""", ["sweep", "--config", CONFIG]),
    # a weight 1 + bias above 1 times a p_ap near the float maximum overflows
    "sweep.huge-pap-biased": ("""\
receiver:
  detectors:
    - {afterpulse_prob: 0.03, bias: 0.4}
    - {afterpulse_prob: 0.01, bias: -0.4}
sweep:
  axes:
    - {name: p_ap, min: 1.0e+300, max: 1.7e+308, count: 4, spacing: log}
  outputs: [p_ap, e_detector, visibility, baseline_error_change]
""", ["sweep", "--config", CONFIG]),
    # the optimizer's bracket and the seed grid overflow at the rejected nu1 nodes
    "sweep.huge-nu1": ("""\
sweep:
  axes:
    - {name: weak_decoy_nu1, min: 0.0, max: 1.0e+308, count: 3}
  mu_policy: optimize-per-point
""", ["sweep", "--config", CONFIG]),
    # attenuation times distance overflows to an infinite loss
    "sweep.huge-loss": ("""\
channel: {attenuation_db_per_km: 1.0e+300}
sweep:
  axes:
    - {name: distance_km, min: 0.0, max: 1.0e+10, count: 3}
""", ["sweep", "--config", CONFIG]),
    # nodes rejected on several axes read the first of p_ap, intrinsic_error,
    # dark_count_prob, whatever the order of the sweep's axes
    "sweep.mixed-fixed": ("""\
sweep:
  axes:
    - {name: dark_count_prob, min: 0.0, max: 1.0, count: 3}
    - {name: intrinsic_error, min: 0.0, max: 1.0, count: 3}
    - {name: p_ap, min: 0.0, max: 1.5, count: 4}
  outputs: [visibility, baseline_error_change, q_mu, skr_raw]
""", ["sweep", "--config", CONFIG]),
    "sweep.mixed-optimize": ("""\
sweep:
  axes:
    - {name: weak_decoy_nu1, min: 0.0, max: 0.6, count: 7}
    - {name: dark_count_prob, min: 0.0, max: 1.0, count: 3}
    - {name: p_ap, min: 0.0, max: 1.5, count: 4}
  outputs: [p_ap, baseline_error_change, skr_lower, e_mu]
  mu_policy: optimize-per-point
""", ["sweep", "--config", CONFIG]),
    # every rung of the first-failure ladder: e' = 0 with baseline_error_change
    # requested, p_ap = 1.5, nu1 >= mu, and the optimizer's decoy pair at nu1 = 0
    "sweep.ladder": ("""\
intensities: {signal_mu: 0.5, weak_decoy_nu1: 0.038}
sweep:
  axes:
    - {name: intrinsic_error, min: 0.0, max: 0.04, count: 3}
    - {name: p_ap, min: 0.0, max: 1.5, count: 4}
    - {name: weak_decoy_nu1, min: 0.0, max: 0.6, count: 4}
  outputs: [visibility, baseline_error_change, e_detector, skr_lower, y1_lower]
  mu_policy: optimize-per-point
""", ["sweep", "--config", CONFIG]),
    # all 15 outputs under the optimizer: 135 nodes, one slab whose seed grid takes
    # 5 slices of 32 nodes, the last partial; p_ap > 1 rejected, the decoy pair
    # rejected at nu1 = 0, and gains above 1 at seed points of the lossless nodes
    "sweep.optimize-15": ("""\
receiver: {detector_efficiency: 1.0}
intensities: {signal_mu: 1.0, weak_decoy_nu1: 0.1}
sweep:
  axes:
    - {name: loss_db, min: 0.0, max: 40.0, count: 5}
    - {name: p_ap, min: 0.0, max: 1.5, count: 9}
    - {name: weak_decoy_nu1, min: 0.0, max: 0.4, count: 3}
  outputs: [p_ap, e_detector, baseline_error_change, visibility, y0, q_mu, e_mu,
            q_nu1, e_nu1, y1_lower, e1_upper, q1_lower, skr_raw, skr_lower, skr_approx]
  mu_policy: optimize-per-point
""", ["sweep", "--config", CONFIG]),
    # 2100 nodes under the optimizer, p_ap > 1 rejected: each golden-section step
    # probes the inner point of every live node, more than optimize._SEED_SLICE_ROWS
    # (2048) until nodes converge, so it runs in two kernel calls
    "sweep.optimize-split": ("""\
sweep:
  axes:
    - {name: loss_db, min: 0.0, max: 40.0, count: 30}
    - {name: p_ap, min: 1.0e-4, max: 1.5, count: 70, spacing: log}
  outputs: [skr_lower, e1_upper, baseline_error_change]
  mu_policy: optimize-per-point
""", ["sweep", "--config", CONFIG]),
    # 1200 nodes under the optimizer, whose seed-grid boxes of 1 x 10 x 3 nodes cut
    # the weak_decoy_nu1 axis; the decoy pair is rejected at the 30 nodes with nu1 = 0
    "sweep.optimize-nu1-boxes": ("""\
sweep:
  axes:
    - {name: p_ap, min: 1.0e-4, max: 0.2, count: 10, spacing: log}
    - {name: weak_decoy_nu1, min: 0.0, max: 0.3, count: 40}
    - {name: loss_db, min: 0.0, max: 40.0, count: 3}
  outputs: [skr_lower, e1_upper, q1_lower]
  mu_policy: optimize-per-point
""", ["sweep", "--config", CONFIG]),
    # all 15 outputs at fixed mu over 3 axes whose inner two hold 600 nodes, more
    # than cli.CHUNK_NODES (512): one slab, written in chunks of 25 and 5 p_ap values
    # that split the middle axis, with e' = 0 and p_ap > 1 rejected
    "sweep.slabs-3d": ("""\
sweep:
  axes:
    - {name: intrinsic_error, min: 0.0, max: 0.04, count: 3}
    - {name: p_ap, min: 1.0e-4, max: 1.5, count: 30, spacing: log}
    - {name: loss_db, min: 0.0, max: 60.0, count: 20}
  outputs: [p_ap, e_detector, baseline_error_change, visibility, y0, q_mu, e_mu,
            q_nu1, e_nu1, y1_lower, e1_upper, q1_lower, skr_raw, skr_lower, skr_approx]
""", ["sweep", "--config", CONFIG]),
    # all 15 outputs at fixed mu over 15,000 nodes, more than sweep.SLAB_NODES
    # (8192): slabs of 2, 2 and 1 intrinsic_error values split the outer axis, each
    # written in chunks of 10 p_ap values; e' = 0 and p_ap > 1 rejected
    "sweep.slabs-15k": ("""\
sweep:
  axes:
    - {name: intrinsic_error, min: 0.0, max: 0.04, count: 5}
    - {name: p_ap, min: 1.0e-4, max: 1.5, count: 60, spacing: log}
    - {name: loss_db, min: 0.0, max: 60.0, count: 50}
  outputs: [p_ap, e_detector, baseline_error_change, visibility, y0, q_mu, e_mu,
            q_nu1, e_nu1, y1_lower, e1_upper, q1_lower, skr_raw, skr_lower, skr_approx]
""", ["sweep", "--config", CONFIG]),
    # one axis of 1300 nodes: one slab, written in chunks of 512, 512 and 276
    "sweep.slabs-1d": ("""\
sweep:
  axes:
    - {name: loss_db, min: 0.0, max: 80.0, count: 1300}
  outputs: [skr_lower, e_mu, y1_lower, visibility]
""", ["sweep", "--config", CONFIG]),
    # 1600 contour nodes in 4 write chunks, 1042 of them infeasible
    "contour.40x40": ("""\
receiver: {intrinsic_error: 0.02}
channel: {loss_db: 10.5}
sweep:
  axes:
    - {name: p_ap, min: 0.0, max: 0.1, count: 40}
    - {name: intrinsic_error, min: 0.0, max: 0.08, count: 40}
""", ["contour", "--config", CONFIG, "--target-qber", "0.05"]),
    # a loss_db cell of -0, the axes listed intrinsic_error first, a one-value
    # p_ap axis and a biased two-detector array
    "contour.edge": ("""\
receiver:
  detectors:
    - {afterpulse_prob: 0.03, bias: 0.4}
    - {afterpulse_prob: 0.01, bias: -0.4}
channel: {loss_db: -0.0}
sweep:
  axes:
    - {name: intrinsic_error, min: 0.0, max: 0.08, count: 5}
    - {name: p_ap, min: 0.0, max: 0.0, count: 1}
""", ["contour", "--config", CONFIG, "--target-qber", "0.05"]),
    # every config field, with values no benchmark workload sets
    "sweep.every-field": (EVERY_FIELD, ["sweep", "--config", CONFIG]),
    # each scenario's report, report as CSV and optimal mu
    **{f"{command}.{name}": (text, argv) for name, text in (
        ("every-field", EVERY_FIELD),
        ("identical", IDENTICAL),
        *((w.name, w.config_text()) for w in WORKLOADS),
    ) for command, argv in (
        ("report", ["report", "--config", CONFIG]),
        ("report-csv", ["report", "--format", "csv", "--config", CONFIG]),
        ("optimal-mu", ["optimal-mu", "--config", CONFIG]),
    )},
    # the benchmark's workloads at seed 1, written with --output
    **{w.name: (w.config_text(), w.argv(CONFIG, OUTPUT)) for w in WORKLOADS},
    # a background error other than 1/2 through every engine path
    **{f"e0.{policy}": (E0_RECEIVER + f"""\
sweep:
  axes:
    - {{name: p_ap, min: 0.0, max: 1.5, count: 5}}
    - {{name: loss_db, min: 0.0, max: 40.0, count: 3}}
  outputs: [e_detector, baseline_error_change, visibility, e_mu, e1_upper, skr_lower]
  mu_policy: {policy}
""", ["sweep", "--config", CONFIG]) for policy in model.MU_POLICIES},
    "e0.contour": (E0_RECEIVER + """\
channel: {loss_db: 10.5}
sweep:
  axes:
    - {name: p_ap, min: 0.0, max: 0.1, count: 6}
    - {name: intrinsic_error, min: 0.0, max: 0.08, count: 6}
""", ["contour", "--config", CONFIG]),
    **{f"e0.{argv[0]}": (E0_RECEIVER, [*argv, "--config", CONFIG]) for argv in (
        ["report"], ["optimal-mu"], ["skr-vs-afterpulse", "--points", "8"],
    )},
}


@pytest.mark.parametrize("label", SEED_CASES)
def test_case_matches_the_seed_code(tmp_path, label):
    """Exit code, stdout, stderr, warnings and any --output file, as both trees give them.

    This tree may raise no warning, as under ``PYTHONWARNINGS=error::RuntimeWarning``.
    """
    text, argv = SEED_CASES[label]
    config = tmp_path / "scenario.yaml"
    if text is not None:
        config.write_text(text)

    def outcome(tree, main):
        output = tmp_path / f"{tree}.out"
        args = [str(config) if a == CONFIG else str(output) if a == OUTPUT else a for a in argv]
        return run(main, args), output.read_bytes() if OUTPUT in argv else None

    (code, out, err, caught), written = outcome("src", cli.main)
    assert ((code, out, err, caught), written) == outcome("seed", seed_cli.main)
    assert caught == []


def test_python_m_decoylink_matches_the_seed_code():
    """``python -m decoylink report`` in a process of its own on each tree: the same result."""
    ours, theirs = (
        subprocess.run(
            [sys.executable, "-m", "decoylink", "report"], capture_output=True,
            env={**os.environ, "PYTHONPATH": str(REPO / tree),
                 "PYTHONWARNINGS": "error::RuntimeWarning"},
        )
        for tree in ("src", "benchmarks/reference")
    )
    assert ours.returncode == 0
    assert (ours.stdout, ours.stderr) == (theirs.stdout, theirs.stderr)
    assert theirs.returncode == 0
