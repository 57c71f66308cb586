"""Shared test helpers."""
import csv
import gc
import io
import math

import pytest

from decoylink import DetectorUnit, ReceiverModel, qber_i, run_sweep, yield_i


@pytest.fixture(autouse=True)
def collector_state_kept():
    """Fail a test that leaves the cyclic garbage collector on or off, or with more or
    fewer frozen objects, than it found it.

    ``run_sweep`` and ``trace_iso_qber_surface`` build their records with the
    collector off (``bounds.record_list``); a build that left it off would
    change how every later test runs. Only the program
    entry ``cli.run`` freezes the collector, so every test that calls
    ``cli.main`` checks that ``main`` freezes nothing.
    """
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    yield
    assert gc.isenabled() == enabled, "the test left the cyclic garbage collector " + (
        "off" if enabled else "on"
    )
    assert gc.get_freeze_count() == frozen, "the test froze or unfroze the cyclic collector"


def _poisson_mixture(receiver, channel, x):
    """(sum_i Y_i P_i, sum_i e_i Y_i P_i) over the photon-number yields.

    P_i = e^-x x^i / i! is the Poisson weight of intensity x. The sums are
    exact (``fsum``) over terms that stop once the weights, past their
    peak, fall below 1e-300.
    """
    gains, errors = [], []
    weight = math.exp(-x)
    i = 0
    while True:
        y = yield_i(receiver, channel, i)
        gains.append(y * weight)
        errors.append(qber_i(receiver, channel, i) * y * weight if y > 0.0 else 0.0)
        i += 1
        weight = weight * x / i
        if i > x and weight < 1e-300:
            return math.fsum(gains), math.fsum(errors)


@pytest.fixture
def poisson_mixture():
    return _poisson_mixture


def _random_receiver(rng):
    """A biased array of 1-4 detectors (biases summing to zero) with random noise."""
    n = rng.randint(1, 4)
    raw = [rng.uniform(-0.3, 0.3) for _ in range(n - 1)]
    return ReceiverModel(
        tuple(DetectorUnit(rng.uniform(0.0, 0.2), bias) for bias in raw + [-math.fsum(raw)]),
        dark_count_prob_total=rng.uniform(0.0, 1e-5),
        intrinsic_error=rng.uniform(0.0, 0.1),
        detector_efficiency=rng.uniform(0.01, 1.0),
    )


@pytest.fixture
def random_receiver():
    return _random_receiver


def _render_sweep(spec, lead=()):
    """The ``sweep`` CSV rows of ``run_sweep(spec)``, each after the cells ``lead``.

    Rendered without the CLI: ``csv.writer`` rows of ``format(v, '.10g')``,
    with '' for None.
    """
    optimized = spec.mu_policy == "optimize-per-point"

    def cell(value):
        return "" if value is None else format(value, ".10g")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for r in run_sweep(spec):
        writer.writerow(
            [*lead, *map(cell, r.axis_values), *[cell(r.mu_opt)] * optimized,
             *map(cell, r.values), r.status, r.reason or ""]
        )
    return buf.getvalue()


def _sweep_csv(spec):
    """The whole ``sweep`` CSV of ``spec``, header included, rendered without the CLI."""
    optimized = spec.mu_policy == "optimize-per-point"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(
        [*spec.axis_names, *["mu_opt"] * optimized, *spec.outputs, "status", "reason"]
    )
    return buf.getvalue() + _render_sweep(spec)


@pytest.fixture
def render_sweep():
    return _render_sweep


@pytest.fixture
def sweep_csv():
    return _sweep_csv
