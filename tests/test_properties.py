"""Model invariants over randomised inputs (hypothesis, derandomized)."""
import inspect
import itertools
import math
import os
import sys
import tempfile
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from decoylink import (
    ChannelModel,
    ContourPoint,
    DecoyLinkError,
    DetectorUnit,
    IntensitySet,
    ModelDomainError,
    ProtocolParams,
    ReceiverModel,
    ValidationError,
    evaluate_link,
    gain_total,
    load_scenario,
    qber_i,
    qber_total,
    run_sweep,
    trace_iso_qber_surface,
    yield_i,
)
import decoylink
from decoylink import cli, model, optimize, sweep
from decoylink.bounds import (
    METRIC_NAMES, Grid, boxes, link_table, mu_core, mu_stage, node_stage, per_node,
)
from decoylink.cli import main
from decoylink.optimize import _GRID_SEED_POINTS, DARK_COUNT_CAP, maximize_nodes
from decoylink.sweep import MU_POLICIES

# Fixed example sequence, so that every run tests the same inputs.
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def receivers(draw, p_ap=st.floats(0.0, 0.2)):
    """A biased array of 1-4 detectors; the biases sum to zero."""
    n = draw(st.integers(1, 4))
    raw = draw(st.lists(st.floats(-0.3, 0.3), min_size=n - 1, max_size=n - 1))
    return ReceiverModel(
        tuple(DetectorUnit(draw(p_ap), bias) for bias in raw + [-math.fsum(raw)]),
        dark_count_prob_total=draw(st.floats(0.0, 1e-5)),
        intrinsic_error=draw(st.floats(0.0, 0.1)),
        detector_efficiency=draw(st.floats(0.01, 1.0)),
    )


losses = st.floats(0.0, 50.0).map(lambda loss: ChannelModel(transmission_loss_db=loss))


@DETERMINISTIC
@given(
    receivers(),
    losses,
    st.floats(0.01, 1.0),
    st.lists(st.floats(0.0, DARK_COUNT_CAP), min_size=2, max_size=2).map(sorted),
)
def test_qber_non_decreasing_in_dark_counts(r, ch, mu, dark_counts):
    # the bisection's premise: more dark counts never lower the QBER
    low, high = (
        qber_total(replace(r, dark_count_prob_total=p_dc), ch, mu) for p_dc in dark_counts
    )
    assert low <= high


def scalar_threshold(p_ap, e_prime, loss_db, target, template, mu, tol=1e-10):
    """Reference: the per-node bisection over ``qber_total``, one receiver per evaluation,
    until the QBER is within ``tol`` of the target or no float lies strictly between
    the bracket's ends."""
    channel = ChannelModel(transmission_loss_db=loss_db)

    def qber_at(p_dc):
        detectors = tuple(replace(det, afterpulse_prob=p_ap) for det in template.detectors)
        receiver = replace(
            template, detectors=detectors, intrinsic_error=e_prime, dark_count_prob_total=p_dc
        )
        return qber_total(receiver, channel, mu)

    if qber_at(0.0) > target:
        return ContourPoint(p_ap, e_prime, loss_db, None, None, False)
    ceiling = qber_at(DARK_COUNT_CAP)
    if ceiling < target:
        raise ValidationError(
            f"target_qber={target!r} not reachable below the dark-count "
            f"search cap {DARK_COUNT_CAP!r} (QBER at cap: {ceiling:g})"
        )
    lo, hi = 0.0, DARK_COUNT_CAP
    mid = 0.5 * (lo + hi)
    achieved = qber_at(mid)
    while not abs(achieved - target) < tol and math.nextafter(lo, hi) < hi:
        if achieved < target:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
        achieved = qber_at(mid)
    converged = abs(achieved - target) < tol
    return ContourPoint(p_ap, e_prime, loss_db, mid, achieved, True, converged)


def outcome(solve):
    try:
        return solve()
    except DecoyLinkError as exc:
        return type(exc), str(exc)


@DETERMINISTIC
@given(
    receivers(),
    st.lists(st.floats(0.0, 1.05), min_size=1, max_size=4),
    st.lists(st.floats(0.0, 0.5), min_size=1, max_size=4),
    st.floats(0.0, 50.0),
    st.floats(0.01, 0.3),
    st.floats(0.05, 3.0),
)
# A threshold near 2.7e-103, below what 200 bisection steps reach, and a
# subnormal signal gain, where no float threshold meets the target.
@example(
    ReceiverModel.identical(2, 0.0, dark_count_prob_total=6e-7, intrinsic_error=0.02),
    [0.01], [0.02], 10.0, 0.125, 1e-100,
)
@example(
    ReceiverModel.identical(
        2, 0.0, dark_count_prob_total=6e-7, intrinsic_error=0.02, detector_efficiency=1.0
    ),
    [0.0, 0.01], [0.02, 0.3], 0.0, 0.125, 1e-315,
)
def test_surface_equals_scalar_bisection(r, p_values, e_values, loss_db, target, mu):
    expected = outcome(
        lambda: [scalar_threshold(p, e, loss_db, target, r, mu) for p in p_values for e in e_values]
    )
    assert outcome(
        lambda: trace_iso_qber_surface(p_values, e_values, loss_db, target, r, mu)
    ) == expected


@DETERMINISTIC
@given(
    receivers(),
    losses,
    st.floats(0.2, 1.0),
    st.floats(0.001, 0.12),
)
def test_decoy_bounds_enclose_single_photon_values(r, ch, mu, nu1):
    metrics = evaluate_link(r, ch, IntensitySet(mu, nu1), ProtocolParams())
    if metrics.estimate is None:
        return
    assert metrics.estimate.y1_lower <= yield_i(r, ch, 1)
    assert metrics.estimate.e1_upper >= qber_i(r, ch, 1)


@DETERMINISTIC
@given(
    receivers(p_ap=st.floats(0.0, 1.0)),
    losses,
    st.one_of(st.floats(0.9999, 1.0001), st.floats(0.98, 1.02), st.floats(0.2, 1.8)),
    st.floats(0.01, 0.99),
)
def test_domain_error_exactly_when_gain_exceeds_one(r, ch, aimed_gain, decoy_fraction):
    # mu is solved from a signal gain near aimed_gain, so that the gains fall
    # on both sides of 1 and close to it
    aimed = (aimed_gain - model.yield_background(r)) / (1.0 + model.aggregate_afterpulse(r))
    mu = -math.log1p(-min(aimed, 0.999)) / model.transmittance(r, ch)
    nu1 = decoy_fraction * mu

    def gain(x):
        # gain_total's closed form, without its check
        detected = -math.expm1(-model.transmittance(r, ch) * x)
        return model.yield_background(r) + detected * (1.0 + model.aggregate_afterpulse(r))

    exceeds = [gain(x) > 1.0 for x in (mu, nu1)]
    for x, above in zip((mu, nu1), exceeds):
        if not above:
            assert gain_total(r, ch, x) == gain(x)
    try:
        evaluate_link(r, ch, IntensitySet(mu, nu1), ProtocolParams())
    except ModelDomainError:
        assert any(exceeds)
    else:
        assert not any(exceeds)


UNIT, HALF_LINE, SIGNED = (0.0, 1.0), (0.0, math.inf), (-math.inf, math.inf)
PHOTONS = "a whole number of photons, >= 0"


def inside(domain):
    """A finite value in ``domain``, its bounds included; about half of them at most 1."""
    if domain == PHOTONS:
        return st.integers(0, 40)
    lo, hi = domain
    return st.one_of(st.floats(lo, min(hi, 1.0)), st.floats(lo, hi, allow_infinity=False))


def outside(domain):
    """NaN, +-inf, a negative, a value just past a bound, or an integer that no float holds
    (of 401 or 5001 digits), outside ``domain``."""
    if domain == PHOTONS:
        return st.sampled_from([-1, 2.5, math.nan, math.inf, 10**400, -10**5000])
    lo, hi = domain
    # an integer too long for Python to print must still get its message
    past = [math.nextafter(lo, -math.inf), -10**5000]
    if hi < math.inf:
        past += [math.nextafter(hi, math.inf), 10**5000]
    else:  # past every float, though not past the domain
        past.append(10**400)
    return st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, *past]),
        st.floats(max_value=-sys.float_info.min, allow_infinity=False),
    )


@st.composite
def value_types(draw):
    """A receiver, channel (opaque ones too) and protocol from the whole of their ranges,
    with about half of the afterpulse and dark-count probabilities and losses typical."""
    p_ap = st.one_of(st.floats(0.0, 0.2), st.floats(0.0, 1.0))
    receiver = ReceiverModel(
        tuple(DetectorUnit(draw(p_ap)) for _ in range(draw(st.integers(1, 3)))),
        dark_count_prob_total=draw(
            st.one_of(st.floats(0.0, 1e-5), st.floats(0.0, 1.0, exclude_max=True))
        ),
        intrinsic_error=draw(st.floats(0.0, 1.0)),
        background_error=draw(st.floats(0.0, 1.0)),
        detector_efficiency=draw(st.floats(0.0, 1.0, exclude_min=True)),
    )
    loss_db = draw(st.one_of(st.floats(0.0, 50.0), st.floats(0.0, math.inf)))
    channel = ChannelModel(transmission_loss_db=loss_db)
    protocol = ProtocolParams(
        draw(st.floats(0.0, 1.0, exclude_min=True)), draw(st.floats(1.0, sys.float_info.max))
    )
    return receiver, channel, protocol


# How a function takes (receiver, channel, protocol) and its float arguments x.
def alone(f, r, ch, p, x):
    return f(*x)


def on_receiver(f, r, ch, p, x):
    return f(r)


def on_link(f, r, ch, p, x):
    return f(r, ch, *x)


def one(domain):
    """The reading of a single float result in ``domain``."""
    return lambda value: [(value, domain)]


def estimate_readings(e):
    return [(e.y1_lower, UNIT), (e.e1_upper, UNIT), (e.q1_lower, UNIT)]


def link_readings(m):
    readings = [(v, UNIT) for v in (m.q_mu, m.e_mu, m.q_nu1, m.e_nu1, m.y0_measured, m.skr_lower)]
    readings.append((m.skr_approx, SIGNED))
    if m.estimate is not None:
        readings += [(m.skr_raw, (-math.inf, 1.0)), *estimate_readings(m.estimate)]
    return readings


# Each public function of ``model`` and ``bounds`` that takes or returns
# floats -> (how it is called, the domain of each float argument, from its
# docstring, and its result as (value, documented range) pairs). Neither
# yield has a check of its own against a yield above 1: yield_background is
# (1 + p_ap) p_dc, with p_ap <= 1 and p_dc < 1, and yield_i adds at most 1 + p_ap.
SCALAR_API = {
    "aggregate_afterpulse": (on_receiver, (), one(UNIT)),
    "baseline_error_change": (alone, (UNIT, UNIT, HALF_LINE), one((-1.0, math.inf))),
    "binary_entropy": (alone, (UNIT,), one(UNIT)),
    "effective_baseline_error": (alone, (UNIT, UNIT, HALF_LINE), one(UNIT)),
    "estimate_single_photon": (
        alone, (UNIT, UNIT, UNIT, UNIT, UNIT, HALF_LINE, HALF_LINE, UNIT), estimate_readings
    ),
    "evaluate_link": (
        lambda f, r, ch, p, x: f(r, ch, IntensitySet(*x), p), (HALF_LINE, HALF_LINE),
        link_readings,
    ),
    "gain_total": (on_link, (HALF_LINE,), one(UNIT)),
    "multi_photon_transmittance": (alone, (UNIT, PHOTONS), one(UNIT)),
    "qber_i": (on_link, (PHOTONS,), one(UNIT)),
    "qber_total": (on_link, (HALF_LINE,), one(UNIT)),
    "skr_approx": (
        lambda f, r, ch, p, x: f(r, ch, *x, p, warn=False), (HALF_LINE,), one(SIGNED)
    ),
    "skr_lower_bound": (
        lambda f, r, ch, p, x: f(*x, p), (UNIT,) * 4,
        lambda key: [(key[0], UNIT), (key[1], (-math.inf, 1.0))],
    ),
    "transmittance": (on_link, (), one(UNIT)),
    "visibility": (alone, (UNIT, UNIT, HALF_LINE), one((-1.0, 1.0))),
    "yield_background": (on_receiver, (), one((0.0, 2.0))),
    "yield_i": (on_link, (PHOTONS,), one((0.0, 4.0))),
}


@pytest.mark.parametrize("name", sorted(
    name for name, home in decoylink._HOME.items()
    if home in ("model", "bounds") and inspect.isfunction(getattr(decoylink, name))
))
@settings(DETERMINISTIC, max_examples=200)
@given(value_types(), st.data())
def test_public_scalar_functions_raise_or_return_documented_values(name, types, data):
    # Every argument in its domain, or at most one outside it, which must raise.
    call, domains, readings = SCALAR_API[name]
    x = [data.draw(inside(domain)) for domain in domains]
    k = data.draw(st.none() | (st.integers(0, len(domains) - 1) if domains else st.nothing()))
    if k is not None:
        x[k] = data.draw(outside(domains[k]))
    try:
        result = call(getattr(decoylink, name), *types, x)
    except DecoyLinkError:
        return
    assert k is None, f"accepted {x[k]!r} outside {domains[k]}"
    for value, (lo, hi) in readings(result):
        assert math.isfinite(value) and lo <= value <= hi, (value, result)
    if name == "estimate_single_photon":
        # clamped exactly where the docstring's bounds, in its order of
        # operations, leave [0, 1]
        q_mu, e_mu, q_nu1, e_nu1, y0, mu, nu1, e0 = x
        y1 = mu / (mu * nu1 - nu1 * nu1) * (
            q_nu1 * math.exp(nu1) - q_mu * math.exp(mu) * (nu1 * nu1) / (mu * mu)
            - (mu * mu - nu1 * nu1) / (mu * mu) * y0
        )
        e1 = (e_nu1 * q_nu1 * math.exp(nu1) - e0 * y0) / (result.y1_lower * nu1)
        assert result.clamped == (y1 > 1.0 or not 0.0 <= e1 <= 1.0)


def objective(table):
    """The intensity search's objective in its result ``table``: -inf at a gain error."""
    return np.where(table.gain_error, -np.inf, table.values["skr_lower"])


# Kernel inputs (p_ap, e_prime, p_dc, eta, nu1) of one node of the intensity
# search, reaching past the model's domain: p_ap > 1 gives gains above 1,
# nu1 = 0 a rejected decoy pair and nu1 near the bracket top an empty bracket.
search_nodes = st.tuples(
    st.floats(0.0, 1.5),
    st.floats(0.0, 0.6),
    st.one_of(st.just(0.0), st.floats(1e-12, 1e-2)),
    st.floats(0.0, 60.0).map(lambda loss_db: 10.0 ** (-loss_db / 10.0)),
    st.one_of(st.just(0.0), st.floats(0.0, 0.2), st.floats(1.4, 1.6)),
)


@DETERMINISTIC
@given(st.lists(search_nodes, min_size=1, max_size=6))
@example([
    # seed-grid best points 23 and 0 (a key of 0 everywhere): brackets of 2
    # and 1 seed spacings, which reach the tolerance after different steps,
    # so one two-node probe must take one step only
    (0.01, 0.02, 1e-6, 0.1, 0.05),
    (0.01, 0.6, 1e-6, 0.1, 0.05),
])
def test_lockstep_search_equals_search_of_each_node_alone(nodes):
    columns = [np.array(column) for column in zip(*nodes)]

    def search(*inputs):
        return maximize_nodes(*inputs, 0.5, ProtocolParams())

    def outcome_at(result, i):
        # bytes, so that NaN equals NaN and -0.0 differs from 0.0
        exc = result.errors.get(i)
        return (
            result.table.mu[i:i + 1].tobytes(),
            objective(result.table)[i:i + 1].tobytes(),
            None if exc is None else (type(exc), str(exc)),
        )

    with patch.object(optimize, "_LOOKAHEAD_NODES", 0):
        alone = [
            outcome_at(search(*(c[i:i + 1] for c in columns)), 0) for i in range(len(nodes))
        ]
    # golden-section runs of 1 and 3 nodes, which split the live nodes and
    # lose some mid-run; seed-grid slices of one node, and of more nodes
    # than the search holds. Each golden-section path: _LOOKAHEAD_NODES 0
    # makes every probe one step, a large value two wherever no bracket is
    # within the tolerance after the first of them.
    for rows, lookahead_nodes in itertools.product(
        (1, 3, _GRID_SEED_POINTS, _GRID_SEED_POINTS * (len(nodes) + 1)), (0, 10**6)
    ):
        with patch.multiple(optimize, _SEED_SLICE_ROWS=rows, _LOOKAHEAD_NODES=lookahead_nodes):
            together = search(*columns)
        assert [outcome_at(together, i) for i in range(len(nodes))] == alone


# Axis ranges reach past the model's domain, so that sweeps hold every status.
AXIS_RANGES = {
    "p_ap": (0.0, 1.5),
    "loss_db": (0.0, 60.0),
    "distance_km": (0.0, 250.0),
    "intrinsic_error": (0.0, 0.6),
    "dark_count_prob": (0.0, 1.0),
    "signal_mu": (0.01, 8.0),
    "weak_decoy_nu1": (0.0, 1.0),
}


@st.composite
def sweep_configs(draw):
    """A scenario with a sweep of up to 3 short axes, as a config dict."""
    axes = []
    names = draw(st.permutations(tuple(AXIS_RANGES)))[:draw(st.integers(0, 3))]
    for name in names:
        low, high = sorted(draw(st.lists(st.floats(*AXIS_RANGES[name]), min_size=2, max_size=2)))
        log = low > 0.0 and draw(st.booleans())
        axes.append({
            "name": name, "min": low, "max": high, "count": draw(st.integers(1, 4)),
            "spacing": "log" if log else "linear",
        })
    return {
        "receiver": {
            "num_detectors": draw(st.integers(1, 4)),
            "afterpulse_prob": draw(st.floats(0.0, 0.2)),
            "dark_count_prob_total": draw(st.floats(0.0, 1e-5)),
            "intrinsic_error": draw(st.floats(0.0, 0.6)),
            "detector_efficiency": draw(st.floats(0.01, 1.0)),
        },
        "channel": {"loss_db": draw(st.floats(0.0, 70.0))},
        "intensities": {
            "signal_mu": draw(st.floats(0.2, 6.0)),
            "weak_decoy_nu1": draw(st.floats(0.001, 0.12)),
        },
        "sweep": {
            "axes": axes,
            "outputs": draw(st.lists(st.sampled_from(METRIC_NAMES), min_size=1, max_size=6,
                                     unique=True)),
            "mu_policy": draw(st.sampled_from(MU_POLICIES)),
        },
    }


# Grids of at most 64 nodes, in slabs and chunks of 1-7 nodes drawn apart:
# chunk edges fall inside slabs and on slab edges, and the chunks of one run
# span several slabs.
@settings(DETERMINISTIC, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sweep_configs(), st.integers(1, 7), st.integers(1, 7))
def test_sweep_deterministic_and_independent_of_block_size(
    sweep_csv, config, slab_nodes, chunk_nodes
):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(config, fh)
        try:
            spec = load_scenario(path).sweep
        except ValidationError:
            assume(False)
        out = os.path.join(tmp, "out.csv")

        def csv_bytes(slab_nodes=sweep.SLAB_NODES, chunk_nodes=cli.CHUNK_NODES):
            with patch.object(sweep, "SLAB_NODES", slab_nodes), \
                    patch.object(cli, "CHUNK_NODES", chunk_nodes):
                assert main(["sweep", "--config", path, "--output", out]) == 0
            with open(out, "rb") as fh:
                return fh.read()

        # reprs, since NaN != NaN: a subnormal weak_decoy_nu1 gives NaN bounds
        assert repr(run_sweep(spec)) == repr(run_sweep(spec))
        first = csv_bytes()
        assert first == sweep_csv(spec).encode()
        assert csv_bytes() == first
        assert csv_bytes(1, 1) == first
        assert csv_bytes(slab_nodes, chunk_nodes) == first


# Values of each kernel input, reaching NaN nodes, eta = 0, a subnormal nu1
# and p_ap near the float maximum (where _libm takes its fallback path).
KERNEL_VALUES = {
    "p_ap": st.one_of(
        st.floats(0.0, 1.5), st.just(math.nan), st.floats(1e307, sys.float_info.max)
    ),
    "e_prime": st.one_of(st.floats(0.0, 0.6), st.just(math.nan)),
    "p_dc": st.one_of(st.just(0.0), st.floats(1e-12, 1e-2)),
    "eta": st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    "mu": st.one_of(st.floats(0.01, 2.0), st.just(math.nan)),
    "nu1": st.one_of(st.floats(0.0, 0.6), st.just(5e-324), st.floats(1e-320, 1e-310)),
}


@st.composite
def slab_inputs(draw, kernel_values=KERNEL_VALUES):
    """(shape, inputs): ``link_table`` inputs, drawn from ``kernel_values``, over a slab of 1-3 axes.

    Each input varies along one axis, or none and has size 1, as
    ``Grid.slab`` shapes them; an axis no input varies along has length 1.
    """
    lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    inputs = {}
    for name, values in kernel_values.items():
        axis = draw(st.sampled_from([None, *range(len(lengths))]))
        dims = tuple(n if k == axis else 1 for k, n in enumerate(lengths))
        drawn = draw(st.lists(values, min_size=math.prod(dims), max_size=math.prod(dims)))
        inputs[name] = np.array(drawn).reshape(dims)
    return np.broadcast_shapes(*(v.shape for v in inputs.values())), inputs


@DETERMINISTIC
@given(slab_inputs())
@example((
    (2, 3),
    {
        "p_ap": np.array([[math.nan], [1.7e308]]),
        "e_prime": np.full((1, 1), 0.02),
        "p_dc": np.full((1, 1), 1e-6),
        "eta": np.array([[0.0, 0.1, 1.0]]),
        "mu": np.full((1, 1), 0.5),
        "nu1": np.array([[0.1, 5e-324, 0.05]]),
    },
))
def test_kernel_on_a_slab_equals_kernel_on_its_flat_nodes(drawn):
    shape, inputs = drawn
    slab = link_table(**inputs, background_error=0.5, protocol=ProtocolParams())
    flat = link_table(
        **{name: per_node(values, shape) for name, values in inputs.items()},
        background_error=0.5, protocol=ProtocolParams(),
    )
    assert_same_nodes(shape, slab, flat)


@DETERMINISTIC
@given(st.lists(
    st.tuples(
        st.floats(sys.float_info.min, 1.0), st.floats(0.0, 1.0),
        st.one_of(st.floats(0.0, 1.7e308), st.floats(1e306, 1e308)),
    ),
    min_size=1, max_size=8,
))
@example([(0.02, 0.5, 1e306), (0.02, 0.5, 1e307), (0.02, 0.5, 1e308), (0.02, 0.5, 1.7e308)])
@example([(2.3e-308, 1.0, 1.7e308), (0.75, 0.5, 1e308), (0.02, 0.0, 1e308), (0.02, 0.5, 0.0)])
def test_kernel_baseline_change_equals_the_scalar_function(nodes):
    """``link_table``'s ``baseline_error_change`` is ``model.baseline_error_change``, bit for
    bit, wherever e' is normal and p_ap finite: the kernel once gave inf at p_ap 1e308 where
    the scalar function gave 24."""
    for e0 in {e0 for _, e0, _ in nodes}:
        at = [(e_prime, p_ap) for e_prime, node_e0, p_ap in nodes if node_e0 == e0]
        e_prime, p_ap = map(np.array, zip(*at))
        table = link_table(
            p_ap, e_prime, np.full(len(at), 1e-6), np.full(len(at), 0.1), np.full(len(at), 0.5),
            np.full(len(at), 0.05), background_error=e0, protocol=ProtocolParams(),
        )
        scalar = np.array([model.baseline_error_change(e, e0, p) for e, p in at])
        assert (bits(table.values["baseline_error_change"]) == bits(scalar)).all()


@DETERMINISTIC
@given(st.integers(1, 5), st.floats(0.0, 1.0), st.fixed_dictionaries(
    {"dark_count_prob_total": st.floats(0.0, 1.0, exclude_max=True),
     "intrinsic_error": st.floats(0.0, 1.0)},
    optional={"background_error": st.floats(0.0, 1.0),
              "detector_efficiency": st.floats(0.0, 1.0, exclude_min=True)},
))
def test_identical_receiver_is_its_tuple_of_detectors(n, p_ap, fields):
    """``identical(n, p, **fields)`` passes ``fields`` on as given; the fields left out,
    the afterpulse probability among them, keep ``ReceiverModel``'s defaults."""
    assert ReceiverModel.identical(n, p_ap, **fields) == ReceiverModel(
        (DetectorUnit(p_ap),) * n, **fields
    )
    assert ReceiverModel.identical(n, **fields) == ReceiverModel((DetectorUnit(0.0),) * n, **fields)


def bits(values):
    """The bits of float ``values``, every NaN as one value: NaN equals NaN, -0.0 differs from 0.0.

    numpy sets a NaN's sign by the element's place in its vector loop, so
    the same node can give NaN or -NaN in differently shaped arrays.
    """
    return np.where(np.isnan(values), np.nan, values).view(np.int64)


def assert_same_nodes(shape, slab, flat):
    """``slab``, a LinkTable at ``shape``, equals ``flat``, a table of its nodes, bit for bit."""
    assert slab.shape == shape
    for name in METRIC_NAMES:
        slab_values = per_node(slab.values[name], shape)
        assert np.array_equal(bits(slab_values), bits(flat.values[name])), name
    for mask in ("gain_error", "domain_error", "infeasible", "clamped"):
        assert np.array_equal(per_node(getattr(slab, mask), shape), getattr(flat, mask)), mask
    for i in np.flatnonzero(flat.domain_error).tolist():
        assert str(slab.error(i)) == str(flat.error(i))


# Kernel values that also reach subnormal gains (a subnormal eta with no
# dark counts) and an infinite mu, with more nodes of a positive key.
CORE_VALUES = {
    **KERNEL_VALUES,
    "e_prime": st.one_of(st.floats(0.0, 0.05), KERNEL_VALUES["e_prime"]),
    "eta": st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(5e-324, 1e-300)),
    "mu": st.one_of(st.floats(0.0, 2.0), st.just(math.nan), st.just(math.inf)),
}


def ulps_below(x, ulps):
    """``x`` lowered by ``ulps`` units in the last place."""
    for _ in range(ulps):
        x = np.nextafter(x, -np.inf)
    return x


@DETERMINISTIC
@given(slab_inputs(CORE_VALUES), st.one_of(st.none(), st.integers(1, 8)))
@example((
    # q_nu1 > 1, nu1 = 0, nu1 >= mu, subnormal gains, an inf and a nan mu, and
    # a positive key at 4 values of mu, two where numpy's exp rounds otherwise
    (10, 3),
    {
        "p_ap": np.array([[1.5], *[[0.01]] * 9]),
        "e_prime": np.full((1, 1), 0.02),
        "p_dc": np.array([[1e-6], [1e-6], [1e-6], [0.0], *[[1e-6]] * 6]),
        "eta": np.array([[1.0], [0.1], [0.1], [1e-310], *[[0.1]] * 6]),
        "mu": np.array([[0.5], [0.5], [0.05], [0.5], [math.inf], [math.nan],
                        [0.246], [0.2945], [0.77], [1.3]]),
        "nu1": np.array([[0.6, 0.0, 0.05]]),
    },
), None)
@example((
    # nu1 a few ulps below mu, where mu nu1 - nu1^2 cancels, at links with
    # and without dark counts
    (3, 2),
    {
        "p_ap": np.full((1, 1), 0.01),
        "e_prime": np.full((1, 1), 0.02),
        "p_dc": np.array([[1e-6, 0.0]]),
        "eta": np.full((1, 1), 0.1),
        "mu": np.array([[0.05], [0.5], [1.3]]),
        "nu1": ulps_below(np.array([[0.05], [0.5], [1.3]]), 3),
    },
), None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_search_core_agrees_with_the_table(drawn, ulps_below_mu):
    # The probes' layout: the node terms spread to one entry per node; the
    # table's: every term at its own shape. A drawn ``ulps_below_mu`` puts
    # nu1 that many ulps below mu, at mu's shape.
    shape, inputs = drawn
    if ulps_below_mu is not None:
        inputs = {**inputs, "nu1": ulps_below(inputs["mu"], ulps_below_mu)}
    protocol = ProtocolParams()
    mu = inputs["mu"]
    terms, outputs = node_stage(
        *(inputs[name] for name in ("p_ap", "e_prime", "p_dc", "eta", "nu1")), 0.5
    )
    table = mu_stage(mu, 0.5, protocol, terms, outputs)
    spread = {name: per_node(values, shape) for name, values in terms.items()}
    with np.errstate(all="ignore"):
        probe, _ = mu_core(per_node(mu, shape), 0.5, protocol, **spread)
    objective = np.where(table.gain_error, -np.inf, table.values["skr_lower"])
    assert probe.tobytes() == per_node(objective, shape).tobytes()


# Seed-grid boxes of 32 nodes (the default), of 1 node and of 3 nodes, which
# cut a slab's axes mid-way.
@pytest.mark.parametrize("seed_rows", [
    optimize._SEED_SLICE_ROWS, _GRID_SEED_POINTS, 3 * _GRID_SEED_POINTS,
])
@DETERMINISTIC
@given(slab_inputs())
@example((
    # a positive key, gains above 1 in a bracket, a rejected decoy pair and an empty bracket
    (2, 3),
    {
        "p_ap": np.array([[0.01], [1.2]]),
        "e_prime": np.full((1, 1), 0.02),
        "p_dc": np.full((1, 1), 1e-6),
        "eta": np.array([[0.1], [1.0]]),
        "mu": np.full((1, 1), 0.5),
        "nu1": np.array([[0.05, 0.0, 1.5]]),
    },
))
@example((
    # 3-node boxes take one eta each and cut the nu1 axis after 3 values; a
    # rejected decoy pair at nu1 = 0
    (2, 4),
    {
        "p_ap": np.full((1, 1), 0.01),
        "e_prime": np.full((1, 1), 0.02),
        "p_dc": np.full((1, 1), 1e-6),
        "eta": np.array([[0.1], [0.003]]),
        "mu": np.full((1, 1), 0.5),
        "nu1": np.array([[0.0, 0.05, 0.1, 0.3]]),
    },
))
def test_search_on_a_slab_equals_search_on_its_flat_nodes(seed_rows, drawn):
    inputs = {name: values for name, values in drawn[1].items() if name != "mu"}
    shape = np.broadcast_shapes(*(v.shape for v in inputs.values()))

    def search(lookahead_nodes, **inputs):
        with patch.multiple(
            optimize, _SEED_SLICE_ROWS=seed_rows, _LOOKAHEAD_NODES=lookahead_nodes
        ):
            return maximize_nodes(**inputs, background_error=0.5, protocol=ProtocolParams())

    # the slab one step per probe; its flat nodes by each golden-section path,
    # as in the lockstep test
    slab = search(0, **inputs)
    flat_inputs = {name: per_node(values, shape) for name, values in inputs.items()}
    for lookahead_nodes in (0, 10**6):
        flat = search(lookahead_nodes, **flat_inputs)
        for name, value in (("mu", lambda table: table.mu), ("objective", objective)):
            assert value(slab.table).shape == shape
            assert np.array_equal(bits(value(slab.table).ravel()), bits(value(flat.table))), name
        assert_same_nodes(shape, slab.table, flat.table)
        assert {i: (type(e), str(e)) for i, e in slab.errors.items()} == {
            i: (type(e), str(e)) for i, e in flat.errors.items()
        }


@DETERMINISTIC
@given(st.lists(st.integers(1, 6), max_size=3), st.integers(1, 50))
def test_slabs_tile_the_grid_in_row_major_order(lengths, max_nodes):
    names = ("p_ap", "loss_db", "intrinsic_error")
    axes = [(name, np.linspace(0.0, 0.1, n)) for name, n in zip(names, lengths)]
    receiver = ReceiverModel.identical(2, dark_count_prob_total=6e-7, intrinsic_error=0.02)
    grid = Grid(receiver, ChannelModel(transmission_loss_db=5.0), {"mu": 0.5, "nu1": 0.1}, axes)
    whole_index, whole_inputs = grid.slab()
    (whole,) = boxes(grid.shape, grid.size)
    index, inputs = grid.slab(whole)
    assert list(map(np.ndarray.tolist, whole_index)) == list(map(np.ndarray.tolist, index))
    assert {k: v.tolist() for k, v in whole_inputs.items()} == {
        k: v.tolist() for k, v in inputs.items()
    }
    covered = []
    for index, inputs in map(grid.slab, boxes(grid.shape, max_nodes)):
        shape = tuple(i.size for i in index)
        assert math.prod(shape) <= max_nodes
        for k, i in enumerate(index):
            # a run of consecutive values of axis k, laid along axis k only
            assert i.shape == tuple(n if j == k else 1 for j, n in enumerate(shape))
            assert np.array_equal(i.ravel(), np.arange(i.flat[0], i.flat[0] + i.size))
        for name, values in inputs.items():
            # each input varies along one axis at most, and broadcasts over the slab
            assert np.broadcast_shapes(values.shape, shape) == shape
            assert sum(n > 1 for n in values.shape) <= 1, name
        covered += np.ravel_multi_index(
            [np.broadcast_to(i, shape).ravel() for i in index], grid.shape
        ).tolist() if index else [0]
    assert covered == list(range(grid.size))


@st.composite
def shapes_and_sizes(draw):
    """(shape of 0-3 axes of 1-6 points, max_nodes from 1 to its size + 1)."""
    shape = tuple(draw(st.lists(st.integers(1, 6), max_size=3)))
    return shape, draw(st.integers(1, math.prod(shape) + 1))


@DETERMINISTIC
@given(shapes_and_sizes())
def test_boxes_cover_the_points_once_in_row_major_order(drawn):
    shape, max_nodes = drawn

    def row_major(point):
        position = 0
        for k, n in zip(point, shape):
            position = position * n + k
        return position

    found = list(boxes(shape, max_nodes))
    if math.prod(shape) <= max_nodes:
        assert found == [tuple(range(n) for n in shape)]
    covered = []
    for box in found:
        assert len(box) == len(shape)
        assert all(0 <= r.start < r.stop <= n and r.step == 1 for r, n in zip(box, shape))
        points = [row_major(point) for point in itertools.product(*box)]
        assert len(points) <= max_nodes
        # the box's points are consecutive in row-major order
        assert points == list(range(points[0], points[0] + len(points)))
        covered += points
    assert covered == list(range(math.prod(shape)))
