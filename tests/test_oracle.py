"""Every closed form against an independent 50-digit oracle (hypothesis, derandomized).

The oracle is ``benchmarks/oracle.py``: PAPER.md's closed forms recomputed
with mpmath, sharing no code with the package. The draws cover the model's
whole domain: losses to 4000 dB, weak decoys from the smallest subnormal to
just below the signal, no dark counts, afterpulse probabilities past 1, and
arrays of 1 to 8 biased detectors, whose aggregate afterpulse probability
the tests compute at 50 digits.
"""
import math
import sys
from pathlib import Path

import mpmath
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from decoylink import (
    Axis,
    ChannelModel,
    DecoyLinkError,
    DetectorUnit,
    IntensitySet,
    ProtocolParams,
    ReceiverModel,
    SinglePhotonEstimate,
    SweepSpec,
    aggregate_afterpulse,
    evaluate_link,
    run_sweep,
)
from decoylink.bounds import LINK_METRICS

sys.path.append(str(Path(__file__).resolve().parents[1] / "benchmarks"))
import oracle  # noqa: E402

PROTOCOL = ProtocolParams()
# Agreement: |library - oracle| <= TOL * scale + TINY, with the oracle's
# condition scale (see allowed_errors). The absolute floor admits values
# that underflow (such as skr_approx past 3000 dB), never a wrong normal
# value.
TOL = 1e-10
TINY = sys.float_info.min
SUBNORMAL = 5e-324
# Agreement of an aggregate afterpulse probability with the 50-digit mean:
# relative, plus what underflowing products lose.
MEAN_TOL = 4e-16


@st.composite
def nodes(draw):
    """Oracle keyword arguments of one operating point."""
    mu = draw(st.floats(0.01, 8.0))
    nu1 = draw(st.one_of(
        st.floats(5e-324, mu, exclude_max=True),
        # log-uniform down to the smallest subnormal
        st.floats(1.0, 330.0).map(lambda k: max(mu * 10.0 ** -k, 5e-324)),
    ))
    efficiency = draw(st.floats(0.01, 1.0))
    # the loss at which eta nu1 leaves the normal floats, where the bounds
    # run out of precision
    frontier = 10.0 * (math.log10(efficiency) + math.log10(nu1) - math.log10(TINY))
    loss_db = draw(st.one_of(
        st.floats(0.0, 60.0),
        st.floats(0.0, 4000.0),
        st.floats(-100.0, 100.0).map(lambda d: min(max(frontier + d, 0.0), 4000.0)),
    ))
    return {
        "p_ap": draw(st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 2.0, exclude_min=True))),
        "p_dc": draw(st.one_of(st.just(0.0), st.floats(-12.0, -2.0).map(lambda k: 10.0 ** k))),
        "e_prime": draw(st.floats(0.0, 0.5)),
        "e0": 0.5,
        "efficiency": efficiency,
        "loss_db": loss_db,
        "mu": mu,
        "nu1": nu1,
        "q": PROTOCOL.sifting_factor,
        "f": PROTOCOL.ec_efficiency,
    }


def h2(x):
    if x <= 0 or x >= 1:
        return mpmath.mpf(0)
    return -(x * mpmath.log(x) + (1 - x) * mpmath.log1p(-x)) / mpmath.log(2)


def allowed_errors(node, exact, scales):
    """Per metric, how far the library may be from the oracle: TOL x scale + floor.

    The scale is the oracle's condition scale, completed where it leaves
    out an input's error. The oracle scales visibility and
    baseline_error_change by their magnitude, which misses the cancellation
    in 1 - 2 e_det and e0/e' - 1. It carries the error of Y1 into Q1 but not
    into e1 = (...)/(Y1 nu1): with nu1 within an ulp of mu, mu nu1 - nu1^2
    cancels and Y1 keeps few digits. Nor does it carry the errors of Q1 and
    e1 into the key rate: with a faint weak decoy (nu1 ~ 1e-16) e1 keeps few
    digits, though it agrees within its own scale.

    The floor is TINY, plus for a quotient what its numerator loses where a
    product underflows (``underflow_over``). Example: e' = 6e-225 and
    nu1 = 3e-155 give (e' + e0 p_ap)(1 - e^-eta nu1) = 0 and E_nu1 = 0.
    """
    scales = dict(scales)
    p, e0 = mpmath.mpf(node["p_ap"]), node["e0"]
    scales["visibility"] = 1 + 2 * exact["e_detector"]
    if node["e_prime"]:
        scales["baseline_error_change"] = (e0 / mpmath.mpf(node["e_prime"]) + 1) * p / (1 + p)
    y1, e1, q1 = exact["y1_lower"], exact["e1_upper"], exact["q1_lower"]
    scales["e1_upper"] += e1 * scales["y1_lower"] / y1
    allowed = {name: TOL * scale + TINY for name, scale in scales.items()}
    allowed["e_mu"] += underflow_over(exact["q_mu"])
    allowed["e_nu1"] += underflow_over(exact["q_nu1"])
    allowed["e1_upper"] += (2 * mpmath.exp(node["nu1"]) + 1) * underflow_over(y1 * node["nu1"])
    # The key rate's single-photon term is Q1 single(e1); how far it can
    # move while Q1 and e1 stay within their allowed errors:
    lowest = max(e1 - allowed["e1_upper"], 0)
    moved = max(abs(single(lowest) - single(e1)),
                abs(single(e1 + allowed["e1_upper"]) - single(e1)))
    propagated = node["q"] * (single(lowest) * allowed["q1_lower"] + q1 * moved)
    allowed["skr_raw"] += propagated
    allowed["skr_lower"] += propagated
    return allowed


def underflow_over(denominator):
    """The smallest subnormal, what an underflowing product loses, over a quotient's denominator.

    The denominator counts as at least the smallest normal float: a subnormal
    one has no precision left, and only a status other than ok may show that.
    """
    return SUBNORMAL / max(denominator, TINY)


def single(e1):
    """The key per single photon at error rate e1: 1 - H2(e1), none from e1 = 1/2 up."""
    return 1 - h2(e1) if e1 < 0.5 else 0


def one_node_values(metrics):
    estimate = metrics.estimate or SinglePhotonEstimate(None, None, None)
    return {
        "y0": metrics.y0_measured,
        "q_mu": metrics.q_mu,
        "e_mu": metrics.e_mu,
        "q_nu1": metrics.q_nu1,
        "e_nu1": metrics.e_nu1,
        "y1_lower": estimate.y1_lower,
        "e1_upper": estimate.e1_upper,
        "q1_lower": estimate.q1_lower,
        "skr_raw": metrics.skr_raw,
        "skr_lower": metrics.skr_lower,
        "skr_approx": metrics.skr_approx,
    }


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(nodes())
# 3200 dB without dark counts: the gains are subnormal, and e1 came out 0.0
# with status ok where the oracle gives 0.0314
@example({"p_ap": 0.02, "p_dc": 0.0, "e_prime": 0.02, "e0": 0.5, "efficiency": 0.1,
          "loss_db": 3200.0, "mu": 0.48, "nu1": 0.05, "q": PROTOCOL.sifting_factor,
          "f": PROTOCOL.ec_efficiency})
def test_ok_nodes_agree_with_oracle_and_one_node_call(node):
    p_ap = node["p_ap"]
    receiver = ReceiverModel.identical(
        2, min(p_ap, 1.0), dark_count_prob_total=node["p_dc"],
        intrinsic_error=node["e_prime"], detector_efficiency=node["efficiency"],
    )
    channel = ChannelModel(transmission_loss_db=node["loss_db"])
    intensities = IntensitySet(node["mu"], node["nu1"])
    outputs = LINK_METRICS + ("p_ap", "e_detector", "visibility")
    if node["e_prime"] >= TINY:
        # below, baseline_error_change is undefined: a model-domain-error
        outputs += ("baseline_error_change",)
    # a p_ap axis reaches past the detector range of 1
    spec = SweepSpec(receiver, channel, intensities, PROTOCOL, (Axis("p_ap", p_ap, p_ap, 1),),
                     outputs)
    [record] = run_sweep(spec)
    cells = dict(zip(outputs, record.values))
    if p_ap > 1.0:
        assert record.status == "model-domain-error"
        return

    # (b) the one-node call is the kernel's node, bit for bit
    try:
        metrics = evaluate_link(receiver, channel, intensities, PROTOCOL)
    except DecoyLinkError as exc:
        assert (record.status, record.reason) == ("model-domain-error", str(exc))
        return
    one_node = one_node_values(metrics)
    assert repr([cells[name] for name in LINK_METRICS]) == repr(
        [one_node[name] for name in LINK_METRICS]
    )
    assert (record.status, record.reason) == (
        "infeasible" if metrics.reason else "ok", metrics.reason
    )

    # (a) an ok node is the oracle's, within the condition-scaled tolerance
    if record.status != "ok":
        return
    exact, scales, status = oracle.precise(**node)
    assert status == "ok"
    allowed = allowed_errors(node, exact, scales)
    for name, value in cells.items():
        error = abs(mpmath.mpf(value) - exact[name])
        assert error <= allowed[name], (name, value, exact[name], allowed[name])


@st.composite
def arrays(draw):
    """(afterpulse probabilities, biases) of 1-8 detectors; biases in [-1, N - 1], summing to 0."""
    n = draw(st.integers(1, 8))
    probs = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    raw = draw(st.lists(st.floats(-1.0, n - 1.0), min_size=n - 1, max_size=n - 1))
    last = -math.fsum(raw)
    assume(-1.0 <= last <= n - 1.0)
    return probs, raw + [last]


def array_receiver(array, p_dc=0.0, e_prime=0.02, efficiency=0.1):
    probs, biases = array
    return ReceiverModel(tuple(map(DetectorUnit, probs, biases)), p_dc, e_prime,
                         detector_efficiency=efficiency)


def exact_mean(probs, biases):
    """The aggregate afterpulse probability sum_m (1 + r_m) p_m / N, at 50 digits."""
    with mpmath.workdps(oracle.DIGITS):
        terms = [(1 + mpmath.mpf(r)) * mpmath.mpf(p) for p, r in zip(probs, biases)]
        return mpmath.fsum(terms) / len(terms)


def assert_mean(value, exact):
    assert abs(mpmath.mpf(value) - exact) <= MEAN_TOL * exact + SUBNORMAL, (value, exact)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(arrays(), nodes())
def test_detector_arrays_agree_with_oracle(array, node):
    receiver = array_receiver(array, node["p_dc"], node["e_prime"], node["efficiency"])
    p_ap = exact_mean(*array)
    assert_mean(aggregate_afterpulse(receiver), p_ap)
    try:
        metrics = evaluate_link(
            receiver, ChannelModel(transmission_loss_db=node["loss_db"]),
            IntensitySet(node["mu"], node["nu1"]), PROTOCOL,
        )
    except DecoyLinkError:
        return
    if metrics.reason:
        return
    node = {**node, "p_ap": p_ap}
    exact, scales, status = oracle.precise(**node)
    assert status == "ok"
    allowed = allowed_errors(node, exact, scales)
    for name, value in one_node_values(metrics).items():
        error = abs(mpmath.mpf(value) - exact[name])
        assert error <= allowed[name], (name, value, exact[name], allowed[name])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(arrays(), st.one_of(st.floats(0.0, 1.0), st.floats(1e300, 1.7e308)))
# a weight 1 + r above 1 times a value near the float maximum overflows
@example(([0.03, 0.01], [0.4, -0.4]), 1.7e308)
def test_p_ap_axis_is_the_array_mean(array, value):
    """A p_ap axis sets every detector to its value; the p_ap output is the array's mean."""
    spec = SweepSpec(array_receiver(array), ChannelModel(transmission_loss_db=0.0),
                     IntensitySet(0.48, 0.05), PROTOCOL, (Axis("p_ap", value, value, 1),),
                     ("p_ap",))
    [record] = run_sweep(spec)
    assert_mean(record.values[0], exact_mean([value] * len(array[1]), array[1]))
