"""Weak+vacuum single-photon estimation and secure-key-rate bounds.

Each closed form is written once, as a private function over floats or
numpy arrays. The scalar functions run them on floats after their checks,
and ``evaluate_link`` runs the scalar functions at one operating point.
``link_table`` runs the same closed forms over arrays of operating points
for the sweeps and the intensity optimizer, in two stages, so that a search
over the signal intensity computes the terms that do not depend on it once.
Each of the search's probes is one ``mu_core`` call: the second stage's
closed forms and its objective, without the table's decoy-pair test and
extra metrics. ``Grid`` turns the value types and a grid's axis values into
the inputs of ``link_table`` and of the optimizer, a box of nodes (a slab)
at a time, shaped so that each term is computed once per distinct value of
the axes it depends on.
"""
from __future__ import annotations

import gc
import math
import sys
import threading
import warnings
from dataclasses import replace
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import model
from .errors import DecoyLinkError, EstimationInfeasibleError, ModelDomainError, ValidationError
# The name tables live in ``model``; they are importable from here too.
from .model import AXES, AXIS_NAMES, LINK_METRICS, METRIC_NAMES, SCALAR_METRICS

_LN2 = math.log(2.0)

# Link metrics that exist only when decoy estimation is feasible.
_ESTIMATE_METRICS = ("y1_lower", "e1_upper", "q1_lower", "skr_raw")
# Reason reported when decoy estimation cannot resolve a positive single-photon yield.
ESTIMATION_INFEASIBLE = "estimation_infeasible"

# Validity guards for the low-noise, high-loss key-rate approximation.
_APPROX_ETA_MAX = 0.1
_APPROX_BACKGROUND_FRACTION = 0.1


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy with the continuous extension H(0) = H(1) = 0."""
    x = model.check_range("binary_entropy argument", x, 0.0, 1.0)
    if x == 0.0 or x == 1.0:
        return 0.0
    return _entropy(x, _libm_or_nan)


class SinglePhotonEstimate(NamedTuple):
    """Weak+vacuum bounds on the single-photon contribution.

    ``clamped`` records whether any bound had to be clipped into [0, 1], so
    downstream sweeps can distinguish physical from clamped points.
    """

    y1_lower: float
    e1_upper: float
    q1_lower: float
    clamped: bool = False


def estimate_single_photon(
    q_mu: float,
    e_mu: float,
    q_nu1: float,
    e_nu1: float,
    y0: float,
    mu: float,
    nu1: float,
    e0: float = 0.5,
) -> SinglePhotonEstimate:
    """Bound the single-photon yield and error rate from the two decoy gains.

    Standard weak+vacuum estimation: the vacuum decoy measures the background
    yield y0, and the weak decoy pins the linear photon-number term, giving

        Y1 >= mu/(mu nu1 - nu1^2) [Q_nu1 e^nu1 - Q_mu e^mu nu1^2/mu^2
                                   - (mu^2 - nu1^2)/mu^2 y0]
        e1 <= [E_nu1 Q_nu1 e^nu1 - e0 y0] / (Y1_lower nu1)

    and Q1_lower = Y1_lower mu e^-mu, from gains, error rates and y0 in
    [0, 1] and intensities 0 < nu1 < mu. Bounds outside [0, 1] are clamped and
    flagged. EstimationInfeasibleError is raised where the bounds cannot be
    resolved (``_resolvable``): a yield bound that is not positive and
    finite, or gains or a bound too small (subnormal) to keep any precision.
    """
    mu, nu1 = check_decoy_pair(mu, nu1)
    model.check_nonnegative(q_mu=q_mu, e_mu=e_mu, q_nu1=q_nu1, e_nu1=e_nu1, y0=y0, e0=e0)
    model.check_at_most_one(q_mu=q_mu, e_mu=e_mu, q_nu1=q_nu1, e_nu1=e_nu1, y0=y0, e0=e0)
    nu2, q_exp_nu1, e1_numerator = _nu1_terms(
        q_nu1, e_nu1, y0, nu1, e0, _libm_or_nan(math.exp, nu1)
    )
    try:
        y1 = _y1_bound(q_mu, y0, mu, nu1, _libm_or_nan(math.exp, mu), nu2, q_exp_nu1)
    except ZeroDivisionError:
        # a nu1 so small that mu nu1 - nu1^2 underflows to 0 leaves the bound undefined
        y1 = math.nan
    y1_lower = min(y1, 1.0)
    if not _resolvable(q_mu, q_nu1 >= sys.float_info.min, y1, y1_lower, nu1):
        raise EstimationInfeasibleError(
            f"single-photon yield bound {y1!r} is not positive and finite, or it, "
            "y1 nu1 or a gain is subnormal; link too noisy or lossy, or weak decoy too faint"
        )
    e1 = _e1_bound(e1_numerator, y1_lower, nu1)
    return SinglePhotonEstimate(
        y1_lower=y1_lower,
        e1_upper=min(max(e1, 0.0), 1.0),
        q1_lower=y1_lower * mu * _libm_or_nan(math.exp, -mu),
        clamped=y1 > 1.0 or e1 < 0.0 or e1 > 1.0,
    )


def check_decoy_pair(mu: float, nu1: float) -> tuple[float, float]:
    """(mu, nu1) as floats, rejected outside 0 < nu1 < mu (weak+vacuum estimation undefined)."""
    x_mu, x_nu1 = model.as_float("mu", mu), model.as_float("nu1", nu1)
    if not 0.0 < x_nu1 < x_mu:
        raise ValidationError(
            f"weak+vacuum estimation needs 0 < nu1 < mu, got nu1={nu1!r} mu={mu!r}"
        )
    return x_mu, x_nu1


def skr_lower_bound(
    q_mu: float,
    e_mu: float,
    q1_lower: float,
    e1_upper: float,
    protocol: model.ProtocolParams,
) -> tuple[float, float]:
    """Secure-key-rate lower bound in bits per pulse.

    raw = q { -f Q_mu H2(E_mu) + Q1 [1 - H2(e1)] }, floored at zero, with f
    the protocol's error-correction efficiency. The single-photon term is
    dropped when e1 >= 1/2, where the entropy saturates and single photons
    carry no key. The gains and error rates are in [0, 1]. Returns (floored, raw).
    """
    model.check_nonnegative(q_mu=q_mu, e_mu=e_mu, q1_lower=q1_lower, e1_upper=e1_upper)
    # binary_entropy rejects an e_mu above 1
    model.check_at_most_one(q_mu=q_mu, q1_lower=q1_lower, e1_upper=e1_upper)
    q1, h1 = (q1_lower, binary_entropy(e1_upper)) if e1_upper < 0.5 else (0.0, 0.0)
    raw = _key_rate(q_mu, binary_entropy(e_mu), q1, h1, protocol)
    return max(0.0, raw), raw


def skr_approx(
    receiver: model.ReceiverModel,
    channel: model.ChannelModel,
    mu: float,
    protocol: model.ProtocolParams,
    *,
    warn: bool = True,
) -> float:
    """Closed-form key-rate approximation for low background and small transmittance.

    -eta mu (1 + p_ap) f H2(e_det) + eta mu e^-mu (1 + p_ap) [1 - H2(e_det)]
    with e_det the afterpulse-corrected baseline error rate. No sifting factor
    is applied. Outside the validity region (background yield comparable to
    the transmittance, or transmittance not small) a RuntimeWarning is issued.
    An approximation that is not finite (mu infinite, or so large that it
    overflows) raises ModelDomainError.
    """
    model.check_nonnegative(mu=mu)
    eta = model.transmittance(receiver, channel)
    y0 = model.yield_background(receiver)
    if warn and (eta > _APPROX_ETA_MAX or y0 > _APPROX_BACKGROUND_FRACTION * eta):
        warnings.warn(
            "key-rate approximation used outside its validity region "
            f"(eta={eta:g}, y0={y0:g})",
            RuntimeWarning,
            stacklevel=2,
        )
    p_ap = model.aggregate_afterpulse(receiver)
    e_det = model.effective_baseline_error(
        receiver.intrinsic_error, receiver.background_error, p_ap
    )
    h = binary_entropy(e_det)
    rate = _skr_approx(eta, mu, 1.0 + p_ap, protocol.ec_efficiency, h, _libm_or_nan(math.exp, -mu))
    if not abs(rate) < math.inf:  # rejects NaN too
        raise ModelDomainError(f"key-rate approximation {rate!r} at mu={mu!r} is not finite")
    return rate


class LinkMetrics(NamedTuple):
    """Every protocol-level quantity for one operating point.

    ``estimate`` is None and ``reason`` is set when decoy estimation was
    infeasible; ``skr_lower`` is then zero and ``skr_raw`` is None.
    """

    q_mu: float
    e_mu: float
    q_nu1: float
    e_nu1: float
    y0_measured: float
    estimate: SinglePhotonEstimate | None
    skr_lower: float
    skr_raw: float | None
    skr_approx: float
    reason: str | None = None


# The closed forms of the scalar functions above and of ``link_table``, without
# their checks, clamps and branches, over floats or arrays. ``libm(fn, x)``
# applies a math function: ``_libm_or_nan`` to a float, ``_libm`` to an array.


def _libm(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """``_libm_or_nan(fn, v)`` at every element v of ``x``.

    numpy's vectorized exp/expm1/log2/log1p round differently from the C
    library in the last bit for a few percent of arguments. Near the optimum
    the intensity search compares key rates that differ by less than that,
    so the kernel calls the C library, as the scalar functions do. The
    elements reach ``fn`` through a memoryview, one float at a time, so no
    list of them is held. The result has the shape of ``x``.
    """
    values = x.ravel()
    try:
        y = np.fromiter(map(fn, memoryview(values)), dtype=float, count=values.size)
    except (OverflowError, ValueError):
        y = np.array([_libm_or_nan(fn, v) for v in values.tolist()])
    return y.reshape(x.shape)


def _libm_or_nan(fn: Callable[[float], float], v: float) -> float:
    """``fn(v)``, or inf where it overflows and nan where ``v`` is outside its domain."""
    try:
        return fn(v)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.nan


def _entropy(x, libm):
    """H2(x) for x in the open interval (0, 1)."""
    # log1p keeps the (1 - x) term accurate for x near 0
    return -(x * libm(math.log2, x) + (1.0 - x) * libm(math.log1p, -x) / _LN2)


def _binary_entropy(x: np.ndarray) -> np.ndarray:
    """Array form of binary_entropy; 0 outside the open interval (0, 1)."""
    return np.where((x > 0.0) & (x < 1.0), _entropy(x, _libm), 0.0)


def _nu1_terms(q_nu1, e_nu1, y0, nu1, e0, exp_nu1):
    """The Y1 and e1 bounds' mu-free parts: nu1^2, Q_nu1 e^nu1 and e1's numerator."""
    return nu1 * nu1, q_nu1 * exp_nu1, e_nu1 * q_nu1 * exp_nu1 - e0 * y0


def _y1_bound(q_mu, y0, mu, nu1, exp_mu, nu2, q_exp_nu1):
    """The lower bound on Y1, unclamped; ``exp_mu`` = e^mu, the rest as ``_nu1_terms``."""
    mu2 = mu * mu
    return (mu / (mu * nu1 - nu2)) * (
        q_exp_nu1 - q_mu * exp_mu * nu2 / mu2 - (mu2 - nu2) / mu2 * y0
    )


def _e1_bound(numerator, y1_lower, nu1):
    """The upper bound on e1 from the clamped Y1 bound and ``_nu1_terms``' numerator, unclamped."""
    return numerator / (y1_lower * nu1)


def _resolvable(q_mu, q_nu1_normal, y1, y1_lower, nu1):
    """Whether the yield bound is finite and it, y1 nu1 and the gains are normal floats.

    ``q_nu1_normal`` is ``q_nu1 >= sys.float_info.min``. A subnormal value
    has lost its relative precision; nan fails every test.
    """
    tiny = sys.float_info.min
    normal = (y1_lower >= tiny) & (y1_lower * nu1 >= tiny) & (q_mu >= tiny) & q_nu1_normal
    return (y1 < math.inf) & normal


def _key_rate(q_mu, h_mu, q1, h1, protocol):
    """Raw key rate q [-f Q_mu H2(E_mu) + Q1 (1 - H2(e1))], from the entropies."""
    return protocol.sifting_factor * (-protocol.ec_efficiency * q_mu * h_mu + q1 * (1.0 - h1))


def _skr_approx(eta, mu, amp, f, h, exp_neg_mu):
    """The key-rate approximation from amp = 1 + p_ap and h = H2(e_det)."""
    scale = eta * mu * amp
    return -scale * f * h + scale * exp_neg_mu * (1.0 - h)


class LinkTable(NamedTuple):
    """Every metric of METRIC_NAMES at an array of operating points (nodes).

    The nodes are the points of ``shape``, the broadcast shape of the
    kernel's inputs, numbered in row-major order. Each value and mask has
    the broadcast shape of the inputs it depends on, which broadcasts to
    ``shape``. The scalar metrics hold at every node. The link metrics hold
    only where the scalar closed forms return: ``domain_error`` marks the
    nodes where ``gain_total``, ``qber_total`` or ``estimate_single_photon``
    raise (``gain_error``, a gain outside (0, 1], or a decoy pair outside
    0 < nu1 < mu), and ``error(i)`` rebuilds that exception. At
    ``infeasible`` nodes ``estimate_single_photon`` raises
    EstimationInfeasibleError: the estimate metrics and ``skr_raw`` are
    undefined and ``skr_lower`` is 0. ``clamped`` marks bounds clipped into [0, 1].
    """

    values: dict[str, np.ndarray]
    mu: np.ndarray
    nu1: np.ndarray
    gain_error: np.ndarray
    domain_error: np.ndarray
    infeasible: np.ndarray
    clamped: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        """The broadcast shape of the kernel's inputs, on which the metrics together depend."""
        return np.broadcast(self.mu, self.nu1, *self.values.values()).shape

    def error(self, i: int) -> DecoyLinkError:
        """The exception the scalar model raises at ``domain_error`` node ``i``."""
        args = (self.values["q_mu"], self.values["q_nu1"], self.mu, self.nu1)
        shape = self.shape
        return raised(_check_link, *(np.broadcast_to(a, shape).flat[i] for a in args))

    def missing(self, name: str) -> np.ndarray:
        """Mask of the nodes where link metric ``name`` has no value."""
        if name in _ESTIMATE_METRICS:
            return self.domain_error | self.infeasible
        return self.domain_error


def link_table(
    p_ap: np.ndarray,
    e_prime: np.ndarray,
    p_dc: np.ndarray,
    eta: np.ndarray,
    mu: np.ndarray,
    nu1: np.ndarray,
    background_error: float,
    protocol: model.ProtocolParams,
) -> LinkTable:
    """Forward model, weak+vacuum bounds and key rates at every node at once.

    The array arguments are the aggregate afterpulse probability, intrinsic
    error rate, total dark-count probability, overall transmittance and the
    two decoy intensities, broadcast together: the nodes are the points of
    their broadcast shape. Each term is computed at the broadcast shape of
    the arguments it depends on, so an argument that varies along one axis
    only gives that axis's terms once per value. ``node_stage`` computes the
    terms that do not depend on ``mu`` and ``mu_stage`` the rest, so that a
    search over ``mu`` runs the first stage once. The closed forms are the
    ones the scalar functions (``gain_total``, ``qber_total``,
    ``estimate_single_photon``, ``skr_lower_bound``, ``skr_approx``) run on
    floats, so the results equal theirs bit for bit.
    """
    terms, outputs = node_stage(p_ap, e_prime, p_dc, eta, nu1, background_error)
    return mu_stage(mu, background_error, protocol, terms, outputs)


def node_stage(
    p_ap: np.ndarray,
    e_prime: np.ndarray,
    p_dc: np.ndarray,
    eta: np.ndarray,
    nu1: np.ndarray,
    background_error: float,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """The first stage of ``link_table``: the terms that do not depend on mu.

    Returns (terms, outputs): the arguments of ``mu_core``, and the metrics
    that only ``mu_stage``'s table adds.
    """
    e0 = background_error
    with np.errstate(all="ignore"):
        amp = 1.0 + p_ap
        y0 = amp * p_dc
        detected_nu1 = -_libm(math.expm1, -eta * nu1)
        signal_error = e_prime + e0 * p_ap
        q_nu1, e_nu1 = model.gain_and_qber(
            y0, detected_nu1 * amp, signal_error * detected_nu1, e0
        )
        nu2, q_exp_nu1, e1_numerator = _nu1_terms(q_nu1, e_nu1, y0, nu1, e0, _libm(math.exp, nu1))
        e_det = model.e_detector(e_prime, e0, p_ap)
        return dict(
            eta=eta, nu1=nu1, amp=amp, y0=y0, signal_error=signal_error, nu2=nu2,
            q_exp_nu1=q_exp_nu1, e1_numerator=e1_numerator,
            q_nu1_error=(q_nu1 > 1.0) | (q_nu1 <= 0.0), q_nu1_normal=q_nu1 >= sys.float_info.min,
        ), dict(
            p_ap=p_ap, e_detector=e_det, visibility=1.0 - 2.0 * e_det, h_det=_binary_entropy(e_det),
            baseline_error_change=model.relative_change(e_prime, e0, p_ap), q_nu1=q_nu1,
            e_nu1=e_nu1,
        )


def mu_core(
    mu: np.ndarray,
    background_error: float,
    protocol: model.ProtocolParams,
    *,
    eta, nu1, amp, y0, signal_error, nu2, q_exp_nu1, e1_numerator, q_nu1_error, q_nu1_normal,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The intensity search's objective at ``mu`` from ``node_stage``'s terms, and the parts.

    The objective is ``skr_lower`` (0 where the bounds are not ``resolvable``),
    or -inf at a ``gain_error``. It does not test the decoy pair: the search
    probes only 0 < nu1 < mu, and ``mu_stage`` tests it for the table it
    builds from the parts, the arrays computed on the way. Callers enter
    ``np.errstate(all="ignore")`` once per search or table, not per call.
    """
    e0 = background_error
    detected_mu = -_libm(math.expm1, -eta * mu)
    q_mu, e_mu = model.gain_and_qber(y0, detected_mu * amp, signal_error * detected_mu, e0)
    exp_neg_mu = _libm(math.exp, -mu)
    y1 = _y1_bound(q_mu, y0, mu, nu1, _libm(math.exp, mu), nu2, q_exp_nu1)
    y1_lower = np.minimum(y1, 1.0)
    e1 = _e1_bound(e1_numerator, y1_lower, nu1)
    e1_upper = np.minimum(np.maximum(e1, 0.0), 1.0)
    q1_lower = y1_lower * mu * exp_neg_mu
    # both entropies in one pass, each at its own shape
    h = _binary_entropy(np.concatenate((e_mu.ravel(), e1_upper.ravel())))
    h_mu, h1 = h[:e_mu.size].reshape(e_mu.shape), h[e_mu.size:].reshape(e1_upper.shape)
    skr_raw = _key_rate(q_mu, h_mu, np.where(e1_upper < 0.5, q1_lower, 0.0), h1, protocol)
    resolvable = _resolvable(q_mu, q_nu1_normal, y1, y1_lower, nu1)
    gain_error = (q_mu > 1.0) | (q_mu <= 0.0) | q_nu1_error
    skr_lower = np.where(resolvable & (skr_raw > 0.0), skr_raw, 0.0)
    return np.where(gain_error, -np.inf, skr_lower), dict(
        q_mu=q_mu, e_mu=e_mu, exp_neg_mu=exp_neg_mu, y1=y1, y1_lower=y1_lower, e1=e1,
        e1_upper=e1_upper, q1_lower=q1_lower, skr_raw=skr_raw, skr_lower=skr_lower,
        resolvable=resolvable, gain_error=gain_error,
    )


def mu_stage(
    mu: np.ndarray,
    background_error: float,
    protocol: model.ProtocolParams,
    terms: dict[str, np.ndarray],
    outputs: dict[str, np.ndarray],
) -> LinkTable:
    """The second stage of ``link_table``: ``mu_core``'s parts, the decoy-pair test and the rest."""
    with np.errstate(all="ignore"):
        _, core = mu_core(mu, background_error, protocol, **terms)
        core["skr_approx"] = _skr_approx(
            terms["eta"], mu, terms["amp"], protocol.ec_efficiency, outputs["h_det"],
            core["exp_neg_mu"],
        )
    found = {**outputs, **core, "y0": terms["y0"]}
    nu1, gain_error = terms["nu1"], core["gain_error"]
    domain_error = gain_error | ~((0.0 < nu1) & (nu1 < mu))
    return LinkTable(
        {name: found[name] for name in METRIC_NAMES}, mu, nu1, gain_error, domain_error,
        ~domain_error & ~core["resolvable"],
        clamped=(core["y1"] > 1.0) | (core["e1"] != core["e1_upper"]),
    )


def _check_link(q_mu: float, q_nu1: float, mu: float, nu1: float) -> None:
    """The link model's checks at one node, in the order the scalar functions meet them."""
    model.check_gain(q_mu)
    model.check_detections(q_mu)
    model.check_gain(q_nu1)
    model.check_detections(q_nu1)
    check_decoy_pair(mu, nu1)


def raised(check: Callable, *args) -> DecoyLinkError:
    """The DecoyLinkError that scalar ``check`` raises on one node's ``args``, as floats."""
    args = tuple(map(float, args))
    try:
        check(*args)
    except DecoyLinkError as exc:
        return exc
    raise AssertionError(f"{check.__name__}{args!r} accepted a node its mask rejected")


def _afterpulse_at(receiver: model.ReceiverModel, p: np.ndarray) -> np.ndarray:
    """``aggregate_afterpulse`` of the receiver with every detector set to each value of ``p``.

    Where the weighted sum overflows for a finite value (near the float
    maximum, which the model rejects anyway), the mean weight times it stands in.
    """
    weights = [1.0 + det.bias for det in receiver.detectors]
    n = len(weights)

    def mean(v: float) -> float:
        try:
            total = math.fsum(w * v for w in weights) / n
        except OverflowError:
            total = math.inf
        if math.isinf(total) and math.isfinite(v):
            total = math.fsum(w / n for w in weights) * v
        return total

    return np.array([mean(v) for v in p.tolist()])


def boxes(shape: tuple[int, ...], max_nodes: int) -> Iterator[tuple[range, ...]]:
    """The points of ``shape`` as row-major sub-boxes of at most ``max_nodes`` points.

    Each box is one range per axis: the axes after some axis k whole, a run
    of values of axis k, and one value of each axis before it. So a box's
    points are consecutive in row-major order, and the boxes follow one
    another in row-major order. A shape of at most ``max_nodes`` points is
    one box.
    """
    whole = tuple(range(n) for n in shape)
    if math.prod(shape) <= max_nodes:
        yield whole
        return
    # The axes after ``split`` are whole in every box; the box takes a run
    # of values of axis ``split`` and one value of each axis before it.
    split, inner = len(shape) - 1, 1
    while split and inner * shape[split] <= max_nodes:
        inner *= shape[split]
        split -= 1
    step = max_nodes // inner
    for outer in np.ndindex(*shape[:split]):
        for start in range(0, shape[split], step):
            run = range(start, min(start + step, shape[split]))
            yield (*(range(i, i + 1) for i in outer), run, *whole[split + 1:])


def cut(values: np.ndarray, box: tuple[range, ...]) -> np.ndarray:
    """``values``, which broadcasts over a shape, cut to ``box``, a sub-box of that shape.

    The result is a view; an axis along which ``values`` has length 1 stays whole.
    """
    return values[(..., *(
        slice(r.start, r.stop) if n > 1 else slice(None)
        for r, n in zip(box[len(box) - values.ndim:], values.shape)
    ))]


# The nodes of a box of a Grid: (axis value indices, kernel inputs); see ``Grid.slab``.
Slab = tuple[tuple[np.ndarray, ...], dict[str, np.ndarray]]


class Grid:
    """Value types and axis values turned into the inputs of ``link_table``.

    ``intensities`` maps those of ``mu`` and ``nu1`` the caller needs to their
    base values, and ``axes`` is a sequence of (axis name, values[, coupled])
    tuples. The nodes are the points of the axes' product in row-major order
    (first axis outermost), one node for no axes. Each axis sets the kernel
    input that ``AXES`` names, computed once per axis value, and the inputs
    that ``coupled`` maps to one value per axis value (the preset's loss sets
    nu1); the other inputs and ``background_error`` come from the value
    types. ``slab`` hands them out over a sub-box of the grid. Axis values
    that the model's value types reject are kept with the validator's message.
    """

    def __init__(
        self,
        receiver: model.ReceiverModel,
        channel: model.ChannelModel,
        intensities: dict[str, float],
        axes: Iterable[tuple],
    ) -> None:
        axes = tuple(axes)
        self.values = tuple(np.asarray(values, dtype=float) for _, values, *_ in axes)
        self.shape = tuple(len(v) for v in self.values)
        self.size = math.prod(self.shape)
        self.background_error = receiver.background_error
        # kernel input name -> its value at every node no axis sets
        self._base = {
            "p_ap": model.aggregate_afterpulse(receiver),
            "e_prime": receiver.intrinsic_error,
            "p_dc": receiver.dark_count_prob_total,
            "eta": model.transmittance(receiver, channel),
            **intensities,
        }
        # kernel input name -> (axis position, value per axis value)
        self._inputs: dict[str, tuple[int, np.ndarray]] = {}
        # axis name -> (axis position, {axis value index: validation message})
        self._rejected: dict[str, tuple[int, dict[int, str]]] = {}
        for pos, ((name, _, *coupled), values) in enumerate(zip(axes, self.values)):
            per_value, bad = values, None
            if name == "p_ap":
                per_value = _afterpulse_at(receiver, values)
                bad = ~((values >= 0.0) & (values <= 1.0))
                build = lambda v: replace(receiver.detectors[0], afterpulse_prob=v)
            elif name == "intrinsic_error":
                bad = ~((values >= 0.0) & (values <= 1.0))
                build = lambda v: replace(receiver, intrinsic_error=v)
            elif name == "dark_count_prob":
                bad = ~((values >= 0.0) & (values < 1.0))
                build = lambda v: replace(receiver, dark_count_prob_total=v)
            elif name in ("loss_db", "distance_km"):
                with np.errstate(over="ignore"):  # an inf loss is a transmittance of 0
                    losses = values if name == "loss_db" else channel.attenuation_db_per_km * values
                per_value = np.array([
                    receiver.detector_efficiency * model.loss_transmittance(loss)
                    for loss in losses.tolist()
                ])
            for key, per_key in {AXES[name][0]: per_value, **dict(*coupled)}.items():
                self._inputs[key] = (pos, np.asarray(per_key, dtype=float))
            if bad is not None:
                self._rejected[name] = (pos, {
                    int(i): str(raised(build, values[i])) for i in np.flatnonzero(bad)
                })

    def slab(self, box: tuple[range, ...] | None = None) -> Slab:
        """The nodes of ``box``, one range of axis value indices per axis (None: the grid).

        The slab is (index, inputs). ``index[k]`` holds the box's value
        indices on axis k, shaped to vary along axis k only. ``inputs`` maps
        each kernel input to its values, shaped to broadcast over the box:
        an axis's input varies along that axis only, and an input no axis
        sets has size 1. The slab's nodes are the points of its box in
        row-major order; ``boxes`` cuts a grid into boxes.
        """
        if box is None:
            box = tuple(range(n) for n in self.shape)
        index = np.ix_(*box)
        inputs = {name: np.full((1,) * len(box), value) for name, value in self._base.items()}
        for name, (pos, per_value) in self._inputs.items():
            inputs[name] = per_value[index[pos]]
        return index, inputs

    def rejections(self, index: tuple[np.ndarray, ...]) -> dict[int, str]:
        """Node -> message of its first axis, in ``AXES`` order, whose value the model rejects.

        ``index`` is a slab's, as ``slab`` gives it; a node is keyed by its
        row-major position in the slab.
        """
        shape = tuple(i.size for i in index)
        found: dict[int, str] = {}
        for name in AXES:
            if name in self._rejected:
                pos, texts = self._rejected[name]
                at = per_node(index[pos], shape)
                for i in np.flatnonzero(np.isin(at, list(texts))).tolist():
                    found.setdefault(i, texts[int(at[i])])
        return found


def per_node(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``values``, an array that broadcasts to ``shape``, as one entry per point of ``shape``.

    The points are in row-major order. (A copy into a new array costs a
    fraction of ``np.broadcast_to``'s call on the small arrays of a slab.)
    """
    nodes = np.empty(shape, dtype=values.dtype)
    nodes[...] = values
    return nodes.ravel()


def with_none(values: np.ndarray, missing: np.ndarray) -> list[float | None]:
    """``values``, a 1-D array, as a list, with None where ``missing``."""
    column = values.tolist()
    for i in np.flatnonzero(missing).tolist():
        column[i] = None
    return column


# Held for the whole of each ``record_list`` build, so that builds run one at a
# time: one cannot turn the collector on inside another, or leave it off after both.
_BUILD_LOCK = threading.Lock()


def record_list(record_type: type, columns: Iterable[Iterable]) -> list:
    """One ``record_type``, a NamedTuple, per row of ``columns``, built with the collector off.

    Each row is built by the C-level ``tuple.__new__``. The records hold no
    reference cycles, so passes of Python's cyclic garbage collector over them
    could free nothing. It is turned on again after the build only if it was
    on before it, so a ``gc.disable()`` made during a build is undone.
    """
    with _BUILD_LOCK:
        was = gc.isenabled()
        gc.disable()
        try:
            return list(map(partial(tuple.__new__, record_type), zip(*columns)))
        finally:
            if was:
                gc.enable()


def evaluate_link(
    receiver: model.ReceiverModel,
    channel: model.ChannelModel,
    intensities: model.IntensitySet,
    protocol: model.ProtocolParams,
) -> LinkMetrics:
    """Run the full forward model plus decoy estimation for one operating point."""
    mu = intensities.signal_mu
    nu1 = intensities.weak_decoy_nu1
    y0 = model.yield_background(receiver)
    q_mu = model.gain_total(receiver, channel, mu)
    e_mu = model.qber_total(receiver, channel, mu)
    q_nu1 = model.gain_total(receiver, channel, nu1)
    e_nu1 = model.qber_total(receiver, channel, nu1)
    approx = skr_approx(receiver, channel, mu, protocol, warn=False)
    try:
        estimate = estimate_single_photon(
            q_mu, e_mu, q_nu1, e_nu1, y0, mu, nu1, receiver.background_error
        )
    except EstimationInfeasibleError:
        return LinkMetrics(
            q_mu, e_mu, q_nu1, e_nu1, y0, None, 0.0, None, approx, ESTIMATION_INFEASIBLE
        )
    skr_low, skr_raw = skr_lower_bound(
        q_mu, e_mu, estimate.q1_lower, estimate.e1_upper, protocol
    )
    return LinkMetrics(q_mu, e_mu, q_nu1, e_nu1, y0, estimate, skr_low, skr_raw, approx)
