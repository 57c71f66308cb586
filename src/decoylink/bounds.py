"""Weak+vacuum single-photon estimation and secure-key-rate bounds.

The scalar functions are the closed forms, one operating point per call.
``link_table`` evaluates the same closed forms with numpy over a 1-D array of
operating points; it is the one evaluation path of ``evaluate_link``, the
sweeps and the intensity optimizer. ``Grid`` turns the value types and a
grid's axis values into its per-node inputs, for every caller (the sweeps,
the iso-QBER contour and the one-node calls). ``gain_and_qber`` is the array
gain and QBER that ``link_table`` and the threshold bisection share.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from . import model
from .errors import DecoyLinkError, EstimationInfeasibleError, ValidationError

_LN2 = math.log(2.0)

# Metrics computable from (intrinsic_error, background_error, p_ap) alone;
# these stay valid for afterpulse values beyond the per-detector range.
SCALAR_METRICS = ("p_ap", "e_detector", "baseline_error_change", "visibility")
LINK_METRICS = (
    "y0",
    "q_mu",
    "e_mu",
    "q_nu1",
    "e_nu1",
    "y1_lower",
    "e1_upper",
    "q1_lower",
    "skr_raw",
    "skr_lower",
    "skr_approx",
)
METRIC_NAMES = SCALAR_METRICS + LINK_METRICS
# Link metrics that exist only when decoy estimation is feasible.
_ESTIMATE_METRICS = ("y1_lower", "e1_upper", "q1_lower", "skr_raw")
# Reason reported when decoy estimation finds no positive single-photon yield.
ESTIMATION_INFEASIBLE = "estimation_infeasible"

# Validity guards for the low-noise, high-loss key-rate approximation.
_APPROX_ETA_MAX = 0.1
_APPROX_BACKGROUND_FRACTION = 0.1


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy with the continuous extension H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"binary_entropy argument must be in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    # log1p keeps the (1 - x) term accurate for x near 0
    return -(x * math.log2(x) + (1.0 - x) * math.log1p(-x) / _LN2)


@dataclass(frozen=True)
class SinglePhotonEstimate:
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

    and Q1_lower = Y1_lower mu e^-mu. Bounds outside [0, 1] are clamped and
    flagged; a yield bound that is not positive and finite (nan or inf for a
    weak decoy too faint to resolve) raises EstimationInfeasibleError.
    """
    check_decoy_pair(mu, nu1)
    # a nu1 so small that mu nu1 - nu1^2 underflows to 0 leaves the bound undefined
    y1 = (mu / ((mu * nu1 - nu1 * nu1) or math.nan)) * (
        q_nu1 * math.exp(nu1)
        - q_mu * math.exp(mu) * (nu1 * nu1) / (mu * mu)
        - (mu * mu - nu1 * nu1) / (mu * mu) * y0
    )
    if not 0.0 < y1 < math.inf:
        raise EstimationInfeasibleError(
            f"single-photon yield bound {y1!r} is not positive and finite; "
            "link too noisy, or weak decoy too faint, for a positive key"
        )
    clamped = False
    if y1 > 1.0:
        y1 = 1.0
        clamped = True
    e1 = (e_nu1 * q_nu1 * math.exp(nu1) - e0 * y0) / (y1 * nu1)
    if e1 < 0.0:
        e1 = 0.0
        clamped = True
    elif e1 > 1.0:
        e1 = 1.0
        clamped = True
    return SinglePhotonEstimate(
        y1_lower=y1,
        e1_upper=e1,
        q1_lower=y1 * mu * math.exp(-mu),
        clamped=clamped,
    )


def check_decoy_pair(mu: float, nu1: float) -> None:
    """Reject intensities outside 0 < nu1 < mu, where weak+vacuum estimation is undefined."""
    if not 0.0 < nu1 < mu:
        raise ValidationError(
            f"weak+vacuum estimation needs 0 < nu1 < mu, got nu1={nu1!r} mu={mu!r}"
        )


def skr_lower_bound(
    q_mu: float,
    e_mu: float,
    q1_lower: float,
    e1_upper: float,
    protocol: model.ProtocolParams,
    *,
    ec_efficiency_fn: Callable[[float], float] | None = None,
) -> tuple[float, float]:
    """Secure-key-rate lower bound in bits per pulse.

    raw = q { -f(E_mu) Q_mu H2(E_mu) + Q1 [1 - H2(e1)] }, floored at zero.
    The single-photon term is dropped when e1 >= 1/2, where the entropy
    saturates and single photons carry no key. ``ec_efficiency_fn`` may map
    the observed error rate to an error-correction efficiency; by default the
    protocol's constant is used. Returns (floored, raw).
    """
    f = protocol.ec_efficiency if ec_efficiency_fn is None else ec_efficiency_fn(e_mu)
    if e1_upper < 0.5:
        single = q1_lower * (1.0 - binary_entropy(e1_upper))
    else:
        single = 0.0
    raw = protocol.sifting_factor * (-f * q_mu * binary_entropy(e_mu) + single)
    return max(0.0, raw), raw


def skr_approx(
    receiver: model.ReceiverModel,
    channel: model.ChannelModel,
    mu: float,
    protocol: model.ProtocolParams,
    *,
    ec_efficiency_fn: Callable[[float], float] | None = None,
    warn: bool = True,
) -> float:
    """Closed-form key-rate approximation for low background and small transmittance.

    -eta mu (1 + p_ap) f(e_det) H2(e_det) + eta mu e^-mu (1 + p_ap) [1 - H2(e_det)]
    with e_det the afterpulse-corrected baseline error rate. No sifting factor
    is applied. Outside the validity region (background yield comparable to
    the transmittance, or transmittance not small) a RuntimeWarning is issued.
    """
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
    f = protocol.ec_efficiency if ec_efficiency_fn is None else ec_efficiency_fn(e_det)
    h = binary_entropy(e_det)
    scale = eta * mu * (1.0 + p_ap)
    return -scale * f * h + scale * math.exp(-mu) * (1.0 - h)


@dataclass(frozen=True)
class LinkMetrics:
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


def _libm(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """``fn`` from the math module at every element of ``x``.

    numpy's vectorized exp/expm1/log2/log1p round differently from the C
    library in the last bit for a few percent of arguments. Near the optimum
    the intensity search compares key rates that differ by less than that,
    so the kernel calls the C library, as the scalar functions do, and its
    results equal theirs bit for bit. Where math raises (overflow, or an
    argument outside the domain at a node whose values are discarded), the
    element becomes inf or nan instead.
    """
    values = x.tolist()
    try:
        return np.fromiter(map(fn, values), dtype=float, count=len(values))
    except (OverflowError, ValueError):
        return np.array([_libm_or_nan(fn, v) for v in values])


def _libm_or_nan(fn: Callable[[float], float], v: float) -> float:
    try:
        return fn(v)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.nan


def _binary_entropy(x: np.ndarray) -> np.ndarray:
    """Array form of binary_entropy; 0 outside the open interval (0, 1)."""
    h = -(x * _libm(math.log2, x) + (1.0 - x) * _libm(math.log1p, -x) / _LN2)
    return np.where((x > 0.0) & (x < 1.0), h, 0.0)


def gain_and_qber(
    background: np.ndarray | float,
    signal: np.ndarray,
    signal_error: np.ndarray,
    e0: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Total gain and QBER from background and signal terms, in ``qber_total``'s order.

    ``background`` is the background yield (1 + p_ap) p_dc, ``signal`` the
    signal gain (1 - exp(-eta mu)) (1 + p_ap) and ``signal_error`` its
    erroneous part (e' + e0 p_ap)(1 - exp(-eta mu)).
    """
    gain = background + signal
    return gain, (e0 * background + signal_error) / gain


@dataclass(frozen=True)
class LinkTable:
    """Every metric of METRIC_NAMES at a 1-D array of operating points (nodes).

    The scalar metrics hold at every node. The link metrics hold only where
    the scalar closed forms return: ``gain_error`` and ``decoy_error`` mark
    the nodes where ``gain_total``, ``qber_total`` or
    ``estimate_single_photon`` raise (a gain outside (0, 1], or a decoy pair
    outside 0 < nu1 < mu), and ``error(i)`` rebuilds that exception. At
    ``infeasible`` nodes the single-photon yield bound is not positive and
    finite: the estimate metrics and ``skr_raw`` are undefined and
    ``skr_lower`` is 0. ``clamped`` marks bounds clipped into [0, 1].
    """

    values: dict[str, np.ndarray]
    mu: np.ndarray
    nu1: np.ndarray
    gain_error: np.ndarray
    decoy_error: np.ndarray
    domain_error: np.ndarray
    infeasible: np.ndarray
    clamped: np.ndarray

    def error(self, i: int) -> DecoyLinkError:
        """The exception the scalar model raises at ``domain_error`` node ``i``.

        The checks run in the order the scalar functions meet them, on this
        node's values, so the message is the scalar model's own.
        """
        q_mu = float(self.values["q_mu"][i])
        q_nu1 = float(self.values["q_nu1"][i])
        try:
            model.check_gain(q_mu)
            model.check_detections(q_mu)
            model.check_gain(q_nu1)
            model.check_detections(q_nu1)
            check_decoy_pair(float(self.mu[i]), float(self.nu1[i]))
        except DecoyLinkError as exc:
            return exc
        raise AssertionError(f"node {i} passes every link check")

    def missing(self, name: str) -> np.ndarray:
        """Mask of the nodes where metric ``name`` has no value."""
        if name in _ESTIMATE_METRICS:
            return self.domain_error | self.infeasible
        if name in LINK_METRICS:
            return self.domain_error
        return np.zeros(self.mu.shape, dtype=bool)

    def cells(self, i: int) -> dict[str, float | None]:
        """Every metric at node ``i`` as a float, or None where it has no value."""
        return {
            name: None if self.missing(name)[i] else float(column[i])
            for name, column in self.values.items()
        }


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

    Each array argument has shape (n,): aggregate afterpulse probability,
    intrinsic error rate, total dark-count probability, overall
    transmittance and the two decoy intensities of each node. The formulas
    and their order of operations are those of the scalar functions
    (``gain_total``, ``qber_total``, ``estimate_single_photon``,
    ``skr_lower_bound``, ``skr_approx``), evaluated once per node, so the
    results equal theirs bit for bit.
    """
    e0 = background_error
    f = protocol.ec_efficiency
    with np.errstate(all="ignore"):
        amp = 1.0 + p_ap
        y0 = amp * p_dc
        detected_mu = -_libm(math.expm1, -eta * mu)
        detected_nu1 = -_libm(math.expm1, -eta * nu1)
        signal_error = e_prime + e0 * p_ap
        q_mu, e_mu = gain_and_qber(y0, detected_mu * amp, signal_error * detected_mu, e0)
        q_nu1, e_nu1 = gain_and_qber(y0, detected_nu1 * amp, signal_error * detected_nu1, e0)
        e_det = signal_error / amp

        exp_nu1 = _libm(math.exp, nu1)
        exp_neg_mu = _libm(math.exp, -mu)
        mu2 = mu * mu
        nu2 = nu1 * nu1
        y1 = (mu / (mu * nu1 - nu2)) * (
            q_nu1 * exp_nu1 - q_mu * _libm(math.exp, mu) * nu2 / mu2 - (mu2 - nu2) / mu2 * y0
        )
        y1_lower = np.minimum(y1, 1.0)
        e1 = (e_nu1 * q_nu1 * exp_nu1 - e0 * y0) / (y1_lower * nu1)
        e1_upper = np.minimum(np.maximum(e1, 0.0), 1.0)
        q1_lower = y1_lower * mu * exp_neg_mu
        single = np.where(e1_upper < 0.5, q1_lower * (1.0 - _binary_entropy(e1_upper)), 0.0)
        skr_raw = protocol.sifting_factor * (-f * q_mu * _binary_entropy(e_mu) + single)

        h = _binary_entropy(e_det)
        scale = eta * mu * amp
        skr_approx = -scale * f * h + scale * exp_neg_mu * (1.0 - h)
        change = (e0 / e_prime - 1.0) * p_ap / amp

    gain_error = (q_mu > 1.0) | (q_mu <= 0.0) | (q_nu1 > 1.0) | (q_nu1 <= 0.0)
    decoy_error = ~gain_error & ~((0.0 < nu1) & (nu1 < mu))
    domain_error = gain_error | decoy_error
    infeasible = ~domain_error & ~((y1 > 0.0) & (y1 < math.inf))
    values = {
        "p_ap": p_ap,
        "e_detector": e_det,
        "baseline_error_change": change,
        "visibility": 1.0 - 2.0 * e_det,
        "y0": y0,
        "q_mu": q_mu,
        "e_mu": e_mu,
        "q_nu1": q_nu1,
        "e_nu1": e_nu1,
        "y1_lower": y1_lower,
        "e1_upper": e1_upper,
        "q1_lower": q1_lower,
        "skr_raw": skr_raw,
        "skr_lower": np.where(~infeasible & (skr_raw > 0.0), skr_raw, 0.0),
        "skr_approx": skr_approx,
    }
    return LinkTable(
        values=values,
        mu=mu,
        nu1=nu1,
        gain_error=gain_error,
        decoy_error=decoy_error,
        domain_error=domain_error,
        infeasible=infeasible,
        clamped=(y1 > 1.0) | (e1 != e1_upper),
    )


def error_text(build: Callable, *args) -> str:
    """The message of the DecoyLinkError that ``build(*args)`` raises."""
    try:
        build(*args)
    except DecoyLinkError as exc:
        return str(exc)
    raise AssertionError(f"{build.__name__}{args!r} accepted a node its mask rejected")


def _afterpulse_at(receiver: model.ReceiverModel, p: np.ndarray) -> np.ndarray:
    """``aggregate_afterpulse`` of the receiver with every detector set to each value of ``p``."""
    weights = [1.0 + det.bias for det in receiver.detectors]
    return np.array([math.fsum(w * v for w in weights) / len(weights) for v in p.tolist()])


class Grid:
    """Value types and axis values turned into per-node inputs of ``link_table``.

    ``intensities`` maps those of ``mu`` and ``nu1`` the caller needs to their
    base values, and ``axes`` is a sequence of (axis name, values) pairs. The
    nodes are the points of the axes' product in row-major order (first axis
    outermost), one node for no axes. Each axis sets one kernel input,
    computed once per axis value; the other inputs come from the value types.
    Axis values that the model's value types reject are kept with the
    validator's message.
    """

    _INPUT_OF_AXIS = {
        "p_ap": "p_ap",
        "intrinsic_error": "e_prime",
        "dark_count_prob": "p_dc",
        "loss_db": "eta",
        "distance_km": "eta",
        "signal_mu": "mu",
        "weak_decoy_nu1": "nu1",
    }

    def __init__(
        self,
        receiver: model.ReceiverModel,
        channel: model.ChannelModel,
        intensities: dict[str, float],
        axes: Iterable[tuple[str, Iterable[float]]],
    ) -> None:
        axes = tuple(axes)
        self.values = tuple(np.asarray(values, dtype=float) for _, values in axes)
        self.shape = tuple(len(v) for v in self.values)
        self.size = math.prod(self.shape)
        # kernel input name -> its value at every node no axis sets
        self.base = {
            "p_ap": model.aggregate_afterpulse(receiver),
            "e_prime": receiver.intrinsic_error,
            "p_dc": receiver.dark_count_prob_total,
            "eta": model.transmittance(receiver, channel),
            **intensities,
        }
        # kernel input name -> (axis position, value per axis value)
        self.inputs: dict[str, tuple[int, np.ndarray]] = {}
        # axis name -> (axis position, {axis value index: validation message})
        self.rejected: dict[str, tuple[int, dict[int, str]]] = {}
        for pos, ((name, _), values) in enumerate(zip(axes, self.values)):
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
                losses = values if name == "loss_db" else channel.attenuation_db_per_km * values
                per_value = np.array([
                    model.transmittance(receiver, model.ChannelModel(transmission_loss_db=loss))
                    for loss in losses.tolist()
                ])
            self.inputs[self._INPUT_OF_AXIS[name]] = (pos, per_value)
            if bad is not None:
                self.rejected[name] = (pos, {
                    int(i): error_text(build, float(values[i])) for i in np.flatnonzero(bad)
                })

    def block(self, nodes: np.ndarray) -> tuple[tuple[np.ndarray, ...], dict[str, np.ndarray]]:
        """Axis value indices and kernel inputs of the given flat node indices."""
        index = np.unravel_index(nodes, self.shape) if self.shape else ()
        inputs = {name: np.full(len(nodes), value) for name, value in self.base.items()}
        for name, (pos, per_value) in self.inputs.items():
            inputs[name] = per_value[index[pos]]
        return index, inputs

    def rejections(self, index: tuple[np.ndarray, ...], names: Iterable[str]) -> dict[int, str]:
        """Node -> message of the first of the axes ``names`` whose value the model rejects.

        ``index`` holds the nodes' axis value indices, as ``block`` returns
        them; a node is keyed by its position in them.
        """
        found: dict[int, str] = {}
        for name in names:
            if name in self.rejected:
                pos, texts = self.rejected[name]
                for i in np.flatnonzero(np.isin(index[pos], list(texts))).tolist():
                    found.setdefault(i, texts[int(index[pos][i])])
        return found


def node_table(
    receiver: model.ReceiverModel,
    channel: model.ChannelModel,
    intensities: model.IntensitySet,
    protocol: model.ProtocolParams,
) -> LinkTable:
    """``link_table`` at one operating point; raises what the scalar model raises there."""
    base = {"mu": intensities.signal_mu, "nu1": intensities.weak_decoy_nu1}
    _, x = Grid(receiver, channel, base, ()).block(np.arange(1))
    table = link_table(**x, background_error=receiver.background_error, protocol=protocol)
    if table.domain_error[0]:
        raise table.error(0)
    return table


def evaluate_link(
    receiver: model.ReceiverModel,
    channel: model.ChannelModel,
    intensities: model.IntensitySet,
    protocol: model.ProtocolParams,
) -> LinkMetrics:
    """Run the full forward model plus decoy estimation for one operating point."""
    table = node_table(receiver, channel, intensities, protocol)
    cells = table.cells(0)
    infeasible = bool(table.infeasible[0])
    estimate = None
    if not infeasible:
        estimate = SinglePhotonEstimate(
            y1_lower=cells["y1_lower"],
            e1_upper=cells["e1_upper"],
            q1_lower=cells["q1_lower"],
            clamped=bool(table.clamped[0]),
        )
    return LinkMetrics(
        q_mu=cells["q_mu"],
        e_mu=cells["e_mu"],
        q_nu1=cells["q_nu1"],
        e_nu1=cells["e_nu1"],
        y0_measured=cells["y0"],
        estimate=estimate,
        skr_lower=cells["skr_lower"],
        skr_raw=cells["skr_raw"],
        skr_approx=cells["skr_approx"],
        reason=ESTIMATION_INFEASIBLE if infeasible else None,
    )
