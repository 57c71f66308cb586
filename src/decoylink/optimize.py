"""Numerical solvers: optimal signal intensity and iso-QBER threshold tracing."""
from __future__ import annotations

import math
from typing import NamedTuple

# The package before numpy: see the note in cli.py.
from . import model
from .bounds import (
    Grid, LinkTable, binary_entropy, boxes, check_decoy_pair, cut, mu_core, mu_stage, node_stage,
    per_node, raised, record_list, with_none,
)
from .errors import DecoyLinkError, NoSolutionError, ValidationError

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Search interval for the dark-count threshold and lower margin above the
# weak-decoy intensity when bracketing the signal intensity.
DARK_COUNT_CAP = 0.1
MU_BRACKET_MARGIN = 1e-6
MU_BRACKET_MAX = 1.5
_GRID_SEED_POINTS = 64
# Most points per probe (one bounds.mu_core call) of the intensity search: a
# seed-grid probe takes a bounds.boxes box of whole nodes of
# _GRID_SEED_POINTS points each (at least one node), a golden-section step
# runs of this many nodes. Bounds the kernel's temporaries however many
# nodes search together; the final table at the optimum is one
# bounds.mu_stage call per slab, as a fixed-mu link_table call is.
_SEED_SLICE_ROWS = 2048
# While at most this many nodes are still searching, a golden-section probe
# takes two steps on 3 points per node, at most 192 <= _SEED_SLICE_ROWS. One
# mu_core call on 3n points costs two on n near n = 100, the whole search near 64-80.
_LOOKAHEAD_NODES = 64
# Reason reported when no signal intensity in the bracket gives a positive key.
NO_POSITIVE_KEY = "no_positive_key"
# The intensity search stops once its bracket is within ABS_TOLERANCE, at most
# 42 steps; the dark-count bisection within ABS_TOLERANCE of the target QBER
# (both read at each call), or once no float is left inside its bracket: each
# step halves it, so that takes at most _HALVINGS (1073), 2 spare for rounding.
ABS_TOLERANCE = 1e-10
_HALVINGS = math.ceil(math.log2(DARK_COUNT_CAP) - math.log2(math.ulp(0.0))) + 2


class OptimalMu(NamedTuple):
    """Root of the optimal-intensity condition, with its residual.

    ``boundary`` marks the degenerate zero-error case where the condition's
    right side vanishes and the optimum sits at the interval edge mu = 1.
    """

    mu: float
    residual: float
    boundary: bool = False


class MaximizeResult(NamedTuple):
    """Outcome of the direct key-rate maximization over the signal intensity."""

    mu: float
    skr: float
    reason: str | None = None


class MuSearch(NamedTuple):
    """Outcome of the lockstep key-rate maximization at the nodes of a shape.

    ``table`` holds every metric at the optimal intensity ``table.mu``, which
    has the nodes' shape, the broadcast shape of the inputs. ``errors`` maps
    the nodes, by row-major position, whose bracket or decoy pair is
    rejected, as ``maximize_skr_over_mu`` would raise, to the exception;
    their other entries are meaningless.
    """

    table: LinkTable
    errors: dict[int, DecoyLinkError]


class ThresholdSearch(NamedTuple):
    """Outcome of the lockstep dark-count bisection at a 1-D array of nodes.

    ``dark_count`` and ``achieved`` are NaN at infeasible nodes.
    """

    dark_count: np.ndarray
    achieved: np.ndarray
    feasible: np.ndarray
    converged: np.ndarray


class ContourPoint(NamedTuple):
    """One node of an iso-QBER surface: the dark-count level meeting the target.

    An immutable NamedTuple. Infeasible nodes (target unreachable even without
    dark counts) carry None in ``dark_count_prob`` and ``achieved_qber``, and
    ``converged`` True. Elsewhere ``converged`` is False where no float
    threshold brings ``achieved_qber`` within the tolerance of the target
    (only at a subnormal signal detection probability).
    """

    p_ap: float
    intrinsic_error: float
    loss_db: float
    dark_count_prob: float | None
    achieved_qber: float | None
    feasible: bool
    converged: bool = True


def _lambert_w0(x: float) -> float:
    """W0(x) for x >= 0: the root w >= 0 of w e^w = x, in floats.

    Six Halley steps from log1p(x) (Corless et al., Adv. Comput. Math. 5,
    1996). Each step about triples the correct digits, and log1p(x) is
    within 0.32 of the root for x up to e, so six reach the float's last bit.
    """
    w = math.log1p(x)
    for _ in range(6):
        ew = math.exp(w)
        f = w * ew - x
        w -= f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
    return w


def solve_optimal_mu(e_detector: float, protocol: model.ProtocolParams) -> OptimalMu:
    """Solve (1 - mu) e^-mu = r, r = f H2(e) / (1 - H2(e)), for the signal intensity.

    The left side falls strictly from 1 to 0 on [0, 1], so any r in [0, 1)
    has exactly one root there. With t = 1 - mu the condition reads
    t e^t = e r, so the root is mu = 1 - W0(e r): r = 0 (a zero error rate)
    puts it at the edge mu = 1, marked ``boundary``. Raises NoSolutionError
    when r is not below 1 (error rate too high for a positive-rate optimum
    below saturation).
    """
    h = binary_entropy(e_detector)
    if h >= 1.0:
        raise NoSolutionError(
            f"binary entropy saturates at e_detector={e_detector!r}; no optimum exists"
        )
    rhs = protocol.ec_efficiency * h / (1.0 - h)
    if not rhs < 1.0:  # rejects NaN too
        raise NoSolutionError(
            f"error rate too high (e_detector={e_detector!r}): the condition's right "
            f"side is {rhs:g} >= 1, outside the solvable range"
        )
    mu = 1.0 - _lambert_w0(math.e * rhs)
    return OptimalMu(mu, abs((1.0 - mu) * math.exp(-mu) - rhs), boundary=rhs <= 0.0)


def _check_mu_bracket(nu1: float, lo: float) -> None:
    if not nu1 < lo:
        raise ValidationError(
            f"bracket lower bound {lo!r} must exceed the weak-decoy intensity {nu1!r}"
        )
    if not lo < MU_BRACKET_MAX:
        raise ValidationError(
            f"empty signal-intensity bracket ({lo!r}, {MU_BRACKET_MAX!r}); "
            "the weak-decoy intensity leaves no room below the bracket top"
        )


def _golden_step(up, lo, hi, c, d):
    """One golden-section step, ``up`` where f(c) > f(d): the new lo, hi, width, c and d."""
    lo, hi = np.where(up, lo, c), np.where(up, d, hi)
    width = hi - lo
    inner = _INVPHI * width
    return lo, hi, width, np.where(up, hi - inner, d), np.where(up, c, lo + inner)


def maximize_nodes(
    p_ap: np.ndarray,
    e_prime: np.ndarray,
    p_dc: np.ndarray,
    eta: np.ndarray,
    nu1: np.ndarray,
    background_error: float,
    protocol: model.ProtocolParams,
) -> MuSearch:
    """``maximize_skr_over_mu`` at every node of arrays that broadcast together, in lockstep.

    The arguments, and so the nodes, are those of ``link_table`` without the
    signal intensity. ``bounds.node_stage`` computes the terms that do not
    depend on mu once, at the arguments' shapes; each probe is one
    ``bounds.mu_core`` call of at most _SEED_SLICE_ROWS points, all under one
    ``np.errstate``. The 64-point seed grid runs over the ``bounds.boxes`` of
    at most _SEED_SLICE_ROWS // 64 nodes, with the terms at their own shapes
    and a trailing axis of 64 points, so that a term of mu alone is computed
    once per distinct seed point. The golden-section phase holds one entry
    per node still searching: its first probe takes both inner points of
    every node, each later step one, until every bracket is within
    ABS_TOLERANCE: each step keeps a fraction _INVPHI of a checked, finite
    bracket whatever the objective returns. While at most _LOOKAHEAD_NODES
    nodes search and none is within the tolerance after a step, a probe
    takes that step's point and both points the next step can take, and
    makes both steps. The result's table, at the optimal intensity
    ``table.mu``, is one ``bounds.mu_stage`` call. Each node follows the
    same arithmetic as a search of its own, so its result does not depend on
    the other nodes, on the runs or on the shapes.

    A node's errors are decided before the golden-section phase: its bracket
    (nu1 + MU_BRACKET_MARGIN, MU_BRACKET_MAX) first, then its decoy pair at
    the first seed point, mu = nu1 + MU_BRACKET_MARGIN. For inputs with
    p_ap > -1 and p_dc, eta, nu1 >= 0, as ``bounds.Grid`` gives, that point
    decides it: every later point has a larger mu, so ``mu_core``, which
    does not test the decoy pair, runs past it only where 0 < nu1 < mu; and
    a gain outside (0, 1] there stays outside, since the signal gain never
    falls as mu grows and the weak-decoy gain is at most the signal gain at
    the first point.
    """
    terms, outputs = node_stage(p_ap, e_prime, p_dc, eta, nu1, background_error)
    shape = np.broadcast_shapes(*(v.shape for v in (*terms.values(), *outputs.values())))
    n = math.prod(shape)
    # The bracket's bottom, at nu1's shape; its top is MU_BRACKET_MAX
    bottom = terms["nu1"] + MU_BRACKET_MARGIN
    nu1, lo = per_node(terms["nu1"], shape), per_node(bottom, shape)
    failed = ~(nu1 < lo) | ~(lo < MU_BRACKET_MAX)
    errors: dict[int, DecoyLinkError] = {
        int(i): raised(_check_mu_bracket, nu1[i], lo[i]) for i in np.flatnonzero(failed)
    }

    def probe(mu: np.ndarray, at: dict[str, np.ndarray]) -> np.ndarray:
        """The objective at 1-D points ``mu`` on the terms ``at``, in runs of _SEED_SLICE_ROWS."""
        if len(mu) <= _SEED_SLICE_ROWS:
            return mu_core(mu, background_error, protocol, **at)[0]
        runs = [slice(i, i + _SEED_SLICE_ROWS) for i in range(0, len(mu), _SEED_SLICE_ROWS)]
        return np.concatenate([
            mu_core(mu[r], background_error, protocol, **{name: v[r] for name, v in at.items()})[0]
            for r in runs
        ])

    points = _GRID_SEED_POINTS

    def seed_points(lo, k):
        """Points ``k`` of the seed grids of the brackets (``lo``, MU_BRACKET_MAX), broadcast."""
        return lo + (MU_BRACKET_MAX - lo) * k / (points - 1)

    # A rejected bracket can overflow from here on; its node's result is never used.
    with np.errstate(all="ignore"):
        # Each box's grid is built in its turn, so no (nodes, 64) array is held.
        best, first = np.empty(n, dtype=int), np.empty(n)
        start = 0
        for box in boxes(shape, max(1, _SEED_SLICE_ROWS // points)):
            box_shape = tuple(map(len, box))
            size = math.prod(box_shape)
            mu = seed_points(cut(bottom, box)[..., None], np.arange(points, dtype=float))
            at = {name: cut(v, box)[..., None] for name, v in terms.items()}
            grid = mu_core(mu, background_error, protocol, **at)[0]
            grid = per_node(grid, box_shape + (points,)).reshape(size, points)
            best[start:start + size], first[start:start + size] = grid.argmax(axis=1), grid[:, 0]
            start += size
        # Seed point 0 is lo itself at every node whose bracket holds; a gain
        # outside (0, 1] there (an objective of -inf) is reported, not the decoy pair.
        decoy_error = ~failed & ~((0.0 < nu1) & (nu1 < lo)) & (first > -np.inf)
        for i in np.flatnonzero(decoy_error).tolist():
            errors[i] = raised(check_decoy_pair, lo[i], nu1[i])
        failed |= decoy_error
        low = seed_points(lo, np.maximum(best - 1, 0))
        high = seed_points(lo, np.minimum(best + 1, points - 1))

        # The golden-section phase holds only the nodes still searching, as
        # threshold_nodes does. A node whose bracket is within the tolerance
        # has its bracket written back and is dropped.
        node = np.flatnonzero(~failed)
        if len(node):
            live = {name: per_node(values, shape)[node] for name, values in terms.items()}
            lo, hi = low[node], high[node]
            width = hi - lo
            c, d = hi - _INVPHI * width, lo + _INVPHI * width
            both = {name: np.concatenate((v, v)) for name, v in live.items()}
            fc, fd = probe(np.concatenate((c, d)), both).reshape(2, -1)
            three = None
            while True:
                done = width <= ABS_TOLERANCE
                if np.count_nonzero(done):
                    ended, keep = node[done], ~done
                    low[ended], high[ended] = lo[done], hi[done]
                    node, lo, hi, width, c, d, fc, fd = (
                        a[keep] for a in (node, lo, hi, width, c, d, fc, fd)
                    )
                    if not len(node):
                        break
                    live, three = {name: v[keep] for name, v in live.items()}, None
                up = fc > fd
                lo, hi, width, c, d = _golden_step(up, lo, hi, c, d)
                if len(node) > _LOOKAHEAD_NODES or np.count_nonzero(width <= ABS_TOLERANCE):
                    f = probe(np.where(up, c, d), live)
                else:
                    # this step's point, and the next's either way as _golden_step computes them
                    three = three or {name: np.concatenate((v, v, v)) for name, v in live.items()}
                    f, f_up, f_down = probe(np.concatenate((
                        np.where(up, c, d), d - _INVPHI * (d - lo), c + _INVPHI * (hi - c)
                    )), three).reshape(3, -1)
                    fc, fd = np.where(up, f, fd), np.where(up, fc, f)
                    up = fc > fd
                    lo, hi, width, c, d = _golden_step(up, lo, hi, c, d)
                    f = np.where(up, f_up, f_down)
                fc, fd = np.where(up, f, fd), np.where(up, fc, f)
        mu = (0.5 * (low + high)).reshape(shape)
    table = mu_stage(mu, background_error, protocol, terms, outputs)
    return MuSearch(table, errors)


def maximize_skr_over_mu(
    receiver: model.ReceiverModel,
    channel: model.ChannelModel,
    nu1: float,
    protocol: model.ProtocolParams,
) -> MaximizeResult:
    """Maximize the key-rate lower bound over the signal intensity.

    Seeds a 64-point grid over the bracket, then refines the best interval by
    golden-section search. The rate is unimodal in practice; the grid guards
    against stray local maxima. When no intensity yields a positive key the
    result carries skr = 0 and a reason, never an exception.
    """
    # IntensitySet's test, after the bracket's lower bound, which -inf and -1e300 fail
    x = model.as_float("nu1", nu1)
    if x < min(0.0, x + MU_BRACKET_MARGIN):
        raise ValidationError(f"weak_decoy_nu1 must be >= 0, got {nu1!r}")
    grid = Grid(receiver, channel, {"nu1": x}, ())
    _, inputs = grid.slab()
    search = maximize_nodes(**inputs, background_error=grid.background_error, protocol=protocol)
    if search.errors:
        raise search.errors[0]
    table = search.table
    mu, skr = float(table.mu), float(table.values["skr_lower"])
    # a gain outside (0, 1] at the optimum is no key
    if table.gain_error or not skr > 0.0:
        return MaximizeResult(mu, 0.0, NO_POSITIVE_KEY)
    return MaximizeResult(mu, skr)


def threshold_nodes(
    p_ap_values,
    intrinsic_error_values,
    loss_db: float,
    target_qber: float,
    receiver_template: model.ReceiverModel,
    mean_photon: float,
) -> ThresholdSearch:
    """The dark-count threshold bisection on every node of a (p_ap, intrinsic_error) grid.

    Takes the arguments of ``trace_iso_qber_surface`` and returns its nodes
    as arrays, in row-major order (p_ap outer, intrinsic_error inner).
    ``bounds.Grid`` builds every node's inputs and rejections. Every
    bisection step is one pass of array arithmetic over the nodes still above
    the tolerance, with the scalar closed form's operations in its order, so
    each node follows the same arithmetic as a search of its own. The first
    node, in row-major order, that ``dark_count_threshold`` would reject (a
    rejected p_ap, then a rejected intrinsic_error, a gain outside (0, 1], or
    a target the search cap cannot reach) raises its exception.
    """
    model.check_range("target_qber", target_qber, 0.0, 0.5, open_lo=True, open_hi=True)
    mean_photon = model.check_range("mean_photon", mean_photon, 0.0, open_lo=True)
    model.check_finite(mean_photon=mean_photon)
    axes = {"p_ap": p_ap_values, "intrinsic_error": intrinsic_error_values}
    grid = Grid(
        receiver_template,
        model.ChannelModel(transmission_loss_db=model.as_float("loss_db", loss_db)),
        {},
        ((name, [model.as_float(name, v) for v in values]) for name, values in axes.items()),
    )
    index, inputs = grid.slab()
    detected = -math.expm1(-inputs["eta"].item() * mean_photon)
    x = {name: per_node(inputs[name], grid.shape) for name in ("p_ap", "e_prime")}
    rejected = grid.rejections(index)
    e0 = grid.background_error
    # a rejected node's inputs can be inf or nan
    with np.errstate(all="ignore"):
        one_p = 1.0 + x["p_ap"]
        signal = detected * one_p
        signal_error = (x["e_prime"] + e0 * x["p_ap"]) * detected
        floor_gain, floor = model.gain_and_qber(0.0, signal, signal_error, e0)
        cap_gain, ceiling = model.gain_and_qber(one_p * DARK_COUNT_CAP, signal, signal_error, e0)
        floor_error = (floor_gain > 1.0) | (floor_gain <= 0.0)
        infeasible = ~floor_error & (floor > target_qber)
        failed = floor_error | (~infeasible & ((cap_gain > 1.0) | (ceiling < target_qber)))
    failed[list(rejected)] = True
    for i in np.flatnonzero(failed)[:1].tolist():
        if i in rejected:
            raise ValidationError(rejected[i])
        # the scalar search's checks, in its order, on this node's values
        model.check_gain(float(floor_gain[i]))
        model.check_detections(float(floor_gain[i]))
        model.check_gain(float(cap_gain[i]))
        raise ValidationError(
            f"target_qber={target_qber!r} not reachable below the dark-count "
            f"search cap {DARK_COUNT_CAP!r} (QBER at cap: {float(ceiling[i]):g})"
        )

    n = grid.size
    dark_count = np.full(n, math.nan)
    achieved = np.full(n, math.nan)
    # The nodes still searching, and their constants, bracket and midpoint.
    rows = np.flatnonzero(~infeasible)
    one_p, signal, signal_error = one_p[rows], signal[rows], signal_error[rows]
    lo = np.zeros(len(rows))
    hi = np.full(len(rows), DARK_COUNT_CAP)
    mid = 0.5 * (lo + hi)
    _, qber = model.gain_and_qber(one_p * mid, signal, signal_error, e0)
    for _ in range(_HALVINGS):
        done = np.abs(qber - target_qber) < ABS_TOLERANCE
        if np.count_nonzero(done):
            finished = rows[done]
            dark_count[finished], achieved[finished] = mid[done], qber[done]
            running = ~done
            rows, one_p, signal, signal_error, lo, hi, mid, qber = (
                a[running] for a in (rows, one_p, signal, signal_error, lo, hi, mid, qber)
            )
        if not len(rows):
            break
        below = qber < target_qber
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        mid = 0.5 * (lo + hi)
        _, qber = model.gain_and_qber(one_p * mid, signal, signal_error, e0)
    dark_count[rows], achieved[rows] = mid, qber
    return ThresholdSearch(
        dark_count=dark_count,
        achieved=achieved,
        feasible=~infeasible,
        converged=np.abs(achieved - target_qber) < ABS_TOLERANCE,
    )


def trace_iso_qber_surface(
    p_ap_values,
    intrinsic_error_values,
    loss_db: float,
    target_qber: float,
    receiver_template: model.ReceiverModel,
    mean_photon: float,
) -> list[ContourPoint]:
    """Dark-count threshold on every node of a (p_ap, intrinsic_error) grid.

    Nodes are returned in row-major order (p_ap outer, intrinsic_error
    inner), built from ``threshold_nodes``' arrays as one column per
    ``ContourPoint`` field. A node the scalar model rejects raises its
    exception, and the first such node in row-major order is the one
    reported (at one node, a rejected p_ap before a rejected intrinsic_error).
    The points are built by ``bounds.record_list``, as ``run_sweep``'s records
    are; the search runs with the cyclic garbage collector as the caller left it.
    """
    p_values, e_values = tuple(p_ap_values), tuple(intrinsic_error_values)
    search = threshold_nodes(
        p_values, e_values, loss_db, target_qber, receiver_template, mean_photon
    )
    infeasible = ~search.feasible
    return record_list(ContourPoint, (
        [p for p in p_values for _ in e_values],
        e_values * len(p_values),
        [loss_db] * len(infeasible),
        with_none(search.dark_count, infeasible),
        with_none(search.achieved, infeasible),
        search.feasible.tolist(),
        (search.converged | infeasible).tolist(),
    ))


def dark_count_threshold(
    p_ap: float,
    intrinsic_error: float,
    loss_db: float,
    target_qber: float,
    receiver_template: model.ReceiverModel,
    mean_photon: float,
) -> ContourPoint:
    """Largest dark-count probability that keeps the total QBER at the target.

    The QBER rises monotonically with the dark-count level toward the
    background error rate, so the threshold is found by bisection on
    [0, DARK_COUNT_CAP]. When even zero dark counts exceed the target the
    node is reported infeasible (a value, not an error). A target so lax
    that the cap cannot reach it is a parameter error.
    """
    (point,) = trace_iso_qber_surface(
        (p_ap,), (intrinsic_error,), loss_db, target_qber, receiver_template, mean_photon
    )
    return point
