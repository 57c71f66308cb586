"""Scenario engine: evaluate link metrics over parameter grids."""
from __future__ import annotations

import math
import sys
from itertools import chain, product
from typing import Callable, Iterable, Iterator, NamedTuple

# optimize before bounds, and the package before numpy: see the note in cli.py.
from . import model
from .optimize import NO_POSITIVE_KEY, maximize_nodes
# The spec types and name tables live in ``model``, the block type in ``bounds``;
# they are importable from here too.
from .bounds import (
    ESTIMATION_INFEASIBLE, Grid, Slab, SweepBlock, boxes, link_table, per_node, raised,
    record_list, with_none,
)
from .model import (
    LINK_METRICS, MAX_GRID_POINTS, METRIC_NAMES, MU_POLICIES, SCALAR_METRICS, Axis, SweepSpec,
    check_grid_size,
)

import numpy as np

# Most grid nodes per slab: per link_table call, or per lockstep optimizer
# run, which takes the slab as link_table does (its probes run only
# bounds.mu_core, on at most optimize._SEED_SLICE_ROWS points each; its
# final table is one mu_stage call). A slab holds float64 arrays, not CSV
# cells, which the CLI formats in smaller chunks (cli.CHUNK_NODES); so slabs
# can be large enough for the per-call overhead to stop mattering: every
# 81 x 81 grid is one slab.
SLAB_NODES = 8192

# Optimized weak-decoy intensities are only tabulated for these losses; any
# other loss requires an explicit weak_decoy_nu1 (no interpolation).
NU1_BY_LOSS_DB = {0.0: 0.038, 5.0: 0.05, 21.0: 0.12}

# A node's status by 2 * (model-domain error) + (infeasible).
_STATUSES = np.array(["ok", "infeasible", "model-domain-error"], dtype=object)


class ResultRecord(NamedTuple):
    """One grid node, an immutable NamedTuple: axis values, requested metrics, and a status."""

    axis_values: tuple[float, ...]
    values: tuple[float | None, ...]
    mu_opt: float | None
    status: str
    reason: str | None = None


def block_records(block: SweepBlock, axis_values: tuple[np.ndarray, ...]) -> list[ResultRecord]:
    """The block's nodes as ResultRecords, None where masked; ``axis_values`` is ``Grid.values``.

    The column named mu_opt, which no metric is named, is each record's
    ``mu_opt`` (None at every node without it); the other columns, in order,
    are its ``values``. A box is a product of index ranges, so its nodes'
    axis values are the product of its axes'. They are built by
    ``bounds.record_list``, with the cyclic garbage collector off: the
    records hold no reference cycles, so its passes could free nothing.
    """
    nodes = block.nodes
    axis_values = product(*(v[i.ravel()].tolist() for v, i in zip(axis_values, block.axis_index)))
    columns = [(name, with_none(nodes(v), nodes(m))) for name, v, m in block.outputs]
    mu_opt = dict(columns).get("mu_opt", [None] * block.statuses.size)
    values = zip(*(column for name, column in columns if name != "mu_opt"))
    return record_list(ResultRecord, (
        axis_values, values, mu_opt, nodes(block.statuses).tolist(),
        nodes(block.reasons).tolist(),
    ))


def _block(
    grid: Grid, protocol: model.ProtocolParams, outputs: tuple[str, ...], mu_policy: str,
    slab: Slab,
) -> SweepBlock:
    index, x = slab
    shape = tuple(i.size for i in index)
    n = math.prod(shape)
    link_model = mu_policy == "optimize-per-point" or any(name in LINK_METRICS for name in outputs)

    def at(values, i: int):
        """The entry of node ``i`` of ``values``, an array that broadcasts over the slab."""
        return np.broadcast_to(values, shape).flat[i]

    # The ledger: which nodes failed, and each one's model-domain-error
    # message. Checks run in the order a node meets them: scalar outputs in
    # output order, the axis overrides, the mu optimizer, then the link
    # model; the first failure is kept.
    failed = np.zeros(n, dtype=bool)
    reasons = np.full(n, None, dtype=object)

    def fail(found: Iterable[int], message: Callable[[int], object]) -> None:
        """Fail each node position ``i`` of ``found`` not yet failed, as ``str(message(i))``."""
        for i in found:
            if not failed[i]:
                failed[i] = True
                reasons[i] = str(message(i))

    # Of the scalar metrics only baseline_error_change can fail on axis values
    # (e' = 0 or subnormal); the outputs listed after it are then left empty,
    # except a name also listed before it, whose value came before the failure.
    changes = "baseline_error_change" in outputs
    first_change = outputs.index("baseline_error_change") if changes else len(outputs)
    scalar_failed = changes & (x["e_prime"] < sys.float_info.min)
    fail(np.flatnonzero(per_node(scalar_failed, shape)), lambda i: raised(
        model.baseline_error_change, at(x["e_prime"], i), grid.background_error, at(x["p_ap"], i)
    ))
    search, columns = None, []
    if link_model:
        rejected = grid.rejections(index)
        fail(rejected, rejected.__getitem__)
        fail(np.flatnonzero(per_node(~(x["nu1"] < x["mu"]), shape)), lambda i: raised(
            model.IntensitySet, at(x["mu"], i), at(x["nu1"], i)
        ))
    if mu_policy == "optimize-per-point":
        search = maximize_nodes(
            x["p_ap"], x["e_prime"], x["p_dc"], x["eta"], x["nu1"], grid.background_error, protocol
        )
        fail(search.errors, search.errors.__getitem__)
        table = search.table
        # A node the link model alone rejects keeps its mu_opt.
        columns.append(("mu_opt", table.mu, failed.reshape(shape).copy()))
    else:
        table = link_table(**x, background_error=grid.background_error, protocol=protocol)
    if link_model:
        fail(np.flatnonzero(per_node(table.domain_error, shape)), table.error)
    infeasible = link_model & per_node(table.infeasible, shape) & ~failed

    for j, name in enumerate(outputs):
        if name in SCALAR_METRICS:
            missing = scalar_failed & (j >= first_change) & (name not in outputs[:first_change])
        else:
            missing = failed.reshape(shape) | table.missing(name)
        columns.append((name, table.values[name], missing))

    # A reason other than the ledger's: estimation_infeasible, else
    # no_positive_key where the optimizer found no key (a node whose gain
    # fails is in the ledger).
    reasons[infeasible] = ESTIMATION_INFEASIBLE
    if search is not None:
        no_key = ~(per_node(table.values["skr_lower"], shape) > 0.0)
        reasons[no_key & ~failed & ~infeasible] = NO_POSITIVE_KEY
    return SweepBlock(
        axis_index=index,
        outputs=tuple(columns),
        statuses=_STATUSES[2 * failed + infeasible].reshape(shape),
        reasons=reasons.reshape(shape),
    )


def grid_blocks(
    grid: Grid, protocol: model.ProtocolParams, outputs: tuple[str, ...], mu_policy: str,
) -> Iterator[SweepBlock]:
    """The nodes of ``grid`` as columns, one slab at a time: mu_opt if optimized, then ``outputs``.

    The slabs are the ``boxes`` of at most SLAB_NODES nodes, as
    ``Grid.slab`` gives them. Each is one ``link_table`` call, or under
    optimize-per-point one lockstep optimizer run; both take the slab's
    inputs at their own shapes. The grid must give every node both
    intensities.
    """
    for box in boxes(grid.shape, SLAB_NODES):
        yield _block(grid, protocol, outputs, mu_policy, grid.slab(box))


def spec_grid(spec: SweepSpec) -> Grid:
    """The grid of ``run_sweep``: the spec's value types, base intensities and axis values."""
    # a fixed mu that no axis sets is evaluated, so it must be finite, as in ``report``
    if spec.mu_policy == "fixed" and all(ax.name != "signal_mu" for ax in spec.axes):
        model.check_finite(mean_photon=spec.intensities.signal_mu)
    intensities = {"mu": spec.intensities.signal_mu, "nu1": spec.intensities.weak_decoy_nu1}
    axes = ((ax.name, ax.values()) for ax in spec.axes)
    return Grid(spec.receiver, spec.channel, intensities, axes)


def run_sweep(spec: SweepSpec) -> list[ResultRecord]:
    """Evaluate every grid node, in lexicographic grid order.

    Nodes are evaluated with numpy, a slab of at most SLAB_NODES nodes per
    ``link_table`` call, or per lockstep optimizer run under
    optimize-per-point (whose probes run in calls of bounded size; see
    ``maximize_nodes``). Per-node failures are recorded in the node's status
    and never abort the sweep. Each slab's records are built by
    ``bounds.record_list``, one build at a time in the process, with the cyclic
    garbage collector off; its nodes are evaluated with the collector as the caller left it.
    """
    grid = spec_grid(spec)
    blocks = grid_blocks(grid, spec.protocol, spec.outputs, spec.mu_policy)
    return list(chain.from_iterable(block_records(block, grid.values) for block in blocks))
