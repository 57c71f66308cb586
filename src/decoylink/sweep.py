"""Scenario engine: evaluate link metrics over parameter grids."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

# optimize before bounds, and the package before numpy: see the note in cli.py.
from . import model
from .optimize import NO_POSITIVE_KEY, maximize_nodes
from .bounds import (
    ESTIMATION_INFEASIBLE, Grid, Slab, boxes, cut, link_table, per_node, raised, with_none,
)
# The spec types and name tables live in ``model``; they are importable from here too.
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

# A node's status by 2 * (model-domain error) + (infeasible), or 3: out of search steps.
_STATUSES = np.array(["ok", "infeasible", "model-domain-error", "not-converged"], dtype=object)


class ResultRecord(NamedTuple):
    """One grid node, an immutable NamedTuple: axis values, requested metrics, and a status."""

    axis_values: tuple[float, ...]
    values: tuple[float | None, ...]
    mu_opt: float | None
    status: str
    reason: str | None = None


@dataclass(frozen=True)
class SweepBlock:
    """A box of grid nodes (a slab of ``grid_blocks``, or a chunk of one) as columns.

    ``axis_index[k]`` holds the box's value indices on axis k, shaped to
    vary along axis k only. ``outputs`` holds, per requested metric,
    its float64 values and the mask of the nodes where it has no value, each
    at the shape it was computed at, which broadcasts over the box;
    ``mu_opt`` is the same pair under optimize-per-point and None
    otherwise. Values under a mask are meaningless. ``statuses`` and
    ``reasons`` are object arrays of the box's shape. ``nodes`` gives any of
    these arrays one entry per node, in row-major order.
    """

    axis_index: tuple[np.ndarray, ...]
    outputs: tuple[tuple[np.ndarray, np.ndarray], ...]
    mu_opt: tuple[np.ndarray, np.ndarray] | None
    statuses: np.ndarray
    reasons: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        """The box's length along each axis."""
        return tuple(i.size for i in self.axis_index)

    def nodes(self, values) -> np.ndarray:
        """``values``, an array that broadcasts over the box, as one entry per node."""
        return per_node(values, self.shape)

    def chunks(self, max_nodes: int) -> Iterator[SweepBlock]:
        """The block as the ``boxes`` of at most ``max_nodes`` nodes, each a SweepBlock.

        A chunk's arrays are views of the block's.
        """
        for box in boxes(self.shape, max_nodes):
            yield SweepBlock(
                axis_index=tuple(cut(i, box) for i in self.axis_index),
                outputs=tuple((cut(v, box), cut(m, box)) for v, m in self.outputs),
                mu_opt=None if self.mu_opt is None else tuple(cut(a, box) for a in self.mu_opt),
                statuses=cut(self.statuses, box),
                reasons=cut(self.reasons, box),
            )

    def records(self, axis_values: tuple[np.ndarray, ...]) -> list[ResultRecord]:
        """The nodes as ResultRecords, None where masked; ``axis_values`` is ``Grid.values``."""
        n = self.statuses.size
        axis_values = (
            zip(*(self.nodes(v[i]).tolist() for v, i in zip(axis_values, self.axis_index)))
            if axis_values else [()] * n
        )
        values = zip(*(with_none(self.nodes(v), self.nodes(m)) for v, m in self.outputs))
        mu_opt = [None] * n if self.mu_opt is None else with_none(*map(self.nodes, self.mu_opt))
        return list(map(ResultRecord._make, zip(
            axis_values, values, mu_opt, self.nodes(self.statuses).tolist(),
            self.nodes(self.reasons).tolist(),
        )))


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
    search = None
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
        # A node the link model alone rejects keeps its mu_opt.
        mu_missing = failed.reshape(shape).copy()
        table = search.table
    else:
        table = link_table(**x, background_error=grid.background_error, protocol=protocol)
    if link_model:
        fail(np.flatnonzero(per_node(table.domain_error, shape)), table.error)
    infeasible = link_model & per_node(table.infeasible, shape) & ~failed

    columns = []
    for j, name in enumerate(outputs):
        if name in SCALAR_METRICS:
            missing = scalar_failed & (j >= first_change) & (name not in outputs[:first_change])
        else:
            missing = failed.reshape(shape) | table.missing(name)
        columns.append((table.values[name], missing))

    # A reason other than the ledger's: estimation_infeasible, else
    # no_positive_key where the optimizer found no key (a node whose gain
    # fails is in the ledger).
    reasons[infeasible] = ESTIMATION_INFEASIBLE
    status = 2 * failed + infeasible
    if search is not None:
        no_key = ~(per_node(table.values["skr_lower"], shape) > 0.0)
        reasons[no_key & ~failed & ~infeasible] = NO_POSITIVE_KEY
        # a search that ran out of steps outranks ok and infeasible; its reason stays
        status[~failed & ~per_node(search.converged, shape)] = 3
    return SweepBlock(
        axis_index=index,
        outputs=tuple(columns),
        mu_opt=None if search is None else (table.mu, mu_missing),
        statuses=_STATUSES[status].reshape(shape),
        reasons=reasons.reshape(shape),
    )


def grid_blocks(
    grid: Grid, protocol: model.ProtocolParams, outputs: tuple[str, ...], mu_policy: str,
) -> Iterator[SweepBlock]:
    """The nodes of ``grid`` as columns of the ``outputs``, one slab at a time.

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
    intensities = {"mu": spec.intensities.signal_mu, "nu1": spec.intensities.weak_decoy_nu1}
    axes = ((ax.name, ax.values()) for ax in spec.axes)
    return Grid(spec.receiver, spec.channel, intensities, axes)


def run_sweep(spec: SweepSpec) -> list[ResultRecord]:
    """Evaluate every grid node, in lexicographic grid order.

    Nodes are evaluated with numpy, a slab of at most SLAB_NODES nodes per
    ``link_table`` call, or per lockstep optimizer run under
    optimize-per-point (whose probes run in calls of bounded size; see
    ``maximize_nodes``). Per-node failures are recorded in the node's status
    and never abort the sweep.
    """
    grid = spec_grid(spec)
    blocks = grid_blocks(grid, spec.protocol, spec.outputs, spec.mu_policy)
    return [record for block in blocks for record in block.records(grid.values)]
