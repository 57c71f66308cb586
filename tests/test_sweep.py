"""Grid engine: axis generation, spec validation, record semantics."""
import itertools
import math
import re
import warnings

import numpy as np
import pytest

from decoylink import (
    Axis,
    ChannelModel,
    IntensitySet,
    ProtocolParams,
    ReceiverModel,
    SinglePhotonEstimate,
    SweepSpec,
    ValidationError,
    evaluate_link,
    maximize_skr_over_mu,
    run_sweep,
)
from decoylink import optimize, sweep
from decoylink.bounds import Grid, boxes, link_table, mu_core, node_stage
from decoylink.optimize import maximize_nodes

PROTOCOL = ProtocolParams()


def base_spec(axes, outputs=("skr_lower",), mu_policy="fixed", loss_db=5.0,
              p_ap=0.008, e_prime=0.02, nu1=0.05, mu=0.48, attenuation=None, p_dc=6e-7):
    if attenuation is not None:
        channel = ChannelModel(attenuation_db_per_km=attenuation, distance_km=0.0)
    else:
        channel = ChannelModel(transmission_loss_db=loss_db)
    return SweepSpec(
        receiver=ReceiverModel.identical(
            2, p_ap, dark_count_prob_total=p_dc, intrinsic_error=e_prime
        ),
        channel=channel,
        intensities=IntensitySet(mu, nu1),
        protocol=PROTOCOL,
        axes=tuple(axes),
        outputs=tuple(outputs),
        mu_policy=mu_policy,
    )


class TestAxis:
    def test_linear_values_hit_endpoints(self):
        values = Axis("loss_db", 0.0, 10.0, 5).values()
        assert values == (0.0, 2.5, 5.0, 7.5, 10.0)

    def test_log_values(self):
        values = Axis("p_ap", 1e-4, 1.0, 5, "log").values()
        assert values[0] == pytest.approx(1e-4, rel=1e-12)
        assert values[-1] == pytest.approx(1.0, rel=1e-12)
        ratios = [hi / lo for lo, hi in zip(values, values[1:])]
        assert all(r == pytest.approx(10.0, rel=1e-9) for r in ratios)

    def test_single_point_axis(self):
        assert Axis("signal_mu", 0.48, 0.48, 1).values() == (0.48,)

    def test_unknown_axis_message_lists_axes_in_table_order(self):
        with pytest.raises(ValidationError) as excinfo:
            Axis("x", 0.0, 1.0, 3)
        assert str(excinfo.value) == (
            "unknown axis 'x'; expected one of p_ap, loss_db, distance_km, intrinsic_error, "
            "dark_count_prob, signal_mu, weak_decoy_nu1"
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            Axis("unknown", 0.0, 1.0, 5)
        with pytest.raises(ValidationError):
            Axis("p_ap", 0.0, 1.0, 0)
        with pytest.raises(ValidationError):
            Axis("p_ap", 0.5, 0.1, 5)
        with pytest.raises(ValidationError):
            Axis("p_ap", 0.0, 1.0, 5, "cubic")

    def test_log_axis_rejects_nonpositive_endpoints(self):
        with pytest.raises(ValidationError):
            Axis("p_ap", 0.0, 1.0, 5, "log")
        with pytest.raises(ValidationError):
            Axis("p_ap", -1.0, 1.0, 5, "log")

    def test_physical_domain_enforced(self):
        with pytest.raises(ValidationError):
            Axis("intrinsic_error", 0.0, 1.5, 5)
        with pytest.raises(ValidationError):
            Axis("dark_count_prob", 0.0, 2.0, 5)
        with pytest.raises(ValidationError):
            Axis("loss_db", -1.0, 5.0, 5)

    def test_non_finite_endpoints_rejected(self):
        # the checks before it keep their messages for the inputs they reject
        with pytest.raises(ValidationError, match="physical domain"):
            Axis("loss_db", -math.inf, 5.0, 5)
        with pytest.raises(ValidationError, match="must not exceed"):
            Axis("p_ap", math.nan, 1.0, 5)
        for name, lo, hi, spacing in [
            ("p_ap", 1e-4, math.inf, "log"),
            ("loss_db", 0.0, math.inf, "linear"),
            ("signal_mu", math.inf, math.inf, "linear"),
        ]:
            message = f"axis {name}: endpoints must be finite, got min={lo!r} max={hi!r}"
            with pytest.raises(ValidationError, match=re.escape(message)):
                Axis(name, lo, hi, 3, spacing)


class TestSweepSpecValidation:
    def test_axis_count_cap(self):
        axes = [
            Axis("p_ap", 0.0, 0.01, 2),
            Axis("loss_db", 0.0, 5.0, 2),
            Axis("intrinsic_error", 0.0, 0.05, 2),
            Axis("signal_mu", 0.3, 0.6, 2),
        ]
        with pytest.raises(ValidationError):
            base_spec(axes)

    def test_duplicate_axes_rejected(self):
        with pytest.raises(ValidationError):
            base_spec([Axis("p_ap", 0.0, 0.01, 2), Axis("p_ap", 0.0, 0.02, 2)])

    def test_loss_and_distance_conflict(self):
        with pytest.raises(ValidationError):
            base_spec(
                [Axis("loss_db", 0.0, 5.0, 2), Axis("distance_km", 0.0, 10.0, 2)],
                attenuation=0.21,
            )

    def test_distance_axis_needs_attenuation(self):
        with pytest.raises(ValidationError):
            base_spec([Axis("distance_km", 0.0, 10.0, 2)])
        base_spec([Axis("distance_km", 0.0, 10.0, 2)], attenuation=0.21)

    def test_outputs_validated(self):
        with pytest.raises(ValidationError):
            base_spec([Axis("p_ap", 0.0, 0.01, 2)], outputs=("nope",))
        with pytest.raises(ValidationError):
            base_spec([Axis("p_ap", 0.0, 0.01, 2)], outputs=())

    def test_mu_policy_validated(self):
        with pytest.raises(ValidationError):
            base_spec([Axis("p_ap", 0.0, 0.01, 2)], mu_policy="random")

    def test_signal_axis_conflicts_with_optimization(self):
        with pytest.raises(ValidationError):
            base_spec(
                [Axis("signal_mu", 0.3, 0.6, 3)], mu_policy="optimize-per-point"
            )

    def test_grid_size_cap(self):
        axes = [Axis("p_ap", 0.0, 0.01, 1001), Axis("loss_db", 0.0, 5.0, 1001)]
        with pytest.raises(ValidationError) as excinfo:
            base_spec(axes)
        assert str(excinfo.value) == "grid has 1002001 points, above the cap of 1000000"
        base_spec([Axis("p_ap", 0.0, 0.01, 1000), Axis("loss_db", 0.0, 5.0, 1000)])


class TestGrid:
    def test_coupled_input_varies_along_its_axis_only(self):
        # the preset's grid: its loss_db axis also sets nu1
        losses = sorted(sweep.NU1_BY_LOSS_DB)
        nu1 = np.array([sweep.NU1_BY_LOSS_DB[loss] for loss in losses])
        axes = (
            ("loss_db", losses, {"nu1": nu1}),
            ("intrinsic_error", (0.005, 0.02)),
            ("p_ap", (0.0, 0.01, 0.1)),
        )
        receiver = ReceiverModel.identical(
            2, dark_count_prob_total=6e-7, intrinsic_error=0.02, background_error=0.27
        )
        grid = Grid(receiver, ChannelModel(transmission_loss_db=5.0), {"mu": 1.0}, axes)
        assert grid.background_error == 0.27
        seen = []
        for box in boxes(grid.shape, 4):
            index, inputs = grid.slab(box)
            assert inputs["nu1"].shape == (index[0].size, 1, 1)
            assert inputs["nu1"].ravel().tolist() == [
                sweep.NU1_BY_LOSS_DB[losses[i]] for i in index[0].ravel().tolist()
            ]
            seen += inputs["nu1"].ravel().tolist()
        assert set(seen) == set(sweep.NU1_BY_LOSS_DB.values())


class TestResultRecord:
    def test_fields_and_defaults(self):
        assert sweep.ResultRecord._fields == (
            "axis_values", "values", "mu_opt", "status", "reason"
        )
        assert sweep.ResultRecord._field_defaults == {"reason": None}

    def test_fields_cannot_be_set(self):
        [record] = run_sweep(base_spec([]))
        with pytest.raises(AttributeError):
            record.status = "infeasible"
        assert record._replace(status="infeasible").status == "infeasible"

    def test_records_are_the_block_columns_node_for_node(self):
        # per-point optimization, with a rejected p_ap and a node with no key
        spec = base_spec(
            [Axis("p_ap", 0.0, 1.5, 4), Axis("loss_db", 0.0, 60.0, 3)],
            outputs=("p_ap", "e_mu", "skr_lower"), mu_policy="optimize-per-point",
        )
        records = run_sweep(spec)
        grid = sweep.spec_grid(spec)
        [block] = sweep.grid_blocks(grid, spec.protocol, spec.outputs, spec.mu_policy)
        nodes = block.nodes
        axis_values = [nodes(v[i]).tolist() for v, i in zip(grid.values, block.axis_index)]
        outputs = [(nodes(v).tolist(), nodes(m).tolist()) for v, m in block.outputs]
        mu, mu_missing = map(nodes, block.mu_opt)
        expected = [
            sweep.ResultRecord(
                tuple(column[k] for column in axis_values),
                tuple(None if m[k] else v[k] for v, m in outputs),
                None if mu_missing[k] else float(mu[k]),
                nodes(block.statuses)[k],
                nodes(block.reasons)[k],
            )
            for k in range(12)
        ]
        # repr tells a Python float from a numpy scalar
        assert repr(records) == repr(expected)
        assert {r.status for r in records} == {"ok", "model-domain-error"}
        assert {r.reason for r in records} >= {None, "no_positive_key"}


class TestRunSweep:
    def test_single_point_matches_direct_evaluation(self):
        outputs = ("y0", "q_mu", "e_mu", "q_nu1", "e_nu1", "y1_lower", "e1_upper",
                   "q1_lower", "skr_raw", "skr_lower", "skr_approx")
        spec = base_spec([Axis("p_ap", 0.008, 0.008, 1)], outputs=outputs)
        [record] = run_sweep(spec)
        metrics = evaluate_link(
            spec.receiver, spec.channel, spec.intensities, spec.protocol
        )
        expected = (
            metrics.y0_measured, metrics.q_mu, metrics.e_mu, metrics.q_nu1,
            metrics.e_nu1, metrics.estimate.y1_lower, metrics.estimate.e1_upper,
            metrics.estimate.q1_lower, metrics.skr_raw, metrics.skr_lower,
            metrics.skr_approx,
        )
        assert record.status == "ok"
        assert record.values == expected

    def test_no_axes_gives_one_base_record(self):
        spec = base_spec([])
        [record] = run_sweep(spec)
        assert record.axis_values == ()
        assert record.status == "ok"

    def test_lexicographic_grid_order(self):
        spec = base_spec(
            [Axis("p_ap", 0.0, 0.01, 2), Axis("loss_db", 0.0, 5.0, 3)],
            outputs=("e_mu",),
        )
        records = run_sweep(spec)
        nodes = [r.axis_values for r in records]
        assert nodes == [
            (0.0, 0.0), (0.0, 2.5), (0.0, 5.0),
            (0.01, 0.0), (0.01, 2.5), (0.01, 5.0),
        ]

    def test_baseline_error_curves(self):
        # afterpulsing drives the baseline error rate toward the background
        # error from below when e' < e0 and from above when e' > e0
        axis = Axis("p_ap", 1e-4, 10.0, 60, "log")
        for e_prime, increasing in ((0.005, True), (0.02, True), (0.75, False)):
            spec = base_spec([axis], outputs=("e_detector",), e_prime=e_prime)
            values = [r.values[0] for r in run_sweep(spec)]
            assert all(r.status == "ok" for r in run_sweep(spec))
            deltas = [hi - lo for lo, hi in zip(values, values[1:])]
            if increasing:
                assert all(d > 0.0 for d in deltas)
            else:
                assert all(d < 0.0 for d in deltas)

    def test_key_rate_curve_with_per_point_optimization(self):
        spec = base_spec(
            [Axis("p_ap", 1e-4, 0.05, 8, "log")],
            outputs=("skr_lower",),
            mu_policy="optimize-per-point",
        )
        records = run_sweep(spec)
        rates = [r.values[0] for r in records]
        assert all(r.mu_opt is not None for r in records)
        assert rates[0] > 0.0
        for lo, hi in zip(rates[1:], rates):
            assert hi >= lo

    def test_determinism(self):
        spec = base_spec(
            [Axis("p_ap", 1e-4, 0.05, 6, "log"), Axis("loss_db", 0.0, 21.0, 4)],
            outputs=("q_mu", "e_mu", "skr_lower"),
        )
        assert run_sweep(spec) == run_sweep(spec)

    def test_blocks_keep_grid_order_and_match_single_node_evaluation(self, monkeypatch):
        # 17 x 16 nodes span three slabs of 6, 6 and 5 mu values; every node
        # must come out in lexicographic order and equal a one-node
        # evaluate_link exactly
        block_nodes = 100
        monkeypatch.setattr(sweep, "SLAB_NODES", block_nodes)
        mu_axis = Axis("signal_mu", 0.1, 6.0, 17)
        loss_axis = Axis("loss_db", 0.0, 45.0, 16)
        assert mu_axis.count * loss_axis.count > 2 * block_nodes
        outputs = ("y0", "q_mu", "e_mu", "q_nu1", "e_nu1", "y1_lower", "e1_upper",
                   "q1_lower", "skr_raw", "skr_lower", "skr_approx")
        spec = base_spec([mu_axis, loss_axis], outputs=outputs)
        records = run_sweep(spec)
        assert [r.axis_values for r in records] == list(
            itertools.product(mu_axis.values(), loss_axis.values())
        )
        statuses = set()
        for record in records:
            mu, loss_db = record.axis_values
            metrics = evaluate_link(
                spec.receiver, ChannelModel(transmission_loss_db=loss_db),
                IntensitySet(mu, spec.intensities.weak_decoy_nu1), spec.protocol,
            )
            estimate = metrics.estimate or SinglePhotonEstimate(None, None, None)
            assert record.values == (
                metrics.y0_measured, metrics.q_mu, metrics.e_mu, metrics.q_nu1,
                metrics.e_nu1, estimate.y1_lower, estimate.e1_upper,
                estimate.q1_lower, metrics.skr_raw, metrics.skr_lower,
                metrics.skr_approx,
            )
            assert record.status == ("infeasible" if metrics.reason else "ok")
            assert record.reason == metrics.reason
            statuses.add(record.status)
        assert statuses == {"ok", "infeasible"}

    def test_relative_change_undefined_below_normal_intrinsic_error(self):
        # e0/e' overflows for a subnormal e' (inf, or nan at p_ap = 0)
        spec = base_spec(
            [Axis("intrinsic_error", 0.0, 4e-308, 3), Axis("p_ap", 0.0, 0.01, 2)],
            outputs=("e_detector", "baseline_error_change"),
        )
        records = run_sweep(spec)
        assert [r.status for r in records] == ["model-domain-error"] * 4 + ["ok"] * 2
        assert records[2].reason.endswith("intrinsic_error = 2e-308")
        assert all(r.values[0] is not None for r in records)

    def test_scalar_metrics_tolerate_large_afterpulse_values(self):
        spec = base_spec(
            [Axis("p_ap", 0.1, 10.0, 5, "log")],
            outputs=("e_detector", "visibility", "baseline_error_change", "p_ap"),
        )
        records = run_sweep(spec)
        assert all(r.status == "ok" for r in records)
        assert records[-1].values[0] == pytest.approx((0.02 + 5.0) / 11.0, rel=1e-12)

    def test_link_metrics_fail_cleanly_above_detector_range(self):
        spec = base_spec(
            [Axis("p_ap", 0.5, 2.0, 2)], outputs=("e_detector", "skr_lower")
        )
        ok, bad = run_sweep(spec)
        assert ok.status == "ok"
        assert bad.status == "model-domain-error"
        assert bad.values[0] is not None  # scalar metric still evaluated
        assert bad.values[1] is None
        assert "afterpulse_prob" in bad.reason

    def test_zero_key_nodes_note_the_optimizer_outcome(self):
        spec = base_spec(
            [Axis("p_ap", 0.15, 0.2, 2)],
            outputs=("skr_lower",),
            mu_policy="optimize-per-point",
            loss_db=21.0,
            nu1=0.12,
        )
        records = run_sweep(spec)
        assert all(r.status == "ok" for r in records)
        assert all(r.values[0] == 0.0 for r in records)
        assert all(r.reason == "no_positive_key" for r in records)

    def test_infeasible_estimation_recorded_per_point(self):
        # an overdriven signal at 40 dB, then weak decoys so faint at 10 dB
        # that the yield bound is nan (5e-324, 1e-310) next to a usable one,
        # then subnormal gains at 3200 dB without dark counts
        cases = [
            (Axis("signal_mu", 0.48, 6.0, 2), {"loss_db": 40.0}, ["ok", "infeasible"]),
            (Axis("weak_decoy_nu1", 5e-324, 1e-310, 2), {"loss_db": 10.0}, ["infeasible"] * 2),
            (Axis("weak_decoy_nu1", 1e-310, 0.05, 2), {"loss_db": 10.0}, ["infeasible", "ok"]),
            (Axis("loss_db", 3000.0, 3200.0, 2), {"p_dc": 0.0}, ["ok", "infeasible"]),
        ]
        for axis, kwargs, statuses in cases:
            spec = base_spec([axis], outputs=("skr_lower", "y1_lower"), **kwargs)
            records = run_sweep(spec)
            assert [record.status for record in records] == statuses
            for record in records:
                if record.status == "infeasible":
                    assert record.reason == "estimation_infeasible"
                    assert record.values == (0.0, None)

    # Expected (status, reason, cells present, mu_opt present) per node,
    # written out from the per-node scalar implementation this engine replaced.
    STATUS_GRID_FIXED = [
        ("model-domain-error", "weak_decoy_nu1 (0.038) must be below signal_mu (0.038)",
         "x--x", False),
        ("ok", None, "xxxx", False),
        ("infeasible", "estimation_infeasible", "xx-x", False),
        *[("model-domain-error", "dark_count_prob_total must be in [0, 1), got 1.0",
           "x--x", False)] * 3,
        *[("model-domain-error", "afterpulse_prob must be in [0, 1], got 1.5",
           "x--x", False)] * 6,
    ]
    STATUS_GRID_OPTIMIZED = [
        *[("model-domain-error",
           "relative baseline change undefined for intrinsic_error = 0", "x----", False)] * 4,
        ("ok", None, "xxxxx", True),
        ("model-domain-error", "weak_decoy_nu1 (1.0) must be below signal_mu (1.0)",
         "xxx--", False),
        ("ok", "no_positive_key", "xxxxx", True),
        ("model-domain-error", "weak_decoy_nu1 (1.0) must be below signal_mu (1.0)",
         "xxx--", False),
    ]
    STATUS_GRID_SOLVER = [
        ("model-domain-error",
         "total gain is zero (no dark counts and an opaque channel); error rate undefined",
         "-", True),
        ("ok", "no_positive_key", "x", True),
        ("model-domain-error",
         "empty signal-intensity bracket (1.600001, 1.5); the weak-decoy intensity "
         "leaves no room below the bracket top", "-", False),
        ("model-domain-error",
         "weak+vacuum estimation needs 0 < nu1 < mu, got nu1=0.0 mu=1e-06", "-", False),
        ("ok", "no_positive_key", "x", True),
        ("model-domain-error",
         "empty signal-intensity bracket (1.600001, 1.5); the weak-decoy intensity "
         "leaves no room below the bracket top", "-", False),
    ]

    # A node rejected on several axes reads the message of its first in the
    # axis table (p_ap, intrinsic_error, dark_count_prob), whatever the
    # grid's axis order; written out from the seed code.
    E0 = ("model-domain-error", "relative baseline change undefined for intrinsic_error = 0",
          "x---", False)
    OK = ("ok", None, "xxxx", False)
    PAP = ("model-domain-error", "afterpulse_prob must be in [0, 1], got 1.5", "xx--", False)
    DARK = ("model-domain-error", "dark_count_prob_total must be in [0, 1), got 1.0", "xx--",
            False)
    GAIN = ("model-domain-error", "total gain 1.0301286268693686 exceeds 1: afterpulse "
            "probability too large for the single-order afterpulse model", "xx--", False)
    STATUS_GRID_MIXED = [
        *[E0] * 4, *[OK] * 3, PAP, *[OK] * 3, PAP,
        *[E0] * 4, OK, OK, GAIN, PAP, OK, OK, GAIN, PAP,
        *[E0] * 4, *[DARK] * 3, PAP, *[DARK] * 3, PAP,
    ]
    STATUS_GRID_MIXED_OPTIMIZED = [
        ("model-domain-error",
         "total gain is zero (no dark counts and an opaque channel); error rate undefined",
         "xx--", True), PAP, DARK, PAP,
        ("ok", None, "xxxx", True), PAP, DARK, PAP,
        ("model-domain-error", "weak_decoy_nu1 (0.6) must be below signal_mu (0.48)", "xx--",
         False), PAP, DARK, PAP,
    ]

    @staticmethod
    def outcomes(spec):
        return [
            (r.status, r.reason, "".join("-" if v is None else "x" for v in r.values),
             r.mu_opt is not None)
            for r in run_sweep(spec)
        ]

    def test_status_and_reason_of_every_failure_kind(self):
        fixed = base_spec(
            [Axis("p_ap", 0.008, 1.5, 2), Axis("dark_count_prob", 6e-7, 1.0, 2),
             Axis("signal_mu", 0.038, 6.0, 3)],
            outputs=("e_detector", "skr_lower", "y1_lower", "p_ap"),
            loss_db=40.0, nu1=0.038,
        )
        assert self.outcomes(fixed) == self.STATUS_GRID_FIXED
        optimized = base_spec(
            [Axis("intrinsic_error", 0.0, 0.02, 2), Axis("p_ap", 0.001, 0.2, 2),
             Axis("weak_decoy_nu1", 0.12, 1.0, 2)],
            outputs=("visibility", "baseline_error_change", "e_detector", "skr_lower",
                     "skr_raw"),
            mu_policy="optimize-per-point", loss_db=21.0, nu1=0.12, mu=1.0,
        )
        assert self.outcomes(optimized) == self.STATUS_GRID_OPTIMIZED
        solver = base_spec(
            [Axis("dark_count_prob", 0.0, 6e-7, 2), Axis("weak_decoy_nu1", 0.0, 1.6, 3)],
            mu_policy="optimize-per-point", loss_db=5.0, mu=2.0,
        )
        records = run_sweep(solver)
        assert self.outcomes(solver) == self.STATUS_GRID_SOLVER
        # every mu is rejected (-inf), so each golden-section step raises the lower end
        assert records[0].mu_opt == 0.023810507904354516
        mixed = base_spec(
            [Axis("dark_count_prob", 0.0, 1.0, 3), Axis("intrinsic_error", 0.0, 1.0, 3),
             Axis("p_ap", 0.0, 1.5, 4)],
            outputs=("visibility", "baseline_error_change", "q_mu", "skr_raw"),
        )
        assert self.outcomes(mixed) == self.STATUS_GRID_MIXED
        mixed_optimized = base_spec(
            [Axis("weak_decoy_nu1", 0.0, 0.6, 3), Axis("dark_count_prob", 0.0, 1.0, 2),
             Axis("p_ap", 0.0, 1.5, 2)],
            outputs=("p_ap", "baseline_error_change", "skr_lower", "e_mu"),
            mu_policy="optimize-per-point",
        )
        assert self.outcomes(mixed_optimized) == self.STATUS_GRID_MIXED_OPTIMIZED

    def test_optimized_nodes_match_standalone_maximization(self):
        spec = base_spec(
            [Axis("p_ap", 1e-4, 0.2, 9, "log"), Axis("loss_db", 0.0, 21.0, 3)],
            outputs=("skr_lower",),
            mu_policy="optimize-per-point",
        )
        for record in run_sweep(spec):
            p_ap, loss_db = record.axis_values
            receiver = ReceiverModel.identical(
                2, p_ap, dark_count_prob_total=6e-7, intrinsic_error=0.02
            )
            result = maximize_skr_over_mu(
                receiver, ChannelModel(transmission_loss_db=loss_db), 0.05, PROTOCOL
            )
            assert record.mu_opt == result.mu
            assert record.values == (result.skr,)
            assert record.reason == result.reason

    def test_overflowing_intensity_does_not_abort_the_sweep(self):
        # e^mu overflows a double at mu = 800; the node is recorded, not raised
        spec = base_spec(
            [Axis("signal_mu", 0.48, 800.0, 2)], outputs=("skr_lower",), loss_db=40.0
        )
        ok, overflow = run_sweep(spec)
        assert ok.status == "ok"
        assert overflow.status == "infeasible"
        assert overflow.values == (0.0,)

    def test_distance_axis_tracks_attenuation(self):
        spec_distance = base_spec(
            [Axis("distance_km", 0.0, 100.0, 3)], outputs=("e_mu",), attenuation=0.21
        )
        spec_loss = base_spec([Axis("loss_db", 0.0, 21.0, 3)], outputs=("e_mu",))
        by_distance = [r.values[0] for r in run_sweep(spec_distance)]
        by_loss = [r.values[0] for r in run_sweep(spec_loss)]
        assert by_distance == pytest.approx(by_loss, rel=1e-12)


class TestDistanceToLoss:
    """The loss budget of a fiber span, as ``ChannelModel.loss_db`` gives it."""

    def test_values(self):
        assert ChannelModel(attenuation_db_per_km=0.21, distance_km=0.0).loss_db == 0.0
        for distance, loss in ((100.0, 21.0), (50.0, 10.5)):
            channel = ChannelModel(attenuation_db_per_km=0.21, distance_km=distance)
            assert channel.loss_db == pytest.approx(loss)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError, match=r"^distance_km must be >= 0, got -1.0$"):
            ChannelModel(attenuation_db_per_km=0.21, distance_km=-1.0)
        with pytest.raises(ValidationError, match=r"^attenuation_db_per_km must be >= 0"):
            ChannelModel(attenuation_db_per_km=-0.21, distance_km=1.0)
        with pytest.raises(ValidationError, match=r"^attenuation_db_per_km must be >= 0"):
            ChannelModel(attenuation_db_per_km=-0.21, distance_km=-1.0)

    # Each would be a NaN loss; ChannelModel rejects them all.
    @pytest.mark.parametrize(
        "distance, attenuation, message",
        [
            (math.nan, 0.21, "distance_km must be >= 0, got nan"),
            (1.0, math.nan, "attenuation_db_per_km must be >= 0, got nan"),
            (0.0, math.inf, "attenuation_db_per_km must be finite, got inf"),
            (math.inf, 0.0, "distance_km must be finite when attenuation_db_per_km is 0, got inf"),
        ],
    )
    def test_nan_loss_rejected(self, distance, attenuation, message):
        with pytest.raises(ValidationError) as excinfo:
            ChannelModel(attenuation_db_per_km=attenuation, distance_km=distance)
        assert str(excinfo.value) == message


class TestNoWarningEscapes:
    """The kernels overflow on inputs past the model's domain, and each entry point
    silences numpy's warnings around them, once per call, not once per probe.

    The inputs: p_ap past 1 and near the float maximum, an infinite loss (a
    transmittance of 0), a subnormal transmittance and nu1 = 0.
    """

    P_AP = np.array([[[0.01]], [[1.5]], [[1e308]]])
    ETA = np.array([[[0.1], [0.0], [1e-310]]])
    NU1 = np.array([[[0.05, 0.0]]])

    def test_the_inputs_overflow_in_the_kernel(self):
        terms, _ = node_stage(self.P_AP, 0.02, 6e-7, self.ETA, self.NU1, 0.5)
        with pytest.warns(RuntimeWarning):
            mu_core(np.full((1, 1, 1), 0.5), 0.5, PROTOCOL, **terms)

    def test_link_table(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            table = link_table(
                self.P_AP, np.full((1, 1, 1), 0.02), np.full((1, 1, 1), 6e-7), self.ETA,
                np.full((1, 1, 1), 0.5), self.NU1, 0.5, PROTOCOL,
            )
        assert table.domain_error.any() and not table.domain_error.all()

    def test_maximize_nodes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            search = maximize_nodes(
                self.P_AP, np.full((1, 1, 1), 0.02), np.full((1, 1, 1), 6e-7), self.ETA,
                self.NU1, 0.5, PROTOCOL,
            )
        assert search.errors and (search.table.values["skr_lower"] > 0.0).any()

    @pytest.mark.parametrize("mu_policy", sweep.MU_POLICIES)
    @pytest.mark.parametrize("loss_axis, attenuation", [
        # the last loss gives a subnormal transmittance, about 1e-310
        (Axis("loss_db", 0.0, 3090.0, 3), None),
        # 10 dB/km over 1e308 km overflows to an infinite loss
        (Axis("distance_km", 0.0, 1e308, 3), 10.0),
    ])
    def test_run_sweep(self, mu_policy, loss_axis, attenuation):
        spec = base_spec(
            [Axis("p_ap", 0.01, 1e308, 3, "log"), loss_axis, Axis("weak_decoy_nu1", 0.0, 0.05, 2)],
            outputs=sweep.METRIC_NAMES, mu_policy=mu_policy, attenuation=attenuation,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            records = run_sweep(spec)
        assert {"ok", "model-domain-error"} <= {r.status for r in records}


class TestNotConverged:
    """Under optimize-per-point, a node whose search ran out of steps is ``not-converged``."""

    SPEC = base_spec(
        [Axis("p_ap", 1e-4, 1.5, 4, "log"), Axis("loss_db", 0.0, 60.0, 3)],
        mu_policy="optimize-per-point",
    )

    def test_status_follows_each_nodes_search(self, monkeypatch):
        # The searches here take 41 or 42 steps: a cap of 41 stops some of
        # them, and leaves the others' records as they are.
        full = run_sweep(self.SPEC)
        assert "not-converged" not in {r.status for r in full}
        monkeypatch.setattr(optimize, "MAX_ITERATIONS", 41)
        capped = run_sweep(self.SPEC)
        statuses = []
        for record, before in zip(capped, full):
            statuses.append(record.status)
            p_ap, loss_db = record.axis_values
            if p_ap > 1.0:  # rejected before any search
                assert record == before
                continue
            receiver = ReceiverModel.identical(
                2, p_ap, dark_count_prob_total=6e-7, intrinsic_error=0.02
            )
            result = maximize_skr_over_mu(
                receiver, ChannelModel(transmission_loss_db=loss_db), 0.05, PROTOCOL
            )
            if result.converged:
                assert record == before
            else:
                assert record.status == "not-converged"
                assert record.mu_opt == result.mu
        assert {"ok", "model-domain-error", "not-converged"} <= set(statuses)

    def test_model_domain_error_outranks_it(self, monkeypatch):
        monkeypatch.setattr(optimize, "MAX_ITERATIONS", 3)
        statuses = [r.status for r in run_sweep(self.SPEC)]
        assert statuses == ["not-converged"] * 9 + ["model-domain-error"] * 3

    def test_fixed_mu_has_no_search(self, monkeypatch):
        monkeypatch.setattr(optimize, "MAX_ITERATIONS", 0)
        spec = base_spec([Axis("p_ap", 1e-4, 1e-2, 3, "log")])
        assert {r.status for r in run_sweep(spec)} == {"ok"}
