"""Command-line interface and configuration schema."""
import csv
import io
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import yaml

import decoylink
from decoylink import (
    Axis,
    ChannelModel,
    IntensitySet,
    SweepSpec,
    load_scenario,
    parse_scenario,
)
from decoylink import cli, optimize, sweep
from decoylink.bounds import mu_core, mu_stage
from decoylink.cli import PRESET_INTRINSIC_ERRORS, _report_rows, main
from decoylink.errors import DecoyLinkError, ValidationError
from decoylink.optimize import dark_count_threshold
from decoylink.sweep import NU1_BY_LOSS_DB


def write_config(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# A sweep section that every command accepts: contour needs these two axes.
CONTOUR_GRID = """\
sweep:
  axes:
    - {name: p_ap, min: 0.0, max: 0.1, count: 2}
    - {name: intrinsic_error, min: 0.01, max: 0.02, count: 2}
"""


def count_kernel_points(monkeypatch):
    """Record the points of the optimizer's kernel calls: (probes, final tables).

    A probe is one ``mu_core`` call; its points are its arguments' broadcast
    size, nodes x seed points for a seed-grid box. A final table is one
    ``mu_stage`` call, at the slab's nodes.
    """
    probes, tables = [], []

    def core(mu, *args, **terms):
        probes.append(math.prod(np.broadcast_shapes(np.shape(mu), *map(np.shape, terms.values()))))
        return mu_core(mu, *args, **terms)

    def stage(mu, *args):
        tables.append(np.size(mu))
        return mu_stage(mu, *args)

    monkeypatch.setattr(optimize, "mu_core", core)
    monkeypatch.setattr(optimize, "mu_stage", stage)
    return probes, tables


def parse_pretty(output):
    result = {}
    for line in output.splitlines():
        name = line[:22].strip()
        result[name] = line[22:].strip()
    return result


class TestConfig:
    def test_defaults(self):
        scenario = parse_scenario({})
        r = scenario.receiver
        assert len(r.detectors) == 2
        assert all(d.afterpulse_prob == 0.0 and d.bias == 0.0 for d in r.detectors)
        assert r.dark_count_prob_total == 6e-7
        assert r.intrinsic_error == 0.02
        assert r.background_error == 0.5
        assert r.detector_efficiency == 0.1
        assert scenario.channel.attenuation_db_per_km == 0.21
        assert scenario.channel.loss_db == 0.0
        assert scenario.intensities.signal_mu == 0.48
        assert scenario.intensities.weak_decoy_nu1 == 0.038
        assert scenario.protocol.sifting_factor == 0.5
        assert scenario.protocol.ec_efficiency == 1.16
        assert scenario.sweep is None

    def test_explicit_detector_list(self):
        scenario = parse_scenario(
            {
                "receiver": {
                    "detectors": [
                        {"afterpulse_prob": 0.01, "bias": 0.5},
                        {"afterpulse_prob": 0.02, "bias": -0.5},
                    ]
                }
            }
        )
        assert [d.bias for d in scenario.receiver.detectors] == [0.5, -0.5]

    def test_per_detector_dark_counts(self):
        scenario = parse_scenario(
            {"receiver": {"num_detectors": 4, "dark_count_prob_per_detector": 1e-7}}
        )
        assert scenario.receiver.dark_count_prob_total == pytest.approx(4e-7)

    def test_unknown_field_names_path(self):
        # One full message per section: the path and the section's fields in order.
        axis = {"name": "p_ap", "min": 0.0, "max": 0.1, "count": 2}
        cases = [
            ({"extra": {}}, "config.extra", "receiver, channel, intensities, protocol, sweep"),
            (
                {"receiver": {"typo": 1}},
                "receiver.typo",
                "detectors, num_detectors, afterpulse_prob, dark_count_prob_total, "
                "dark_count_prob_per_detector, intrinsic_error, background_error, "
                "detector_efficiency",
            ),
            (
                {"receiver": {"detectors": [{"afterpulse_prob": 0.01, "typo": 1}]}},
                "receiver.detectors[0].typo",
                "afterpulse_prob, bias",
            ),
            (
                {"channel": {"typo": 1}},
                "channel.typo",
                "attenuation_db_per_km, distance_km, loss_db",
            ),
            (
                {"intensities": {"typo": 1}},
                "intensities.typo",
                "signal_mu, weak_decoy_nu1, vacuum_decoy",
            ),
            ({"protocol": {"typo": 1}}, "protocol.typo", "sifting_factor, ec_efficiency"),
            ({"sweep": {"typo": 1}}, "sweep.typo", "axes, outputs, mu_policy"),
            (
                {"sweep": {"axes": [axis, {**axis, "typo": 1}]}},
                "sweep.axes[1].typo",
                "name, min, max, count, spacing",
            ),
        ]
        for cfg, path, fields in cases:
            with pytest.raises(ValidationError) as excinfo:
                parse_scenario(cfg)
            assert str(excinfo.value) == f"{path}: unknown field (expected one of {fields})"

    def test_detector_entry_error_path(self):
        with pytest.raises(ValidationError, match=r"receiver\.detectors\[1\]"):
            parse_scenario(
                {
                    "receiver": {
                        "detectors": [{"afterpulse_prob": 0.01}, {"bias": 0.0}]
                    }
                }
            )

    def test_invalid_value_keeps_path(self):
        with pytest.raises(ValidationError, match="channel"):
            parse_scenario({"channel": {"loss_db": -2.0}})
        with pytest.raises(ValidationError, match=r"intensities"):
            parse_scenario({"intensities": {"signal_mu": 0.01}})

    def test_loss_and_distance_conflict(self):
        with pytest.raises(ValidationError, match="loss_db"):
            parse_scenario({"channel": {"loss_db": 5.0, "distance_km": 10.0}})

    def test_detectors_and_identical_fields_conflict(self):
        with pytest.raises(ValidationError, match="num_detectors"):
            parse_scenario(
                {
                    "receiver": {
                        "num_detectors": 2,
                        "detectors": [{"afterpulse_prob": 0.01}],
                    }
                }
            )

    # One line per way the receiver and channel sections fail to build,
    # identical to the seed code's.
    @pytest.mark.parametrize(
        "text, message",
        [
            ("receiver: {num_detectors: 0}", "receiver: num_detectors must be >= 1, got 0"),
            (
                "receiver: {num_detectors: 0, afterpulse_prob: 2.0}",
                "receiver: num_detectors must be >= 1, got 0",
            ),
            (
                "receiver: {afterpulse_prob: 2.0}",
                "receiver: afterpulse_prob must be in [0, 1], got 2.0",
            ),
            (
                "receiver: {num_detectors: 3, dark_count_prob_per_detector: 0.4}",
                "receiver: dark_count_prob_total must be in [0, 1), got 1.2000000000000002",
            ),
            (
                "receiver: {detectors: [{afterpulse_prob: 0.01}], "
                "dark_count_prob_per_detector: 2.0}",
                "receiver: dark_count_prob_total must be in [0, 1), got 2.0",
            ),
            ("receiver: 3", "receiver: expected a mapping, got int"),
            (
                "receiver: {dark_count_prob_total: 1.0e-7, dark_count_prob_per_detector: 1.0e-7}",
                "receiver.dark_count_prob_total: give either the total or the "
                "per-detector dark count probability, not both",
            ),
            ("channel: {distance_km: -1}", "channel: distance_km must be >= 0, got -1.0"),
            (
                "channel: {attenuation_db_per_km: -1, loss_db: 3}",
                "channel: attenuation_db_per_km must be >= 0, got -1.0",
            ),
        ],
        ids=[
            "no_detectors", "no_detectors_bad_afterpulse", "bad_afterpulse",
            "per_detector_dark_counts", "detector_list_dark_counts", "not_a_mapping",
            "total_and_per_detector_dark_counts", "negative_distance",
            "negative_attenuation_with_loss",
        ],
    )
    def test_receiver_and_channel_error_lines(self, tmp_path, capsys, text, message):
        config = write_config(tmp_path, text + "\n")
        assert main(["report", "--config", config]) == 2
        assert capsys.readouterr().err == f"error: config: {message}\n"

    # NaN fails every `x >= 0` test, and an infinite attenuation would make
    # 0 km NaN dB (as would 0 dB/km over an infinite distance), so each of
    # these is a config error before any node runs.
    @pytest.mark.parametrize("command", ["report", "sweep", "contour"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("channel: {loss_db: .nan}", "channel: transmission_loss_db must be >= 0, got nan"),
            ("channel: {distance_km: .nan}", "channel: distance_km must be >= 0, got nan"),
            (
                "channel: {attenuation_db_per_km: .nan}",
                "channel: attenuation_db_per_km must be >= 0, got nan",
            ),
            (
                "channel: {attenuation_db_per_km: .inf}",
                "channel: attenuation_db_per_km must be finite, got inf",
            ),
            (
                "channel: {attenuation_db_per_km: 0.0, distance_km: .inf}",
                "channel: distance_km must be finite when attenuation_db_per_km is 0, got inf",
            ),
            ("protocol: {ec_efficiency: .nan}", "protocol: ec_efficiency must be >= 1, got nan"),
        ],
        ids=[
            "nan_loss", "nan_distance", "nan_attenuation", "inf_attenuation",
            "zero_attenuation_inf_distance", "nan_ec",
        ],
    )
    def test_nan_settings_and_infinite_attenuation_are_config_errors(
        self, tmp_path, capsys, command, text, message
    ):
        config = write_config(tmp_path, f"{text}\n{CONTOUR_GRID}")
        assert main([command, "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: config: {message}\n"
        assert captured.out == ""

    # Any field given as null is a field not given: it takes the field's
    # default. A case without a sweep section runs on CONTOUR_GRID.
    @pytest.mark.parametrize("command", ["report", "sweep", "contour"])
    @pytest.mark.parametrize(
        "text, absent",
        [
            ("receiver: {num_detectors: null}", "receiver: {}"),
            ("intensities: {signal_mu: null}", "intensities: {}"),
            ("receiver: {intrinsic_error: null}", "receiver: {}"),
            ("protocol: {ec_efficiency: null}", "protocol: {}"),
            (
                "receiver: {detectors: [{afterpulse_prob: 0.01, bias: null}]}",
                "receiver: {detectors: [{afterpulse_prob: 0.01}]}",
            ),
            ("receiver: {detectors: null, num_detectors: 3}", "receiver: {num_detectors: 3}"),
            (
                "receiver: {detectors: [{afterpulse_prob: 0.01}], num_detectors: null,"
                " afterpulse_prob: null}",
                "receiver: {detectors: [{afterpulse_prob: 0.01}]}",
            ),
            (CONTOUR_GRID.replace("count: 2}", "count: 2, spacing: null}"), CONTOUR_GRID),
            (CONTOUR_GRID + "  mu_policy: null\n", CONTOUR_GRID),
            (CONTOUR_GRID + "  outputs: null\n", CONTOUR_GRID),
            ("sweep: {axes: null}", "sweep: {}"),
        ],
        ids=[
            "num_detectors", "signal_mu", "intrinsic_error", "ec_efficiency", "bias",
            "detectors", "identical_fields_next_to_detectors", "spacing", "mu_policy",
            "outputs", "axes",
        ],
    )
    def test_null_takes_its_default(self, tmp_path, capsys, command, text, absent):
        runs = []
        for name, body in (("null.yaml", text), ("absent.yaml", absent)):
            if "sweep:" not in body:
                body = f"{body}\n{CONTOUR_GRID}"
            config = write_config(tmp_path, body, name)
            runs.append((main([command, "--config", config]), capsys.readouterr()))
        # contour needs two axes: with none, both runs fail alike
        fails = "axes: null" in text and command == "contour"
        assert runs[1][0] == (2 if fails else 0)
        if not fails:
            assert runs[1][1].err == ""
        assert runs[0] == runs[1]
        assert load_scenario(config) == load_scenario(str(tmp_path / "null.yaml"))

    # One line per kind of field given a value of the wrong type.
    @pytest.mark.parametrize(
        "text, message",
        [
            ("intensities: {signal_mu: hi}", "intensities.signal_mu: expected a number, got 'hi'"),
            (
                "protocol: {ec_efficiency: yes}",
                "protocol.ec_efficiency: expected a number, got True",
            ),
            (
                "receiver: {num_detectors: 2.5}",
                "receiver.num_detectors: expected an integer, got 2.5",
            ),
            ("sweep: {mu_policy: 3}", "sweep.mu_policy: expected a string, got 3"),
            (
                "sweep: {axes: [{name: p_ap, min: 0, max: 1, count: 2, spacing: [log]}]}",
                "sweep.axes[0].spacing: expected a string, got ['log']",
            ),
            ("sweep: {axes: 5}", "sweep.axes: expected a list, got 5"),
            ("receiver: {detectors: 5}", "receiver.detectors: expected a list, got 5"),
            ("receiver: {detectors: []}", "receiver.detectors: expected a non-empty list"),
            (
                "sweep: {outputs: [skr_lower, 1]}",
                "sweep.outputs: expected a list of metric names, got ['skr_lower', 1]",
            ),
        ],
        ids=[
            "number", "bool_number", "integer", "string", "axis_string", "list",
            "detectors_list", "empty_detectors", "names",
        ],
    )
    def test_type_error_lines(self, tmp_path, capsys, text, message):
        config = write_config(tmp_path, text + "\n")
        assert main(["report", "--config", config]) == 2
        assert capsys.readouterr().err == f"error: config: {message}\n"

    # A required field left out, or given as null, names its own path.
    @pytest.mark.parametrize(
        "text, path",
        [
            ("receiver: {detectors: [{bias: 0.0}]}", "receiver.detectors[0].afterpulse_prob"),
            ("sweep: {axes: [{min: 0, max: 1, count: 2}]}", "sweep.axes[0].name"),
            ("sweep: {axes: [{name: p_ap, max: 1, count: 2}]}", "sweep.axes[0].min"),
            ("sweep: {axes: [{name: p_ap, min: 0, count: 2}]}", "sweep.axes[0].max"),
            ("sweep: {axes: [{name: p_ap, min: 0, max: 1, count: null}]}", "sweep.axes[0].count"),
        ],
        ids=["afterpulse_prob", "name", "min", "max", "count"],
    )
    def test_required_field_lines(self, tmp_path, capsys, text, path):
        config = write_config(tmp_path, text + "\n")
        assert main(["report", "--config", config]) == 2
        assert capsys.readouterr().err == f"error: config: {path}: required\n"

    # A key given twice in one mapping is an error, at any depth: YAML itself
    # would keep the last value and drop the first without a word.
    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "receiver: {afterpulse_prob: 0.5}\nreceiver: {intrinsic_error: 0.03}\n",
                "config: line 2: duplicate key 'receiver'",
            ),
            (
                "receiver:\n  afterpulse_prob: 0.5\n  intrinsic_error: 0.03\n"
                "  afterpulse_prob: 0.2\n",
                "config: line 4: duplicate key 'afterpulse_prob'",
            ),
            (
                CONTOUR_GRID.replace("count: 2}", "count: 2, max: 0.5}", 1),
                "config: line 3: duplicate key 'max'",
            ),
        ],
        ids=["section", "field", "axis_entry"],
    )
    def test_repeated_key_is_a_config_error(self, tmp_path, capsys, text, message):
        config = write_config(tmp_path, text)
        with pytest.raises(ValidationError) as exc:
            load_scenario(config)
        assert str(exc.value) == message
        for command in ("report", "sweep", "contour"):
            assert main([command, "--config", config]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: config: {message}\n"
            assert captured.out == ""

    def test_merge_key_is_not_a_repeated_key(self, tmp_path):
        config = write_config(
            tmp_path,
            "receiver:\n  <<: {afterpulse_prob: 0.5, intrinsic_error: 0.03}\n"
            "  afterpulse_prob: 0.2\n",
        )
        receiver = load_scenario(config).receiver
        assert receiver.detectors[0].afterpulse_prob == 0.2
        assert receiver.intrinsic_error == 0.03

    def test_axis_name_alias(self):
        scenario = parse_scenario(
            {
                "sweep": {
                    "axes": [{"name": "p_AP", "min": 0.0, "max": 0.01, "count": 3}]
                }
            }
        )
        assert scenario.sweep.axes[0].name == "p_ap"


class TestReport:
    def test_defaults_give_positive_key(self, capsys):
        assert main(["report"]) == 0
        values = parse_pretty(capsys.readouterr().out)
        assert values["status"] == "ok"
        for name in ("q_mu", "e_mu", "skr_lower", "skr_approx", "visibility"):
            assert math.isfinite(float(values[name]))
        assert float(values["skr_lower"]) > 0.0

    def test_worked_baseline_error_example(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "receiver:\n  afterpulse_prob: 0.008\n  intrinsic_error: 0.02\n",
        )
        assert main(["report", "--config", path]) == 0
        values = parse_pretty(capsys.readouterr().out)
        assert values["e_detector"] == "0.02380952381"

    def test_weak_decoy_at_smallest_normal_float_is_infeasible(self, tmp_path, capsys):
        # nu1 * nu1 underflows and the weak-decoy gain is subnormal: the seed
        # code prints an ok row with bounds from that gain
        path = write_config(
            tmp_path,
            "receiver: {intrinsic_error: 0.0, dark_count_prob_total: 0.0}\n"
            "channel: {loss_db: 0.0}\n"
            "intensities: {signal_mu: 1.0, weak_decoy_nu1: 2.2250738585072014e-308}\n",
        )
        assert main(["report", "--config", path]) == 0
        values = parse_pretty(capsys.readouterr().out)
        assert values["status"] == "infeasible"
        assert values["y1_lower"] == values["skr_raw"] == ""
        assert values["skr_lower"] == "0"

    def test_machine_readable_row(self, tmp_path, capsys):
        assert main(["report", "--format", "csv"]) == 0
        header, row = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        record = dict(zip(header, row))
        assert record["status"] == "ok"
        assert float(record["e_detector"]) == pytest.approx(0.02)
        # The bytes, at the defaults and at an overdriven signal at 40 dB
        # (decoy estimation infeasible: empty cells and a reason), equal a
        # csv.writer rendering of the report's values.
        infeasible = write_config(
            tmp_path,
            "receiver: {num_detectors: 2, afterpulse_prob: 0.05, dark_count_prob_total: 6.0e-7}\n"
            "channel: {loss_db: 40.0}\n"
            "intensities: {signal_mu: 6.0, weak_decoy_nu1: 0.05}\n",
        )
        for argv, status in [([], "ok"), (["--config", infeasible], "infeasible")]:
            assert main(["report", "--format", "csv", *argv]) == 0
            rows = _report_rows(load_scenario(infeasible) if argv else parse_scenario({}))
            assert dict(rows)["status"] == status
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow([name for name, _ in rows])
            writer.writerow([
                "" if v is None else format(v, ".10g") if isinstance(v, float) else v
                for _, v in rows
            ])
            assert capsys.readouterr().out == buf.getvalue()

    def test_degenerate_input_exits_model_domain(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "receiver:\n  dark_count_prob_total: 0.0\nchannel:\n  loss_db: 4000\n",
        )
        assert main(["report", "--config", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: model-domain:")

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, "receiver:\n  nonsense: 1\n")
        assert main(["report", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert "receiver.nonsense" in err

    @pytest.mark.parametrize(
        "error", DecoyLinkError.__subclasses__(), ids=lambda cls: cls.__name__
    )
    def test_exit_code_follows_the_error_hierarchy(self, monkeypatch, capsys, error):
        def command(args):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_report", command)
        code, kind = (2, "config") if issubclass(error, ValidationError) else (3, "model-domain")
        assert main(["report"]) == code
        assert capsys.readouterr().err == f"error: {kind}: boom\n"

    # Bytes that the YAML reader cannot turn into a document are config
    # errors, not tracebacks.
    @pytest.mark.parametrize(
        "data, message",
        [
            (
                b"receiver:\n  intrinsic_error: 0.02 \xff\n",
                "config: not valid YAML: 'utf-8' codec can't decode byte 0xff in position "
                "34: invalid start byte",
            ),
            (
                b"receiver: " + b"[" * 5000 + b"]" * 5000 + b"\n",
                "config: nested too deeply to read",
            ),
        ],
        ids=["not_utf8", "nested_5000_deep"],
    )
    def test_unreadable_file_is_a_config_error(self, tmp_path, capsys, data, message):
        path = tmp_path / "scenario.yaml"
        path.write_bytes(data)
        assert main(["report", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: config: {message}\n"
        assert captured.out == ""

    def test_missing_config_file_is_io_error(self, capsys):
        assert main(["report", "--config", "/nonexistent/x.yaml"]) == 4
        assert capsys.readouterr().err.startswith("error: io:")

    def test_seedless_flag_accepted(self, capsys):
        assert main(["report", "--seedless"]) == 0


SWEEP_CONFIG = """\
receiver:
  afterpulse_prob: 0.008
  intrinsic_error: 0.02
channel:
  loss_db: 10.5
sweep:
  axes:
    - {name: p_ap, min: 1.0e-4, max: 0.05, count: 4, spacing: log}
  outputs: [e_detector, e_mu, skr_lower]
"""


class TestSweepCommand:
    def test_writes_header_and_rows(self, tmp_path):
        config = write_config(tmp_path, SWEEP_CONFIG)
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", config, "--output", str(out)]) == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["p_ap", "e_detector", "e_mu", "skr_lower", "status", "reason"]
        assert len(rows) == 5
        assert all(row[4] == "ok" for row in rows[1:])

    def test_ten_significant_digits(self, tmp_path):
        config = write_config(tmp_path, SWEEP_CONFIG)
        out = tmp_path / "out.csv"
        main(["sweep", "--config", config, "--output", str(out)])
        rows = list(csv.reader(out.open()))
        e_det = rows[1][1]
        assert e_det == format(float(e_det), ".10g")

    def test_repeat_runs_byte_identical(self, tmp_path):
        config = write_config(tmp_path, SWEEP_CONFIG)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        main(["sweep", "--config", config, "--output", str(first)])
        main(["sweep", "--config", config, "--output", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_unix_line_endings(self, tmp_path):
        config = write_config(tmp_path, SWEEP_CONFIG)
        out = tmp_path / "out.csv"
        main(["sweep", "--config", config, "--output", str(out)])
        data = out.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_search_out_of_steps_is_not_converged(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, """\
sweep:
  axes:
    - {name: p_ap, min: 0.001, max: 1.5, count: 3}
  outputs: [skr_lower]
  mu_policy: optimize-per-point
""")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", config, "--output", str(out)]) == 0
        assert [row["status"] for row in csv.DictReader(out.open())] == [
            "ok", "ok", "model-domain-error"
        ]
        monkeypatch.setattr(optimize, "MAX_ITERATIONS", 3)
        assert main(["sweep", "--config", config, "--output", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [row["status"] for row in rows] == [
            "not-converged", "not-converged", "model-domain-error"
        ]
        assert rows[0]["mu_opt"] and rows[0]["skr_lower"]

    def test_non_finite_axis_endpoint_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path, "sweep:\n  axes:\n    - {name: loss_db, min: 0.0, max: .inf, count: 3}\n"
        )
        assert main(["sweep", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: config: sweep.axes[0]: axis loss_db: endpoints must be finite, "
            "got min=0.0 max=inf\n"
        )
        assert captured.out == ""

    # Grids whose rejected nodes overflow in numpy arithmetic: a nu1 axis
    # to 1e308 under optimize-per-point (the optimizer's bracket and seed
    # grid) and a loss of attenuation times distance past the float maximum.
    # The seed code prints no warning for them; the expected text is its
    # stdout.
    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                "sweep:\n  axes:\n"
                "    - {name: weak_decoy_nu1, min: 0.0, max: 1.0e+308, count: 3}\n"
                "  mu_policy: optimize-per-point\n",
                "weak_decoy_nu1,mu_opt,skr_lower,status,reason\n"
                '0,,,model-domain-error,"weak+vacuum estimation needs 0 < nu1 < mu, '
                'got nu1=0.0 mu=1e-06"\n'
                "5e+307,,,model-domain-error,weak_decoy_nu1 (5e+307) must be below "
                "signal_mu (0.48)\n"
                "1e+308,,,model-domain-error,weak_decoy_nu1 (1e+308) must be below "
                "signal_mu (0.48)\n",
            ),
            (
                "channel: {attenuation_db_per_km: 1.0e+300}\n"
                "sweep:\n  axes:\n    - {name: distance_km, min: 0.0, max: 1.0e+10, count: 3}\n",
                "distance_km,skr_lower,status,reason\n"
                "0,0.008702849002,ok,\n"
                "5000000000,0,ok,\n"
                "1e+10,0,ok,\n",
            ),
        ],
        ids=["huge_nu1", "huge_loss"],
    )
    def test_overflow_at_extreme_nodes_is_silent(self, tmp_path, capsys, text, expected):
        config = write_config(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--config", config]) == 0
        assert capsys.readouterr().out == expected

    # A scalar output repeated after baseline_error_change, at e' = 0: the
    # seed code prints the value it computed before the failure. The
    # expected text is the seed code's stdout.
    @pytest.mark.parametrize(
        "outputs, expected",
        [
            (
                "[p_ap, baseline_error_change, p_ap]",
                "intrinsic_error,p_ap,baseline_error_change,p_ap,status,reason\n"
                "0,0,,0,model-domain-error,"
                "relative baseline change undefined for intrinsic_error = 0\n"
                "0.02,0,0,0,ok,\n",
            ),
            (
                "[e_detector, q_mu, baseline_error_change, e_detector, visibility]",
                "intrinsic_error,e_detector,q_mu,baseline_error_change,e_detector,visibility,"
                "status,reason\n"
                "0,0,,,0,,model-domain-error,"
                "relative baseline change undefined for intrinsic_error = 0\n"
                "0.02,0.02,0.04686681292,0,0.02,0.96,ok,\n",
            ),
            (
                "[baseline_error_change, p_ap, p_ap]",
                "intrinsic_error,baseline_error_change,p_ap,p_ap,status,reason\n"
                "0,,,,model-domain-error,"
                "relative baseline change undefined for intrinsic_error = 0\n"
                "0.02,0,0,0,ok,\n",
            ),
        ],
        ids=["after", "between", "first"],
    )
    def test_scalar_output_repeated_after_baseline_change(
        self, tmp_path, capsys, outputs, expected
    ):
        config = write_config(
            tmp_path,
            "sweep:\n  axes:\n    - {name: intrinsic_error, min: 0.0, max: 0.02, count: 2}\n"
            f"  outputs: {outputs}\n",
        )
        assert main(["sweep", "--config", config]) == 0
        assert capsys.readouterr().out == expected

    def test_missing_sweep_section(self, tmp_path, capsys):
        config = write_config(tmp_path, "receiver:\n  intrinsic_error: 0.02\n")
        for command in ("sweep", "contour"):
            assert main([command, "--config", config]) == 2
            captured = capsys.readouterr()
            assert captured.err == (
                f"error: config: sweep: section required for the {command} command\n"
            )
            assert captured.out == ""

    def test_unwritable_output(self, tmp_path, capsys):
        config = write_config(tmp_path, SWEEP_CONFIG)
        assert main(["sweep", "--config", config, "--output", "/no/such/dir/x.csv"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: io:")
        assert "/no/such/dir/x.csv" in err

    def test_golden_section_calls_take_at_most_the_row_budget(self, tmp_path, monkeypatch):
        # 75 nodes in one slab. With a budget of 64 points the seed grid takes
        # one node per call, the first golden-section probe (both inner
        # points of each node, 150) three calls, and each later probe, one
        # point per node still searching (75 until they converge), two.
        config = write_config(tmp_path, """\
sweep:
  axes:
    - {name: loss_db, min: 0.0, max: 40.0, count: 5}
    - {name: p_ap, min: 1.0e-4, max: 0.2, count: 15, spacing: log}
  outputs: [skr_lower, e1_upper]
  mu_policy: optimize-per-point
""")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", config, "--output", str(out)]) == 0
        expected = out.read_bytes()
        probes, tables = count_kernel_points(monkeypatch)
        monkeypatch.setattr(optimize, "_SEED_SLICE_ROWS", 64)
        assert main(["sweep", "--config", config, "--output", str(out)]) == 0
        assert out.read_bytes() == expected
        # every probe within the budget; one final table at the slab's nodes
        assert max(probes) <= 64
        assert 75 - 64 in probes and 150 - 2 * 64 in probes
        assert tables == [75]
        assert sum(probes) >= 75 * (optimize._GRID_SEED_POINTS + 2)


# Grids for the byte-identity gate, each with a check that it holds the case
# it is there for. They run in slabs of at most GATE_SLAB_NODES nodes, written
# in chunks of at most GATE_CHUNK_NODES nodes, so that chunk edges fall inside
# the slabs' rows.
GATE_SLAB_NODES = 64
GATE_CHUNK_NODES = 24
GATE_GRIDS = {
    # ok, infeasible and model-domain-error nodes, reasons with commas, 3 axes
    "statuses": (
        """\
channel: {loss_db: 40.0}
intensities: {signal_mu: 0.48, weak_decoy_nu1: 0.038}
sweep:
  axes:
    - {name: p_ap, min: 0.008, max: 1.5, count: 3}
    - {name: dark_count_prob, min: 6.0e-7, max: 1.0, count: 2}
    - {name: signal_mu, min: 0.038, max: 6.0, count: 3}
  outputs: [e_detector, skr_lower, y1_lower, p_ap, e1_upper]
""",
        lambda rows: {row[-2] for row in rows} == {"ok", "infeasible", "model-domain-error"}
        and any("," in row[-1] for row in rows),
    ),
    # baseline_error_change is -0 at p_ap = 0 when e' > e0 and 0 at e' = e0
    "negative_zero": (
        """\
receiver: {intrinsic_error: 0.6}
sweep:
  axes:
    - {name: p_ap, min: 0.0, max: 0.1, count: 3}
    - {name: intrinsic_error, min: 0.4, max: 0.6, count: 3}
  outputs: [baseline_error_change, e_detector]
""",
        lambda rows: {"0", "-0"} <= {row[2] for row in rows},
    ),
    # mu_opt on an ok node, on a node only the link model rejects, and absent
    "optimize_per_point": (
        """\
channel: {loss_db: 5.0}
intensities: {signal_mu: 2.0, weak_decoy_nu1: 0.038}
sweep:
  axes:
    - {name: dark_count_prob, min: 0.0, max: 6.0e-7, count: 2}
    - {name: weak_decoy_nu1, min: 0.0, max: 1.6, count: 5}
  outputs: [skr_lower, q_mu]
  mu_policy: optimize-per-point
""",
        lambda rows: {"no_positive_key", ""} <= {row[-1] for row in rows}
        and any(row[2] and row[-2] == "model-domain-error" for row in rows)
        and any(not row[2] for row in rows),
    ),
    "no_axes": (
        """\
receiver: {afterpulse_prob: 0.01}
channel: {loss_db: 12.0}
sweep:
  outputs: [skr_lower, e_mu, visibility]
""",
        lambda rows: len(rows) == 1,
    ),
    # more than two slabs, the last one partial, and each p_ap value's row of
    # loss values longer than a chunk
    "blocks": (
        """\
sweep:
  axes:
    - {name: p_ap, min: 1.0e-3, max: 1.2, count: 29, spacing: log}
    - {name: loss_db, min: 0.0, max: 60.0, count: 31}
  outputs: [skr_lower, e1_upper, baseline_error_change]
""",
        lambda rows: len(rows) > 2 * GATE_SLAB_NODES and len(rows) % GATE_SLAB_NODES != 0
        and len({row[0] for row in rows}) * GATE_CHUNK_NODES < len(rows),
    ),
}


class TestSweepBytes:
    @pytest.mark.parametrize("name", GATE_GRIDS)
    def test_equals_independent_rendering_of_records(
        self, tmp_path, sweep_csv, monkeypatch, name
    ):
        text, covers = GATE_GRIDS[name]
        config = write_config(tmp_path, text)
        out = tmp_path / "out.csv"
        monkeypatch.setattr(sweep, "SLAB_NODES", GATE_SLAB_NODES)
        monkeypatch.setattr(cli, "CHUNK_NODES", GATE_CHUNK_NODES)
        assert main(["sweep", "--config", config, "--output", str(out)]) == 0
        data = out.read_bytes()
        assert covers(list(csv.reader(io.StringIO(data.decode())))[1:])
        assert data == sweep_csv(load_scenario(config).sweep).encode()

    def test_preset_equals_independent_rendering_of_records(
        self, tmp_path, render_sweep, monkeypatch
    ):
        out = tmp_path / "curves.csv"
        points = 7
        argv = ["--points", str(points), "--pap-min", "1e-3", "--pap-max", "1.2"]
        scenario = parse_scenario({})
        axis = Axis("p_ap", 1e-3, 1.2, points, "log")
        expected = "loss_db,weak_decoy_nu1,intrinsic_error,p_ap,mu_opt,skr_lower,status,reason\n"
        for loss_db, nu1 in sorted(NU1_BY_LOSS_DB.items()):
            for e_prime in PRESET_INTRINSIC_ERRORS:
                spec = SweepSpec(
                    replace(scenario.receiver, intrinsic_error=e_prime),
                    ChannelModel(transmission_loss_db=loss_db),
                    IntensitySet(1.0, nu1),
                    scenario.protocol,
                    (axis,),
                    ("skr_lower",),
                    "optimize-per-point",
                )
                lead = (format(loss_db, ".10g"), format(nu1, ".10g"), format(e_prime, ".10g"))
                expected += render_sweep(spec, lead)
        # The preset's nodes span 3 slabs of the lockstep optimizer, each of
        # 2 or more seed-grid slices, and each curve is written in 2 chunks.
        block_nodes, slice_nodes, chunk_nodes = 16, 5, 4
        monkeypatch.setattr(sweep, "SLAB_NODES", block_nodes)
        monkeypatch.setattr(cli, "CHUNK_NODES", chunk_nodes)
        monkeypatch.setattr(optimize, "_SEED_SLICE_ROWS", slice_nodes * optimize._GRID_SEED_POINTS)
        nodes = len(NU1_BY_LOSS_DB) * len(PRESET_INTRINSIC_ERRORS) * points
        assert nodes > 2 * block_nodes and nodes % block_nodes >= 2 * slice_nodes
        assert main(["skr-vs-afterpulse", *argv, "--output", str(out)]) == 0
        data = out.read_text()
        rows = list(csv.reader(io.StringIO(data)))[1:]
        assert {"", "no_positive_key"} <= {row[7] for row in rows}
        assert "model-domain-error" in {row[6] for row in rows}
        assert data == expected


CONTOUR_CONFIG = """\
receiver:
  intrinsic_error: 0.02
channel:
  loss_db: 10.5
sweep:
  axes:
    - {name: p_ap, min: 0.0, max: 0.05, count: 3}
    - {name: intrinsic_error, min: 0.0, max: 0.04, count: 2}
"""


# Scenarios of several write chunks each, for each command that writes a grid.
CHUNKED_RUNS = {
    "sweep-fixed": ("""\
sweep:
  axes:
    - {name: intrinsic_error, min: 0.0, max: 0.04, count: 3}
    - {name: p_ap, min: 1.0e-3, max: 1.5, count: 4, spacing: log}
    - {name: loss_db, min: 0.0, max: 60.0, count: 7}
  outputs: [skr_lower, e_mu, baseline_error_change]
""", ["sweep"]),
    "sweep-optimize": ("""\
sweep:
  axes:
    - {name: p_ap, min: 1.0e-3, max: 1.5, count: 3, spacing: log}
    - {name: loss_db, min: 0.0, max: 30.0, count: 7}
  mu_policy: optimize-per-point
""", ["sweep"]),
    "preset": ("", ["skr-vs-afterpulse", "--points", "7"]),
    "contour": (CONTOUR_CONFIG.replace("count: 3", "count: 9"), ["contour"]),
}


class TestWriteChunks:
    """The CLI holds the CSV cells of at most CHUNK_NODES nodes at once."""

    @pytest.mark.parametrize("name", CHUNKED_RUNS)
    def test_write_csv_gets_at_most_a_chunk_of_rows(self, tmp_path, monkeypatch, name):
        text, argv = CHUNKED_RUNS[name]
        chunk_nodes = 5
        monkeypatch.setattr(cli, "CHUNK_NODES", chunk_nodes)
        sizes = []
        write_csv = cli._write_csv

        def counted(path, header, blocks):
            def rows_of(blocks):
                for columns in blocks:
                    sizes.append({len(column) for column in columns})
                    yield columns
            write_csv(path, header, rows_of(blocks))

        monkeypatch.setattr(cli, "_write_csv", counted)
        out = tmp_path / "out.csv"
        config = write_config(tmp_path, text)
        assert main([*argv, "--config", config, "--output", str(out)]) == 0
        rows = len(out.read_text().splitlines()) - 1
        assert all(len(size) == 1 for size in sizes)
        assert max(size for (size,) in sizes) <= chunk_nodes
        assert sum(size for (size,) in sizes) == rows > 3 * chunk_nodes


class TestContourCommand:
    def test_matches_library_surface(self, tmp_path, capsys):
        config = write_config(tmp_path, CONTOUR_CONFIG)
        assert main(["contour", "--config", config, "--target-qber", "0.09"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][:4] == ["p_ap", "intrinsic_error", "loss_db", "dark_count_threshold"]
        assert len(rows) == 7
        scenario = parse_scenario(yaml.safe_load(open(config)))
        expected = dark_count_threshold(
            0.05, 0.04, 10.5, 0.09, scenario.receiver, 0.48
        )
        assert float(rows[-1][3]) == pytest.approx(expected.dark_count_prob, rel=1e-9)

    def test_equals_independent_rendering_of_points(self, tmp_path, capsys, monkeypatch):
        config = write_config(
            tmp_path,
            CONTOUR_CONFIG.replace("count: 3", "count: 9").replace(
                "max: 0.04, count: 2", "max: 0.2, count: 8"
            ),
        )
        scenario = load_scenario(config)
        axes = {ax.name: ax for ax in scenario.sweep.axes}
        points = optimize.trace_iso_qber_surface(
            axes["p_ap"].values(), axes["intrinsic_error"].values(), scenario.channel.loss_db,
            0.09, scenario.receiver, scenario.intensities.signal_mu,
        )
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ("p_ap", "intrinsic_error", "loss_db", "dark_count_threshold", "achieved_qber",
             "status")
        )
        for p in points:
            numbers = (p.p_ap, p.intrinsic_error, p.loss_db, p.dark_count_prob, p.achieved_qber)
            writer.writerow([
                *("" if v is None else format(v, ".10g") for v in numbers),
                "ok" if p.feasible else "infeasible",
            ])
        # at least 3 chunks, the last one partial, with infeasible rows
        chunk_nodes = 20
        monkeypatch.setattr(cli, "CHUNK_NODES", chunk_nodes)
        assert len(points) > 2 * chunk_nodes and len(points) % chunk_nodes != 0
        assert {p.feasible for p in points} == {True, False}
        assert main(["contour", "--config", config, "--target-qber", "0.09"]) == 0
        assert capsys.readouterr().out == buf.getvalue()

    def test_requires_both_axes(self, tmp_path, capsys):
        config = write_config(tmp_path, SWEEP_CONFIG)
        assert main(["contour", "--config", config]) == 2
        assert "p_ap and intrinsic_error" in capsys.readouterr().err

    def test_infeasible_rows_flagged(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            CONTOUR_CONFIG.replace("max: 0.04", "max: 0.2"),
        )
        assert main(["contour", "--config", config]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        statuses = {row[5] for row in rows[1:]}
        assert statuses == {"ok", "infeasible"}
        for row in rows[1:]:
            if row[5] == "infeasible":
                assert row[3] == "" and row[4] == ""


    # Exit codes and messages generated from the scalar per-node bisection
    # that the lockstep solver replaced. The last case fails at p_ap = 1 (a
    # gain of 1.6) before the p_ap = 2 row that the validator rejects: the
    # first failing node in row-major order is the one reported.
    @pytest.mark.parametrize(
        "receiver, loss_db, signal_mu, p_ap_axis, target, code, message",
        [
            (
                "", 10.5, 0.48, "min: 0.0, max: 2.0, count: 3", "0.09", 2,
                "error: config: afterpulse_prob must be in [0, 1], got 2.0\n",
            ),
            (
                "", 0.0, 0.48, "min: 0.0, max: 0.05, count: 3", "0.4", 2,
                "error: config: target_qber=0.4 not reachable below the dark-count "
                "search cap 0.1 (QBER at cap: 0.340446)\n",
            ),
            (
                "  detector_efficiency: 1.0\n", 0.0, 5.0, "min: 0.5, max: 0.5, count: 1",
                "0.09", 3,
                "error: model-domain: total gain 1.4898930795013718 exceeds 1: afterpulse "
                "probability too large for the single-order afterpulse model\n",
            ),
            (
                "", 4000.0, 0.48, "min: 0.0, max: 0.05, count: 3", "0.09", 3,
                "error: model-domain: total gain is zero (no dark counts and an opaque "
                "channel); error rate undefined\n",
            ),
            (
                "  detector_efficiency: 1.0\n", 0.0, 1.6094379124341003,
                "min: 0.0, max: 2.0, count: 3", "0.05", 3,
                "error: model-domain: total gain 1.6 exceeds 1: afterpulse probability "
                "too large for the single-order afterpulse model\n",
            ),
        ],
        ids=["p_ap_above_one", "unreachable", "gain_above_one", "zero_gain", "first_in_row_order"],
    )
    def test_error_paths(
        self, tmp_path, capsys, receiver, loss_db, signal_mu, p_ap_axis, target, code, message
    ):
        config = write_config(
            tmp_path,
            f"receiver:\n  intrinsic_error: 0.02\n{receiver}"
            f"channel:\n  loss_db: {loss_db}\n"
            f"intensities:\n  signal_mu: {signal_mu}\n"
            "sweep:\n  axes:\n"
            f"    - {{name: p_ap, {p_ap_axis}}}\n"
            "    - {name: intrinsic_error, min: 0.0, max: 0.04, count: 2}\n",
        )
        assert main(["contour", "--config", config, "--target-qber", target]) == code
        captured = capsys.readouterr()
        assert captured.err == message
        assert captured.out == ""


class TestOptimalMuCommand:
    def test_prints_root_and_residual(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "receiver:\n  afterpulse_prob: 0.008\n  intrinsic_error: 0.02\n",
        )
        assert main(["optimal-mu", "--config", path]) == 0
        values = parse_pretty(capsys.readouterr().out)
        assert float(values["e_detector"]) == pytest.approx(0.0238095238, rel=1e-8)
        assert float(values["mu"]) == pytest.approx(0.5931905729, rel=1e-8)
        assert float(values["residual"]) < 1e-10
        assert values["boundary"] == "false"

    def test_zero_error_boundary(self, tmp_path, capsys):
        path = write_config(tmp_path, "receiver:\n  intrinsic_error: 0.0\n")
        assert main(["optimal-mu", "--config", path]) == 0
        values = parse_pretty(capsys.readouterr().out)
        assert values["boundary"] == "true"
        assert float(values["mu"]) == 1.0

    def test_no_solution_is_model_domain_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "receiver:\n  intrinsic_error: 0.1\n")
        assert main(["optimal-mu", "--config", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: model-domain:")
        assert "too high" in err

    def test_bisection_out_of_iterations_is_model_domain_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # three steps leave the residual far above ABS_TOLERANCE
        path = write_config(
            tmp_path,
            "receiver:\n  afterpulse_prob: 0.008\n  intrinsic_error: 0.02\n",
        )
        monkeypatch.setattr(optimize, "MAX_ITERATIONS", 3)
        assert main(["optimal-mu", "--config", path]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "error: model-domain: optimal-mu bisection did not converge in 3 steps "
            "(residual 0.0244928)\n"
        )
        assert captured.out == ""


class TestPresetCommand:
    def test_curve_layout(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert main(
            ["skr-vs-afterpulse", "--points", "2", "--pap-max", "0.01",
             "--output", str(out)]
        ) == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == [
            "loss_db", "weak_decoy_nu1", "intrinsic_error", "p_ap", "mu_opt",
            "skr_lower", "status", "reason",
        ]
        assert len(rows) == 1 + 3 * 2 * 2
        losses = [row[0] for row in rows[1:]]
        assert losses == ["0"] * 4 + ["5"] * 4 + ["21"] * 4
        assert all(float(row[5]) > 0.0 for row in rows[1:])

    def test_search_out_of_steps_is_not_converged(self, tmp_path, monkeypatch):
        out = tmp_path / "curves.csv"
        monkeypatch.setattr(optimize, "MAX_ITERATIONS", 3)
        assert main(["skr-vs-afterpulse", "--points", "2", "--output", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 12
        assert {row["status"] for row in rows} == {"not-converged"}

    def test_one_lockstep_run_with_bounded_seed_slices(self, tmp_path, monkeypatch):
        # 30 points per curve: the 180 nodes fit in one block, whose seed
        # grid takes 6 boxes of one curve and whose golden-section search
        # about 43 probes, the first of them at both inner points of each node
        out = tmp_path / "curves.csv"
        argv = ["skr-vs-afterpulse", "--points", "30", "--output", str(out)]
        assert main(argv) == 0
        expected = out.read_bytes()
        probes, tables = count_kernel_points(monkeypatch)
        assert main(argv) == 0
        assert out.read_bytes() == expected
        assert len(probes) <= 59
        assert max(probes) <= optimize._SEED_SLICE_ROWS == 2048
        assert probes[6] == 2 * 180
        assert tables == [180]
        assert sum(probes) >= 180 * (optimize._GRID_SEED_POINTS + 2)

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["skr-vs-afterpulse", "--pap-max", "1e308", "--points", "3"], None),
            (
                ["sweep"],
                "sweep:\n  axes:\n    - {name: p_ap, min: 0.5, max: 1.0e+308, count: 3, "
                "spacing: log}\n",
            ),
        ],
        ids=["preset", "sweep"],
    )
    def test_huge_afterpulse_value_rejects_only_its_nodes(self, tmp_path, argv, config):
        # The detectors' weighted sum overflows above about 9e307. A bad node
        # must never abort a sweep.
        if config is not None:
            argv = [*argv, "--config", write_config(tmp_path, config)]
        out = tmp_path / "out.csv"
        assert main([*argv, "--output", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        for row in rows:
            rejected = float(row["p_ap"]) > 1.0
            assert row["status"] == ("model-domain-error" if rejected else "ok")
        assert [row["reason"] for row in rows if row["p_ap"] == "1e+308"] == [
            "afterpulse_prob must be in [0, 1], got 1e+308"
        ] * (len(rows) // 3)

    def test_points_above_grid_cap_rejected(self, capsys):
        # the grid-size cap applies to each curve, as to a one-axis sweep
        assert main(["skr-vs-afterpulse", "--points", "1000001"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: config: grid has 1000001 points, above the cap of 1000000\n"
        )
        assert captured.out == ""

    def test_non_finite_range_rejected(self, capsys):
        assert main(["skr-vs-afterpulse", "--pap-max", "inf", "--points", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: config: axis p_ap: endpoints must be finite, got min=0.0001 max=inf\n"
        )
        assert captured.out == ""

    def test_invalid_range_rejected(self, capsys):
        assert main(["skr-vs-afterpulse", "--pap-min", "0.1", "--pap-max", "0.01"]) == 2
        assert capsys.readouterr().err.startswith("error: config:")


# No command builds a per-node record: each writes its CSV from columns.
@pytest.mark.parametrize(
    "argv, text",
    [
        (["contour"], CONTOUR_CONFIG),
        (["sweep"], SWEEP_CONFIG),
        (["sweep"], SWEEP_CONFIG + "  mu_policy: optimize-per-point\n"),
        (["skr-vs-afterpulse", "--points", "3"], ""),
    ],
    ids=["contour", "sweep_fixed", "sweep_optimize", "preset"],
)
def test_no_command_builds_a_record(tmp_path, capsys, monkeypatch, argv, text):
    class Record:
        """A record type that fails the test when built, by call or by ``_make``."""

        def __new__(cls, *args, **kwargs):
            raise AssertionError("a CLI command built a per-node record")

        @classmethod
        def _make(cls, iterable):
            raise AssertionError("a CLI command built a per-node record")

    monkeypatch.setattr(optimize, "ContourPoint", Record)
    monkeypatch.setattr(sweep, "ResultRecord", Record)
    config = write_config(tmp_path, text)
    assert main([*argv, "--config", config]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("\n") > 2


# A name left in __all__ after its object is gone breaks ``import *``.
def test_every_public_name_is_exported():
    names = {}
    exec("from decoylink import *", names)
    assert len(set(decoylink.__all__)) == len(decoylink.__all__)
    for name in decoylink.__all__:
        assert names[name] is getattr(decoylink, name)
