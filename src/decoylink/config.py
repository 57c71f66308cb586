"""Scenario configuration: YAML schema, defaults, parsing, serialization.

Sections and field names are the stable contract documented in the README;
unspecified fields take the defaults below. Parse errors always carry the
``section.field`` path of the offending entry.
"""
from __future__ import annotations

from dataclasses import dataclass

import yaml

from . import model
from .errors import ValidationError
from .sweep import Axis, SweepSpec

DEFAULT_NUM_DETECTORS = 2
DEFAULT_AFTERPULSE_PROB = 0.0
DEFAULT_DARK_COUNT_TOTAL = 6e-7
DEFAULT_INTRINSIC_ERROR = 0.02
DEFAULT_BACKGROUND_ERROR = 0.5
DEFAULT_DETECTOR_EFFICIENCY = 0.1
DEFAULT_ATTENUATION_DB_PER_KM = 0.21
DEFAULT_SIGNAL_MU = 0.48
DEFAULT_WEAK_DECOY_NU1 = 0.038


@dataclass(frozen=True)
class Scenario:
    receiver: model.ReceiverModel
    channel: model.ChannelModel
    intensities: model.IntensitySet
    protocol: model.ProtocolParams
    sweep: SweepSpec | None = None


def _require_mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _check_keys(section: dict, allowed: tuple[str, ...], path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ValidationError(
                f"{path}.{key}: unknown field (expected one of {', '.join(allowed)})"
            )


def _get_number(section: dict, key: str, path: str, default=None):
    value = section.get(key)
    if value is None:  # absent or null
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}.{key}: expected a number, got {value!r}")
    return float(value)


def _get_int(section: dict, key: str, path: str, default=None):
    value = section.get(key)
    if value is None:  # absent or null
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}.{key}: expected an integer, got {value!r}")
    return value


def _wrap(path: str, build):
    try:
        return build()
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _parse_receiver(cfg: dict) -> model.ReceiverModel:
    path = "receiver"
    section = _require_mapping(cfg.get("receiver"), path)
    _check_keys(
        section,
        (
            "detectors",
            "num_detectors",
            "afterpulse_prob",
            "dark_count_prob_total",
            "dark_count_prob_per_detector",
            "intrinsic_error",
            "background_error",
            "detector_efficiency",
        ),
        path,
    )
    per_det = _get_number(section, "dark_count_prob_per_detector", path)
    total = _get_number(section, "dark_count_prob_total", path)
    if per_det is not None and total is not None:
        raise ValidationError(
            f"{path}.dark_count_prob_total: give either the total or the "
            "per-detector dark count probability, not both"
        )
    intrinsic = _get_number(section, "intrinsic_error", path, DEFAULT_INTRINSIC_ERROR)
    background = _get_number(section, "background_error", path, DEFAULT_BACKGROUND_ERROR)
    efficiency = _get_number(
        section, "detector_efficiency", path, DEFAULT_DETECTOR_EFFICIENCY
    )

    if "detectors" in section:
        for key in ("num_detectors", "afterpulse_prob"):
            if key in section:
                raise ValidationError(
                    f"{path}.{key}: not allowed together with an explicit detectors list"
                )
        entries = section["detectors"]
        if not isinstance(entries, list) or not entries:
            raise ValidationError(f"{path}.detectors: expected a non-empty list")
        units = []
        for idx, entry in enumerate(entries):
            entry_path = f"{path}.detectors[{idx}]"
            entry = _require_mapping(entry, entry_path)
            _check_keys(entry, ("afterpulse_prob", "bias"), entry_path)
            prob = _get_number(entry, "afterpulse_prob", entry_path)
            if prob is None:
                raise ValidationError(f"{entry_path}.afterpulse_prob: required")
            bias = _get_number(entry, "bias", entry_path, 0.0)
            units.append(
                _wrap(entry_path, lambda p=prob, b=bias: model.DetectorUnit(p, b))
            )
    else:
        num = _get_int(section, "num_detectors", path, DEFAULT_NUM_DETECTORS)
        prob = _get_number(section, "afterpulse_prob", path, DEFAULT_AFTERPULSE_PROB)
        if num < 1:
            raise ValidationError(f"{path}: num_detectors must be >= 1, got {num!r}")
        units = [_wrap(path, lambda: model.DetectorUnit(prob))] * num
    if per_det is not None:
        total = len(units) * per_det
    elif total is None:
        total = DEFAULT_DARK_COUNT_TOTAL
    return _wrap(
        path,
        lambda: model.ReceiverModel(
            detectors=tuple(units),
            dark_count_prob_total=total,
            intrinsic_error=intrinsic,
            background_error=background,
            detector_efficiency=efficiency,
        ),
    )


def _parse_channel(cfg: dict) -> model.ChannelModel:
    path = "channel"
    section = _require_mapping(cfg.get("channel"), path)
    _check_keys(section, ("attenuation_db_per_km", "distance_km", "loss_db"), path)
    attenuation = _get_number(
        section, "attenuation_db_per_km", path, DEFAULT_ATTENUATION_DB_PER_KM
    )
    distance = _get_number(section, "distance_km", path)
    loss = _get_number(section, "loss_db", path)
    if loss is not None and distance is not None:
        raise ValidationError(
            f"{path}.loss_db: give either loss_db or distance_km, not both"
        )
    if loss is None and distance is None:
        distance = 0.0
    return _wrap(
        path,
        lambda: model.ChannelModel(
            attenuation_db_per_km=attenuation, distance_km=distance, transmission_loss_db=loss
        ),
    )


def _parse_intensities(cfg: dict) -> model.IntensitySet:
    path = "intensities"
    section = _require_mapping(cfg.get("intensities"), path)
    _check_keys(section, ("signal_mu", "weak_decoy_nu1", "vacuum_decoy"), path)
    mu = _get_number(section, "signal_mu", path, DEFAULT_SIGNAL_MU)
    nu1 = _get_number(section, "weak_decoy_nu1", path, DEFAULT_WEAK_DECOY_NU1)
    vacuum = _get_number(section, "vacuum_decoy", path, 0.0)
    return _wrap(path, lambda: model.IntensitySet(mu, nu1, vacuum))


def _parse_protocol(cfg: dict) -> model.ProtocolParams:
    path = "protocol"
    section = _require_mapping(cfg.get("protocol"), path)
    _check_keys(section, ("sifting_factor", "ec_efficiency"), path)
    q = _get_number(section, "sifting_factor", path, 0.5)
    f = _get_number(section, "ec_efficiency", path, 1.16)
    return _wrap(path, lambda: model.ProtocolParams(sifting_factor=q, ec_efficiency=f))


def _parse_axis(entry, path: str) -> Axis:
    entry = _require_mapping(entry, path)
    _check_keys(entry, ("name", "min", "max", "count", "spacing"), path)
    name = entry.get("name")
    if not isinstance(name, str):
        raise ValidationError(f"{path}.name: expected a string, got {name!r}")
    name = {"p_AP": "p_ap"}.get(name, name)
    lo = _get_number(entry, "min", path)
    hi = _get_number(entry, "max", path)
    count = _get_int(entry, "count", path)
    if lo is None or hi is None or count is None:
        raise ValidationError(f"{path}: min, max and count are required")
    spacing = entry.get("spacing", "linear")
    if not isinstance(spacing, str):
        raise ValidationError(f"{path}.spacing: expected a string, got {spacing!r}")
    return _wrap(path, lambda: Axis(name, lo, hi, count, spacing))


def _parse_sweep(cfg: dict, scenario_parts) -> SweepSpec | None:
    path = "sweep"
    if "sweep" not in cfg or cfg["sweep"] is None:
        return None
    section = _require_mapping(cfg["sweep"], path)
    _check_keys(section, ("axes", "outputs", "mu_policy"), path)
    raw_axes = section.get("axes", [])
    if not isinstance(raw_axes, list):
        raise ValidationError(f"{path}.axes: expected a list")
    axes = tuple(
        _parse_axis(entry, f"{path}.axes[{idx}]") for idx, entry in enumerate(raw_axes)
    )
    outputs = section.get("outputs", ["skr_lower"])
    if not isinstance(outputs, list) or not all(isinstance(o, str) for o in outputs):
        raise ValidationError(f"{path}.outputs: expected a list of metric names")
    mu_policy = section.get("mu_policy", "fixed")
    if not isinstance(mu_policy, str):
        raise ValidationError(f"{path}.mu_policy: expected a string, got {mu_policy!r}")
    receiver, channel, intensities, protocol = scenario_parts
    return _wrap(
        path,
        lambda: SweepSpec(
            receiver=receiver,
            channel=channel,
            intensities=intensities,
            protocol=protocol,
            axes=axes,
            outputs=tuple(outputs),
            mu_policy=mu_policy,
        ),
    )


TOP_LEVEL_SECTIONS = ("receiver", "channel", "intensities", "protocol", "sweep")


def parse_scenario(cfg: dict | None) -> Scenario:
    """Build a validated scenario from a configuration mapping."""
    cfg = _require_mapping(cfg, "config")
    _check_keys(cfg, TOP_LEVEL_SECTIONS, "config")
    receiver = _parse_receiver(cfg)
    channel = _parse_channel(cfg)
    intensities = _parse_intensities(cfg)
    protocol = _parse_protocol(cfg)
    sweep = _parse_sweep(cfg, (receiver, channel, intensities, protocol))
    return Scenario(receiver, channel, intensities, protocol, sweep)


def load_scenario(path: str) -> Scenario:
    """Parse a scenario from a YAML file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ValidationError(f"config: not valid YAML: {exc}") from exc
    return parse_scenario(cfg)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialize a scenario back into its configuration mapping."""
    receiver = scenario.receiver
    channel = scenario.channel
    cfg: dict = {
        "receiver": {
            "detectors": [
                {"afterpulse_prob": det.afterpulse_prob, "bias": det.bias}
                for det in receiver.detectors
            ],
            "dark_count_prob_total": receiver.dark_count_prob_total,
            "intrinsic_error": receiver.intrinsic_error,
            "background_error": receiver.background_error,
            "detector_efficiency": receiver.detector_efficiency,
        },
        "intensities": {
            "signal_mu": scenario.intensities.signal_mu,
            "weak_decoy_nu1": scenario.intensities.weak_decoy_nu1,
            "vacuum_decoy": scenario.intensities.vacuum_decoy,
        },
        "protocol": {
            "sifting_factor": scenario.protocol.sifting_factor,
            "ec_efficiency": scenario.protocol.ec_efficiency,
        },
    }
    channel_cfg: dict = {}
    if channel.attenuation_db_per_km is not None:
        channel_cfg["attenuation_db_per_km"] = channel.attenuation_db_per_km
    if channel.transmission_loss_db is not None:
        channel_cfg["loss_db"] = channel.transmission_loss_db
    else:
        channel_cfg["distance_km"] = channel.distance_km
    cfg["channel"] = channel_cfg
    if scenario.sweep is not None:
        cfg["sweep"] = {
            "axes": [
                {
                    "name": ax.name,
                    "min": ax.min,
                    "max": ax.max,
                    "count": ax.count,
                    "spacing": ax.spacing,
                }
                for ax in scenario.sweep.axes
            ],
            "outputs": list(scenario.sweep.outputs),
            "mu_policy": scenario.sweep.mu_policy,
        }
    return cfg


def scenario_to_yaml(scenario: Scenario) -> str:
    return yaml.safe_dump(scenario_to_dict(scenario), sort_keys=False)
