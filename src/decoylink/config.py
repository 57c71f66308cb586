"""Scenario configuration: YAML schema, defaults and parsing.

Sections and field names are the stable contract documented in the README;
``FIELDS`` lists each section's fields with their kinds and config defaults,
and every section is read by ``_read``. A field left out that has no config
default is not passed on: the value type takes its own. Parse errors always
carry the ``section.field`` path of the offending entry.
"""
from __future__ import annotations

import re
from typing import NamedTuple

import yaml

from . import model
from .errors import ValidationError

# The default of a field that must be given.
REQUIRED = object()

# section -> field -> (kind, default). REQUIRED means the field must be given;
# None that the config has no default, so the value type's own applies. Fields
# are listed in the order unknown-field messages name them.
FIELDS = {
    "receiver": {
        "detectors": ("list", None),
        "num_detectors": ("integer", 2),
        "afterpulse_prob": ("number", None),
        "dark_count_prob_total": ("number", 6e-7),
        "dark_count_prob_per_detector": ("number", None),
        "intrinsic_error": ("number", 0.02),
        "background_error": ("number", None),
        "detector_efficiency": ("number", None),
    },
    "detector": {"afterpulse_prob": ("number", REQUIRED), "bias": ("number", None)},
    "channel": {
        "attenuation_db_per_km": ("number", 0.21),
        "distance_km": ("number", 0.0),
        "loss_db": ("number", None),
    },
    "intensities": {
        "signal_mu": ("number", 0.48),
        "weak_decoy_nu1": ("number", 0.038),
        "vacuum_decoy": ("number", None),
    },
    "protocol": {"sifting_factor": ("number", None), "ec_efficiency": ("number", None)},
    "sweep": {
        "axes": ("list", ()),
        "outputs": ("names", None),
        "mu_policy": ("string", None),
    },
    "axis": {
        "name": ("string", REQUIRED),
        "min": ("number", REQUIRED),
        "max": ("number", REQUIRED),
        "count": ("integer", REQUIRED),
        "spacing": ("string", None),
    },
}

# kind -> (what the error message expects, test of a given value)
_KINDS = {
    "integer": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "names": (
        "a list of metric names",
        lambda v: isinstance(v, list) and all(isinstance(o, str) for o in v),
    ),
}

TOP_LEVEL_SECTIONS = ("receiver", "channel", "intensities", "protocol", "sweep")


class Scenario(NamedTuple):
    """A parsed scenario file: the value type of each section, and the sweep if it has one."""

    receiver: model.ReceiverModel
    channel: model.ChannelModel
    intensities: model.IntensitySet
    protocol: model.ProtocolParams
    sweep: model.SweepSpec | None = None


def _mapping(value, path: str, keys) -> dict:
    """``value`` as a mapping (``null`` is empty) whose keys are all in ``keys``."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: expected a mapping, got {type(value).__name__}")
    for key in value:
        if key not in keys:
            raise ValidationError(
                f"{path}.{key}: unknown field (expected one of {', '.join(keys)})"
            )
    return value


def _read(value, path: str, fields: dict) -> dict:
    """The fields of a section: each given one's checked value (a number as
    ``model.as_float`` reads it), else its config default; a field with neither
    is left out. A REQUIRED field left out is an error, raised after every
    given value has passed its check."""
    section = _mapping(value, path, fields)
    out = {}
    for key, (kind, default) in fields.items():
        given = section.get(key)
        if given is None:
            if default is not None:
                out[key] = default
            continue
        if kind == "number":
            given = model.as_float(f"{path}.{key}", given)
        elif not _KINDS[kind][1](given):
            raise ValidationError(f"{path}.{key}: expected {_KINDS[kind][0]}, got {given!r}")
        out[key] = given
    for key, value in out.items():
        if value is REQUIRED:
            raise ValidationError(f"{path}.{key}: required")
    return out


def _given(value, key: str) -> bool:
    """Whether a section read by ``_read`` gives ``key`` (present and not ``null``)."""
    return value is not None and value.get(key) is not None


def _wrap(path: str, build):
    try:
        return build()
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _parse_receiver(cfg: dict) -> model.ReceiverModel:
    path = "receiver"
    section = cfg.get(path)
    fields = _read(section, path, FIELDS[path])
    per_det = fields.pop("dark_count_prob_per_detector", None)
    if per_det is not None and _given(section, "dark_count_prob_total"):
        raise ValidationError(
            f"{path}.dark_count_prob_total: give either the total or the "
            "per-detector dark count probability, not both"
        )
    entries = fields.pop("detectors", None)
    num = fields.pop("num_detectors")
    if entries is not None:
        for key in ("num_detectors", "afterpulse_prob"):
            if _given(section, key):
                raise ValidationError(
                    f"{path}.{key}: not allowed together with an explicit detectors list"
                )
        if not entries:
            raise ValidationError(f"{path}.detectors: expected a non-empty list")
        units = []
        for idx, entry in enumerate(entries):
            entry_path = f"{path}.detectors[{idx}]"
            entry = _read(entry, entry_path, FIELDS["detector"])
            units.append(_wrap(entry_path, lambda: model.DetectorUnit(**entry)))
        num = len(units)
        build = lambda: model.ReceiverModel(detectors=tuple(units), **fields)
    else:
        build = lambda: model.ReceiverModel.identical(num, **fields)
    if per_det is not None:
        # identical rejects a num past MAX_DETECTORS before it reads the total,
        # which would not be a float for a num past the largest float
        fields["dark_count_prob_total"] = min(num, model.MAX_DETECTORS) * per_det
    return _wrap(path, build)


def _parse_channel(cfg: dict) -> model.ChannelModel:
    path = "channel"
    fields = _read(cfg.get(path), path, FIELDS[path])
    if "loss_db" in fields:
        if _given(cfg.get(path), "distance_km"):
            raise ValidationError(
                f"{path}.loss_db: give either loss_db or distance_km, not both"
            )
        del fields["distance_km"]
        fields["transmission_loss_db"] = fields.pop("loss_db")
    return _wrap(path, lambda: model.ChannelModel(**fields))


def _parse_fields(cfg: dict, path: str, build):
    """``build`` called with the fields of section ``path``, named as in ``FIELDS``."""
    fields = _read(cfg.get(path), path, FIELDS[path])
    return _wrap(path, lambda: build(**fields))


def _parse_axis(entry, path: str) -> model.Axis:
    fields = _read(entry, path, FIELDS["axis"])
    fields["name"] = {"p_AP": "p_ap"}.get(fields["name"], fields["name"])
    return _wrap(path, lambda: model.Axis(**fields))


def _parse_sweep(cfg: dict, scenario_parts) -> model.SweepSpec | None:
    path = "sweep"
    if cfg.get(path) is None:
        return None
    fields = _read(cfg[path], path, FIELDS[path])
    fields["axes"] = tuple(
        _parse_axis(entry, f"{path}.axes[{idx}]") for idx, entry in enumerate(fields["axes"])
    )
    return _wrap(path, lambda: model.SweepSpec(*scenario_parts, **fields))


def parse_scenario(cfg: dict | None) -> Scenario:
    """Build a validated scenario from a configuration mapping."""
    cfg = _mapping(cfg, "config", TOP_LEVEL_SECTIONS)
    receiver = _parse_receiver(cfg)
    channel = _parse_channel(cfg)
    intensities = _parse_fields(cfg, "intensities", model.IntensitySet)
    protocol = _parse_fields(cfg, "protocol", model.ProtocolParams)
    sweep = _parse_sweep(cfg, (receiver, channel, intensities, protocol))
    return Scenario(receiver, channel, intensities, protocol, sweep)


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that rejects a key given twice in one mapping, at any depth."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    line = key_node.start_mark.line + 1
                    raise ValidationError(f"config: line {line}: duplicate key {key!r}")
                seen.add(key)
        return super().construct_mapping(node, deep)


# YAML 1.1 reads a number with an exponent but no decimal point (6e-7), or an
# unsigned exponent (1.5e7), as a string; the YAML 1.2 core schema reads a float.
_UniqueKeyLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def load_scenario(path: str) -> Scenario:
    """Parse a scenario from a UTF-8 YAML file; a key given twice in one mapping is an error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.load(fh, Loader=_UniqueKeyLoader)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ValidationError(f"config: not valid YAML: {exc}") from exc
    except ValidationError:  # a duplicate key
        raise
    except ValueError as exc:  # an integer of more digits than Python reads, or a bad date
        raise ValidationError(f"config: cannot read a value: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError("config: nested too deeply to read") from exc
    return parse_scenario(cfg)
