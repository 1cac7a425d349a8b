"""Flat key = value experiment configuration.

Every key is optional; omitted keys take the defaults below (the evaluation
setup: 100 nodes on a 100 m x 100 m field, BS at the center, n = 3, 4000-bit
packets). Unknown keys are rejected rather than ignored. '#' starts a
comment. The initial energy of 0.5 J/node and the 4000-bit packet are
conventional values for this radio parameter set, not prescribed ones.
"""

from __future__ import annotations

import math

from .protocols import ProtocolKind
from .radio import RadioParams
from .sim import SimConfig


class ConfigError(ValueError):
    pass


def _parse_protocol(text: str) -> ProtocolKind:
    try:
        return ProtocolKind(text.strip().lower())
    except ValueError:
        valid = ", ".join(k.value for k in ProtocolKind)
        raise ConfigError(f"unknown protocol {text!r} (expected one of: {valid})")


def _positive(kind, name):
    def convert(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be positive, got {value}")
        return value
    return convert


# key -> (SimConfig field path, converter)
_KEYS = {
    "field_length": ("field_length", _positive(float, "field_length")),
    "n_rings": ("n_rings", _positive(int, "n_rings")),
    "node_count": ("node_count", _positive(int, "node_count")),
    "initial_energy": ("initial_energy", _positive(float, "initial_energy")),
    "packet_bits": ("packet_bits", _positive(int, "packet_bits")),
    "protocol": ("protocol", _parse_protocol),
    "ch_probability": ("ch_probability", float),
    "max_rounds": ("max_rounds", _positive(int, "max_rounds")),
    "seed": ("seed", int),
    "runs": ("runs", _positive(int, "runs")),
    "e_elec": ("radio.e_elec", _positive(float, "e_elec")),
    "e_fs": ("radio.e_fs", _positive(float, "e_fs")),
    "e_mp": ("radio.e_mp", _positive(float, "e_mp")),
    "e_da": ("radio.e_da", _positive(float, "e_da")),
}


def _parse_line(line: str, where: str) -> tuple[str, object] | None:
    stripped = line.split("#", 1)[0].strip()
    if not stripped:
        return None
    if "=" not in stripped:
        raise ConfigError(f"{where}: expected 'key = value', got {stripped!r}")
    key, _, raw = stripped.partition("=")
    key, raw = key.strip(), raw.strip()
    if key not in _KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    if not raw:
        raise ConfigError(f"{where}: missing value for {key!r}")
    _, convert = _KEYS[key]
    try:
        return key, convert(raw)
    except ConfigError:
        raise
    except (ValueError, OverflowError) as exc:   # OverflowError: an int past float range
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}")


def parse_config(path: str | None, overrides: list[str] = ()) -> SimConfig:
    """Build a SimConfig from a config file plus `key=value` overrides.

    `path` may be None to start from pure defaults; overrides are applied
    last and win over file values.
    """
    values: dict[str, object] = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                parsed = _parse_line(line, f"{path}:{lineno}")
                if parsed:
                    values[parsed[0]] = parsed[1]
    for i, override in enumerate(overrides, start=1):
        parsed = _parse_line(override, f"override #{i}")
        if parsed is None:
            raise ConfigError(f"override #{i}: empty override {override!r}")
        values[parsed[0]] = parsed[1]

    plain = {}
    radio_kwargs = {}
    for key, value in values.items():
        target, _ = _KEYS[key]
        if target.startswith("radio."):
            radio_kwargs[target.removeprefix("radio.")] = value
        else:
            plain[target] = value
    try:
        if radio_kwargs:
            plain["radio"] = RadioParams(**radio_kwargs)
        return SimConfig(**plain)
    except ValueError as exc:
        raise ConfigError(str(exc))
