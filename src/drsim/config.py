"""Flat key = value experiment configuration.

The keys are the fields of `SimConfig` (all but `radio`) and of
`RadioParams`. Each value is converted by the type of its field's default
(`int`, `float`, or a protocol name), and the two dataclasses check every
range. This module only parses and says where a bad line is. Every key is
optional; omitted keys take the dataclass defaults (the evaluation setup:
100 nodes on a 100 m x 100 m field, BS at the center, n = 3, 4000-bit
packets). Unknown keys are rejected rather than ignored. '#' starts a
comment. The initial energy of 0.5 J/node and the 4000-bit packet are
conventional values for this radio parameter set, not prescribed ones.
"""

from __future__ import annotations

from dataclasses import fields

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
        raise ValueError(f"unknown protocol {text!r} (expected one of: {valid})")


def _converters(cls, skip=()) -> dict:
    return {f.name: _parse_protocol if isinstance(f.default, ProtocolKind) else type(f.default)
            for f in fields(cls) if f.name not in skip}


_RADIO_KEYS = _converters(RadioParams)
# key -> converter, for every key a config may set
KEYS = _converters(SimConfig, skip=("radio",)) | _RADIO_KEYS


def _parse_line(line: str, where: str) -> tuple[str, object] | None:
    stripped = line.split("#", 1)[0].strip()
    if not stripped:
        return None
    if "=" not in stripped:
        raise ConfigError(f"{where}: expected 'key = value', got {stripped!r}")
    key, _, raw = stripped.partition("=")
    key, raw = key.strip(), raw.strip()
    if key not in KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    if not raw:
        raise ConfigError(f"{where}: missing value for {key!r}")
    try:
        return key, KEYS[key](raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}")


def parse_config(path: str | None, overrides: list[str] = ()) -> SimConfig:
    """Build a SimConfig from a config file plus `key=value` overrides.

    `path` may be None to start from pure defaults; overrides are applied
    last and win over file values.
    """
    values: dict[str, object] = {}
    if path is not None:
        with open(path, "rb") as fh:
            data = fh.read()
        # bytes.splitlines breaks at \n, \r\n and \r, as text mode does.
        for lineno, raw in enumerate(data.splitlines(), start=1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{where}: not UTF-8 text: byte {exc.start + 1} "
                                  f"of the line is {raw[exc.start:exc.start + 1]!r}")
            parsed = _parse_line(line, where)
            if parsed:
                values[parsed[0]] = parsed[1]
    for i, override in enumerate(overrides, start=1):
        parsed = _parse_line(override, f"override #{i}")
        if parsed is None:
            raise ConfigError(f"override #{i}: empty override {override!r}")
        values[parsed[0]] = parsed[1]

    radio = {k: v for k, v in values.items() if k in _RADIO_KEYS}
    plain = {k: v for k, v in values.items() if k not in _RADIO_KEYS}
    try:
        return SimConfig(**plain, radio=RadioParams(**radio))
    except ValueError as exc:
        raise ConfigError(str(exc))
