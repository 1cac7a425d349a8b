"""First-order radio energy model: per-bit electronics cost plus a
distance-dependent amplifier term (free-space D^2 below the crossover
distance d0, multipath D^4 at or above it)."""

from __future__ import annotations

import math
from dataclasses import dataclass


class RadioError(ValueError):
    pass


@dataclass(frozen=True)
class RadioParams:
    e_elec: float = 50e-9       # J/bit, TX and RX electronics
    e_fs: float = 10e-12        # J/bit/m^2, free-space amplifier
    e_mp: float = 0.0013e-12    # J/bit/m^4, multipath amplifier
    e_da: float = 5e-9          # J/bit/signal, aggregation

    def __post_init__(self):
        for name in ("e_elec", "e_fs", "e_mp", "e_da"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise RadioError(f"{name} must be finite and strictly positive")

    @property
    def d0(self) -> float:
        """Crossover distance, derived so the two amplifier branches meet."""
        return math.sqrt(self.e_fs / self.e_mp)


def tx_energy(params: RadioParams, bits: float, distance: float) -> float:
    """Energy to transmit `bits` over `distance` meters."""
    if bits < 0:
        raise RadioError(f"bits must be non-negative, got {bits}")
    if distance < 0:
        raise RadioError(f"distance must be non-negative, got {distance}")
    if distance < params.d0:
        return bits * (params.e_elec + params.e_fs * distance ** 2)
    return bits * (params.e_elec + params.e_mp * distance ** 4)


def rx_energy(params: RadioParams, bits: float) -> float:
    """Energy to receive `bits`."""
    if bits < 0:
        raise RadioError(f"bits must be non-negative, got {bits}")
    return bits * params.e_elec


def agg_energy(params: RadioParams, bits_per_signal: float, signals: int) -> float:
    """Energy to aggregate `signals` packets of `bits_per_signal` bits each."""
    if bits_per_signal < 0:
        raise RadioError(f"bits_per_signal must be non-negative, got {bits_per_signal}")
    if signals < 0:
        raise RadioError(f"signals must be non-negative, got {signals}")
    return params.e_da * bits_per_signal * signals
