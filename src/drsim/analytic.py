"""Closed-form per-region, per-round energy expressions for the DR layout
at three concentric squares (inner / middle / outer).

These formulas work on expected populations (density * area) and a single
representative link distance, and serve as an independent oracle for the
simulator's bookkeeping. Note the CH transmit term charges one outgoing
packet per collected signal (plus the aggregation charge phi); it does not
model aggregation compression. The production engine always compresses, so
comparisons against a simulated round must charge it with per-signal
forwarding: `run_round(..., compress=False)` of the reference engine in
`tests/reference.py`, as the analytic cross-check (criterion 6) does.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable


class DegenerateDensityWarning(UserWarning):
    """Expected NCR population below one node; member term clamped at 0."""


@dataclass(frozen=True)
class AnalyticInputs:
    rho: float                            # nodes per m^2
    d: float                              # distance factor L / (2n)
    p_cr: float                           # corner traffic fraction routed via CHs
    bits: float                           # packet size
    t_energy_fn: Callable[[float], float]  # J per packet at a given distance
    r_energy: float                       # J per packet received
    phi: float                            # J aggregation charge per CH per round

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho >= 0):
            raise ValueError(f"rho must be finite and non-negative, got {self.rho}")
        if self.d <= 0:
            raise ValueError(f"d must be positive, got {self.d}")
        if not 0 <= self.p_cr <= 1:
            raise ValueError(f"p_cr must be in [0, 1], got {self.p_cr}")


@dataclass(frozen=True)
class RingEnergyTerms:
    member_tx_per_ncr: float
    all_ch_tx: float
    all_ch_rx: float

    @property
    def total(self) -> float:
        return 4 * self.member_tx_per_ncr + self.all_ch_tx + self.all_ch_rx


def e_inner_square(inputs: AnalyticInputs, bs_distance: float) -> float:
    """Transmit energy of the central square's 4*rho*d^2 nodes, all of which
    send directly to the BS."""
    return 4 * inputs.rho * inputs.d ** 2 * inputs.t_energy_fn(bs_distance)


def e_corner_regions(inputs: AnalyticInputs, bs_distance: float) -> float:
    """Direct-to-BS transmit energy of one corner region: the (1 - P)
    fraction of its rho*d^2 nodes. The P fraction routed through CHs is
    charged inside the ring CH terms."""
    return ((1 - inputs.p_cr) * inputs.rho * inputs.d ** 2
            * inputs.t_energy_fn(bs_distance))


def ring_energy_terms(inputs: AnalyticInputs, ncr_area_factor: int,
                      distance: float) -> RingEnergyTerms:
    """Termwise ring energy for NCRs of area ncr_area_factor * d^2
    (2 for the middle square, 4 for the outer square).

    Per NCR: members (population - 1) each transmit one packet; the four
    ring CHs forward every collected signal plus their own and receive from
    members plus the P-weighted corner traffic.
    """
    pop = ncr_area_factor * inputs.rho * inputs.d ** 2
    cr_pop = inputs.p_cr * inputs.rho * inputs.d ** 2
    t = inputs.t_energy_fn(distance)

    members = pop - 1
    if members < 0:
        warnings.warn(
            f"expected NCR population {pop:.3f} is below one node",
            DegenerateDensityWarning, stacklevel=2)
        members = 0.0

    member_tx = members * t
    all_ch_tx = (4 * pop + 4 * cr_pop) * t + 4 * inputs.phi
    all_ch_rx = (4 * pop - 4 + 4 * cr_pop) * inputs.r_energy
    return RingEnergyTerms(member_tx, all_ch_tx, all_ch_rx)


def e_middle_square_total(inputs: AnalyticInputs, distance: float) -> float:
    return ring_energy_terms(inputs, 2, distance).total


def e_outer_square_total(inputs: AnalyticInputs, distance: float) -> float:
    return ring_energy_terms(inputs, 4, distance).total


def total_network_energy(inputs: AnalyticInputs, distance: float) -> float:
    """Sum of the four region forms for the n=3 layout (8 corner regions)."""
    return (e_inner_square(inputs, distance)
            + 8 * e_corner_regions(inputs, distance)
            + e_middle_square_total(inputs, distance)
            + e_outer_square_total(inputs, distance))
