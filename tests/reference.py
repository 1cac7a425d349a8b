"""Scalar reference engine: the oracle for the round engine behind `sim.run`.

It plans each round over `Node` objects (`RoundPlan` dicts keyed by node id,
``None`` for the base station) and charges it with `run_round`, which
updates the nodes' energy and alive status in place. Its `SimState` holds
the nodes that `make_state` builds from `sim.make_state`'s lists, with the
same deployment and generator. `reference_run` loops the two over it and
must give exactly the series and summary of `sim.run` (`==` on floats).
That holds only if both engines take distances from `math.hypot`, link
costs from the scalar `radio.tx_energy`, the same random draws, the lowest
id among ties, and the same summation order: members in id order, then CHs
in the order `ch_next_hop` holds them. The reference ranks each region's
nodes with its own `_region_rosters`, so it checks the production ranking
instead of sharing it.

`run_round` also has the switches that the analytic cross-check needs and
production does not: a constant link length, per-signal forwarding and a
per-(ring, category) energy breakdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from drsim import radio, sim
from drsim.geometry import (
    FieldPartition,
    Point,
    RegionKind,
    cr_neighbor_ncrs,
    inward_adjacent_ncr,
)
from drsim.protocols import DISTANCE_TIE_EPS, ProtocolKind, _above_mean
from drsim.sim import RoundMetrics, SimConfig, summarize


@dataclass
class Node:
    id: int
    pos: Point
    energy: float
    alive: bool
    region: int


@dataclass
class SimState:
    config: SimConfig
    fp: FieldPartition
    nodes: list[Node]
    rng: np.random.Generator

    def alive_count(self) -> int:
        return sum(1 for nd in self.nodes if nd.alive)


def as_nodes(xs, ys, region, energy, alive) -> list[Node]:
    """One `Node` per id of the per-node lists."""
    return [Node(i, Point(x, y), e, a, r)
            for i, (x, y, r, e, a) in enumerate(zip(xs, ys, region, energy, alive))]


def make_state(config: SimConfig) -> SimState:
    """`sim.make_state`'s deployment and generator, as `Node` objects."""
    state = sim.make_state(config)
    nodes = as_nodes(state.xs, state.ys, state.region, state.energy, state.alive)
    return SimState(config, state.fp, nodes, state.rng)


def _region_rosters(fp: FieldPartition, nodes: list[Node]) -> dict[int, list[Node]]:
    """Full per-NCR rosters (alive and dead), distance-ranked to the region
    midpoint, ties by node id. Only non-central NCRs host CHs."""
    rosters: dict[int, list[Node]] = {}
    for node in nodes:
        region = fp.region(node.region)
        if region.kind is RegionKind.NON_CORNER:
            rosters.setdefault(region.id, []).append(node)
    for region_id, members in rosters.items():
        mid = fp.region(region_id).midpoint
        members.sort(key=lambda nd: (nd.pos.distance_to(mid), nd.id))
    return rosters


@dataclass(frozen=True)
class RoundPlan:
    round: int
    # region id -> CH node id (DR only; empty for the baselines)
    ch_assignments: dict[int, int]
    # sender node id -> CH node id, or None for the BS
    memberships: dict[int, Optional[int]]
    # CH node id -> next-hop CH node id, or None for the BS
    ch_next_hop: dict[int, Optional[int]]

    @property
    def cluster_heads(self) -> set[int]:
        return set(self.ch_next_hop)


def dr_select_chs(fp: FieldPartition, nodes: list[Node], round_index: int) -> dict[int, int]:
    """One CH per non-central NCR: the alive node at cyclic distance rank
    (round-1) mod population, skipping dead nodes forward."""
    chs: dict[int, int] = {}
    for region_id, roster in _region_rosters(fp, nodes).items():
        start = (round_index - 1) % len(roster)
        for step in range(len(roster)):
            candidate = roster[(start + step) % len(roster)]
            if candidate.alive:
                chs[region_id] = candidate.id
                break
    return chs


def dr_build_plan(fp: FieldPartition, nodes: list[Node], round_index: int) -> RoundPlan:
    chs = dr_select_chs(fp, nodes, round_index)
    by_id = {node.id: node for node in nodes}

    memberships: dict[int, Optional[int]] = {}
    for node in nodes:
        if not node.alive:
            continue
        region = fp.region(node.region)
        if region.kind is RegionKind.CENTRAL:
            memberships[node.id] = None
        elif region.kind is RegionKind.NON_CORNER:
            ch = chs.get(region.id)
            if ch is not None and ch != node.id:
                memberships[node.id] = ch
        else:
            memberships[node.id] = _corner_destination(fp, node, chs, by_id)

    ch_next_hop: dict[int, Optional[int]] = {}
    for region_id, ch_id in chs.items():
        ring = fp.region(region_id).ring
        if ring == 1:
            ch_next_hop[ch_id] = None
        else:
            # Same-side inward CH; direct to BS if that region has none.
            ch_next_hop[ch_id] = chs.get(inward_adjacent_ncr(region_id, fp))

    return RoundPlan(round_index, chs, memberships, ch_next_hop)


def _corner_destination(fp: FieldPartition, node: Node, chs: dict[int, int],
                        by_id: dict[int, Node]) -> Optional[int]:
    """Nearest of {BS, the two edge-adjacent same-ring NCR CHs}; a distance
    tie goes to the CH with more residual energy (the BS beats any tie)."""
    # (distance, destination, residual energy) with the BS as an
    # inexhaustible candidate.
    candidates: list[tuple[float, Optional[int], float]] = [
        (node.pos.distance_to(fp.center), None, math.inf)
    ]
    for ncr_id in cr_neighbor_ncrs(node.region, fp):
        ch_id = chs.get(ncr_id)
        if ch_id is not None:
            ch = by_id[ch_id]
            candidates.append((node.pos.distance_to(ch.pos), ch_id, ch.energy))
    best_dist = min(dist for dist, _, _ in candidates)
    tied = [c for c in candidates if c[0] <= best_dist + DISTANCE_TIE_EPS]
    tied.sort(key=lambda c: (-c[2], c[1] if c[1] is not None else -1))
    return tied[0][1]


@dataclass
class LeachState:
    """Election history and RNG stream for one LEACH run."""
    p: float
    rng: np.random.Generator
    last_elected: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise ValueError(f"CH probability must be in (0, 1), got {self.p}")


def leach_build_plan(nodes: list[Node], round_index: int, state: LeachState) -> RoundPlan:
    """Classic distributed LEACH election: eligible nodes draw against the
    rotating threshold; CHs transmit directly to the BS.

    Eligibility is epoch-scoped: a node that served as CH sits out until the
    threshold resets (round mod floor(1/p) == 0), so every node serves about
    once per epoch.
    """
    epoch = int(1 / state.p)
    threshold = state.p / (1 - state.p * (round_index % epoch))
    epoch_start = (round_index // epoch) * epoch

    chs: list[Node] = []
    for node in sorted(nodes, key=lambda nd: nd.id):
        if not node.alive:
            continue
        last = state.last_elected.get(node.id)
        if last is not None and last >= epoch_start:
            continue
        if state.rng.random() < threshold:
            chs.append(node)
            state.last_elected[node.id] = round_index

    memberships: dict[int, Optional[int]] = {}
    ch_ids = {ch.id for ch in chs}
    for node in nodes:
        if not node.alive or node.id in ch_ids:
            continue
        if not chs:
            memberships[node.id] = None  # no CH this round: direct to BS
        else:
            nearest = min(chs, key=lambda ch: (node.pos.distance_to(ch.pos), ch.id))
            memberships[node.id] = nearest.id

    return RoundPlan(round_index, {}, memberships, {ch_id: None for ch_id in ch_ids})


def leach_c_build_plan(nodes: list[Node], round_index: int, p: float) -> RoundPlan:
    """Centralized baseline: the BS picks k = max(1, round(p * alive)) CHs
    from the above-mean-energy candidates by greedy facility selection on
    total squared member distance."""
    if not 0 < p < 1:
        raise ValueError(f"CH probability must be in (0, 1), got {p}")
    alive = sorted((nd for nd in nodes if nd.alive), key=lambda nd: nd.id)
    if not alive:
        return RoundPlan(round_index, {}, {}, {})

    pos = np.array([(nd.pos.x, nd.pos.y) for nd in alive])
    energies = np.array([nd.energy for nd in alive])
    d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)

    candidates = _above_mean(energies)
    k = min(max(1, round(p * len(alive))), len(candidates))

    chosen: list[int] = []
    cost = np.full(len(alive), np.inf)
    for _ in range(k):
        remaining = np.array([c for c in candidates if c not in chosen])
        totals = np.minimum(cost[None, :], d2[remaining]).sum(axis=1)
        pick = remaining[int(np.argmin(totals))]  # ties: lowest node id
        chosen.append(int(pick))
        cost = np.minimum(cost, d2[pick])

    ch_ids = {alive[i].id for i in chosen}
    memberships: dict[int, Optional[int]] = {}
    for i, node in enumerate(alive):
        if node.id in ch_ids:
            continue
        nearest = min(chosen, key=lambda c: (d2[i, c], alive[c].id))
        memberships[node.id] = alive[nearest].id

    return RoundPlan(round_index, {}, memberships, {ch_id: None for ch_id in ch_ids})


def build_plan(state: SimState, round_index: int,
               leach_state: Optional[LeachState] = None) -> RoundPlan:
    kind = state.config.protocol
    if kind is ProtocolKind.DR:
        return dr_build_plan(state.fp, state.nodes, round_index)
    if kind is ProtocolKind.LEACH:
        return leach_build_plan(state.nodes, round_index, leach_state)
    return leach_c_build_plan(state.nodes, round_index, state.config.ch_probability)


def run_round(state: SimState, plan: RoundPlan, *,
              fixed_distance: Optional[float] = None,
              compress: bool = True,
              breakdown: Optional[dict] = None) -> RoundMetrics:
    """Charge the round's traffic and apply deaths.

    Charging order per the steady-state phase: member transmissions, CH
    receptions, CH aggregation, CH forwarding. A node completes its in-round
    actions even if they overdraw its energy; it is then floored at 0 J and
    marked dead. Direct-to-BS senders pay transmit cost only.

    `fixed_distance` forces every link to a constant length and `compress`
    toggles CH aggregation compression (one outgoing packet vs one per
    collected signal); both exist for validation against the closed-form
    energy expressions and default to production behavior. `breakdown`, when
    given, is filled with per-(ring, category) energy totals.
    """
    cfg = state.config
    bits = cfg.packet_bits
    by_id = {nd.id: nd for nd in state.nodes}

    def link(src: Node, dest: Optional[int]) -> float:
        if fixed_distance is not None:
            return fixed_distance
        target = cfg.bs if dest is None else by_id[dest].pos
        return src.pos.distance_to(target)

    def record(ring: int, category: str, joules: float):
        if breakdown is not None:
            key = (ring, category)
            breakdown[key] = breakdown.get(key, 0.0) + joules

    rx_counts: dict[int, int] = {ch: 0 for ch in plan.ch_next_hop}
    for dest in plan.memberships.values():
        if dest is not None:
            rx_counts[dest] += 1
    for next_hop in plan.ch_next_hop.values():
        if next_hop is not None:
            rx_counts[next_hop] += 1

    costs: dict[int, float] = {}
    packets_to_bs = 0

    for node_id, dest in plan.memberships.items():
        node = by_id[node_id]
        e = radio.tx_energy(cfg.radio, bits, link(node, dest))
        costs[node_id] = costs.get(node_id, 0.0) + e
        region = state.fp.region(node.region)
        if dest is None:
            packets_to_bs += 1
            category = "cr_bs_tx" if region.kind is RegionKind.CORNER else "direct_bs_tx"
        else:
            category = "cr_ch_tx" if region.kind is RegionKind.CORNER else "member_tx"
        record(region.ring, category, e)

    for ch_id, next_hop in plan.ch_next_hop.items():
        ch = by_id[ch_id]
        ring = state.fp.region(ch.region).ring
        received = rx_counts[ch_id]
        signals = received + 1  # the CH's own packet

        e_rx = radio.rx_energy(cfg.radio, bits) * received
        e_agg = radio.agg_energy(cfg.radio, bits, signals)
        out_packets = 1 if compress else signals
        e_tx = radio.tx_energy(cfg.radio, bits, link(ch, next_hop)) * out_packets
        costs[ch_id] = costs.get(ch_id, 0.0) + e_rx + e_agg + e_tx
        if next_hop is None:
            packets_to_bs += out_packets
        record(ring, "ch_rx", e_rx)
        record(ring, "ch_agg", e_agg)
        record(ring, "ch_tx", e_tx)

    energy_spent = 0.0
    for node_id, cost in costs.items():
        node = by_id[node_id]
        before = node.energy
        node.energy = max(0.0, node.energy - cost)
        energy_spent += before - node.energy
        if node.energy <= 0.0:
            node.alive = False

    return RoundMetrics(plan.round, state.alive_count(), len(plan.ch_next_hop),
                        packets_to_bs, energy_spent, 0.0)


def reference_run(config):
    state = make_state(config)
    leach_state = LeachState(config.ch_probability, state.rng)
    series = []
    cumulative = 0.0
    for round_index in range(1, config.max_rounds + 1):
        if state.alive_count() == 0:
            break
        metrics = run_round(state, build_plan(state, round_index, leach_state))
        cumulative += metrics.energy_spent
        series.append(replace(metrics, cumulative_energy=cumulative))
    return series, summarize(config, series)
