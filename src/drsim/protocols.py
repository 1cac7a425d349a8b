"""Per-round cluster formation and routing for the DR protocol and the
LEACH / LEACH-C baselines.

All planners map an alive-node snapshot and a 1-based round index to a
RoundPlan: who is CH, who sends to whom, and where each CH forwards.
A destination of ``None`` means the base station.

The `*Planner` classes give the same plans from tables built once per run
(rosters, region maps, distance matrices) over flat per-node energy and
alive lists, as `IndexPlan` index lists with `BS` for the base station.
`sim.run` uses them; the `*_build_plan` functions are their reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .geometry import (
    FieldPartition,
    Point,
    RegionKind,
    cr_neighbor_ncrs,
    distance_matrix,
    inward_adjacent_ncr,
    squared_distance_matrix,
)

# Corner nodes equidistant from two candidates within this tolerance are
# tie-broken by residual energy.
DISTANCE_TIE_EPS = 1e-9


class ProtocolKind(Enum):
    DR = "dr"
    LEACH = "leach"
    LEACH_C = "leach-c"


@dataclass
class Node:
    id: int
    pos: Point
    energy: float
    alive: bool
    region: int


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


def _above_mean(energies: np.ndarray) -> np.ndarray:
    """Indices of the energies at or above their mean. The computed mean of
    equal values can round above all of them; the maximum always qualifies."""
    return np.flatnonzero(energies >= min(energies.mean(), energies.max()))


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


BS = -1     # destination of an IndexPlan link that goes to the base station


class IndexPlan(NamedTuple):
    """A RoundPlan as index lists, in the order the energy is charged."""
    members: list[int]      # senders, in node-id order
    dests: list[int]        # each sender's CH id, or BS
    chs: list[int]          # CH ids, in RoundPlan.ch_next_hop order
    next_hops: list[int]    # each CH's next-hop CH id, or BS


class DrPlanner:
    """`dr_build_plan` from the run's static DR tables."""

    def __init__(self, fp: FieldPartition, nodes: list[Node], bs_distance: list[float]):
        self.xs = [nd.pos.x for nd in nodes]
        self.ys = [nd.pos.y for nd in nodes]
        self.bs_distance = bs_distance
        self.region = [nd.region for nd in nodes]
        self.kind = [fp.region(nd.region).kind for nd in nodes]
        # (NCR id, node ids by rank), in the order dr_select_chs visits them
        self.rosters = [(rid, [nd.id for nd in roster])
                        for rid, roster in _region_rosters(fp, nodes).items()]
        # NCR id -> the NCR its CH forwards to; ring 1 maps to the central
        # region, which never has a CH, so those CHs send to the BS.
        self.inward = {rid: inward_adjacent_ncr(rid, fp) for rid, _ in self.rosters}
        self.corner_ncrs = {r.id: cr_neighbor_ncrs(r.id, fp) for r in fp.regions
                            if r.kind is RegionKind.CORNER}

    def plan(self, round_index: int, alive_ids: list[int], alive: list[bool],
             energy: list[float]) -> IndexPlan:
        chs: dict[int, int] = {}
        for rid, roster in self.rosters:
            start = (round_index - 1) % len(roster)
            for node_id in roster[start:] + roster[:start]:
                if alive[node_id]:
                    chs[rid] = node_id
                    break

        members, dests = [], []
        for i in alive_ids:
            kind = self.kind[i]
            if kind is RegionKind.CENTRAL:
                dest = BS
            elif kind is RegionKind.NON_CORNER:
                dest = chs[self.region[i]]
                if dest == i:
                    continue
            else:
                dest = self._corner_destination(i, chs, energy)
            members.append(i)
            dests.append(dest)

        next_hops = [chs.get(self.inward[rid], BS) for rid in chs]
        return IndexPlan(members, dests, list(chs.values()), next_hops)

    def _corner_destination(self, i: int, chs: dict[int, int],
                            energy: list[float]) -> int:
        """`_corner_destination` with BS for None, which sorts the same."""
        candidates = [(self.bs_distance[i], BS, math.inf)]
        for ncr_id in self.corner_ncrs[self.region[i]]:
            ch = chs.get(ncr_id)
            if ch is not None:
                distance = math.hypot(self.xs[i] - self.xs[ch], self.ys[i] - self.ys[ch])
                candidates.append((distance, ch, energy[ch]))
        best_dist = min(dist for dist, _, _ in candidates)
        tied = [c for c in candidates if c[0] <= best_dist + DISTANCE_TIE_EPS]
        tied.sort(key=lambda c: (-c[2], c[1]))
        return tied[0][1]


class LeachPlanner:
    """`leach_build_plan` from the run's distance matrix."""

    def __init__(self, nodes: list[Node], state: LeachState):
        self.state = state
        self.distance = distance_matrix([nd.pos for nd in nodes])
        self.last_elected = [-1] * len(nodes)

    def plan(self, round_index: int, alive_ids: list[int], alive: list[bool],
             energy: list[float]) -> IndexPlan:
        p = self.state.p
        epoch = int(1 / p)
        threshold = p / (1 - p * (round_index % epoch))
        epoch_start = (round_index // epoch) * epoch

        last = self.last_elected
        eligible = [i for i in alive_ids if last[i] < epoch_start]
        # One draw per eligible node in id order, as leach_build_plan makes.
        draws = self.state.rng.random(len(eligible)).tolist()
        chs = [i for i, u in zip(eligible, draws) if u < threshold]
        for i in chs:
            last[i] = round_index

        ch_ids = {i for i in chs}   # built as leach_build_plan's, so same order
        members = [i for i in alive_ids if i not in ch_ids]
        if not chs or not members:
            dests = [BS] * len(members)
        else:
            # chs is id-sorted, so argmin takes the lowest id among ties.
            nearest = self.distance[np.ix_(members, chs)].argmin(axis=1)
            dests = np.array(chs)[nearest].tolist()
        return IndexPlan(members, dests, list(ch_ids), [BS] * len(ch_ids))


class LeachCPlanner:
    """`leach_c_build_plan` from the run's squared-distance matrix."""

    def __init__(self, nodes: list[Node], p: float):
        self.p = p
        self.d2 = squared_distance_matrix([nd.pos for nd in nodes])

    def plan(self, round_index: int, alive_ids: list[int], alive: list[bool],
             energy: list[float]) -> IndexPlan:
        d2 = self.d2
        if len(alive_ids) < len(d2):
            d2 = d2[np.ix_(alive_ids, alive_ids)]
        energies = np.array([energy[i] for i in alive_ids])

        candidates = _above_mean(energies)
        k = min(max(1, round(self.p * len(alive_ids))), len(candidates))
        chosen: list[int] = []
        cost = np.full(len(alive_ids), np.inf)
        remaining = candidates
        for _ in range(k):
            totals = np.minimum(cost[None, :], d2[remaining]).sum(axis=1)
            j = int(np.argmin(totals))  # ties: lowest node id
            chosen.append(int(remaining[j]))
            cost = np.minimum(cost, d2[chosen[-1]])
            remaining = np.delete(remaining, j)

        ch_ids = {alive_ids[c] for c in chosen}   # as leach_c_build_plan's
        local = [c for c in range(len(alive_ids)) if alive_ids[c] not in ch_ids]
        members = [alive_ids[c] for c in local]
        dests = []
        if local:
            columns = sorted(chosen)
            nearest = d2[np.ix_(local, columns)].argmin(axis=1)  # ties: lowest id
            dests = [alive_ids[columns[c]] for c in nearest.tolist()]
        return IndexPlan(members, dests, list(ch_ids), [BS] * len(ch_ids))
