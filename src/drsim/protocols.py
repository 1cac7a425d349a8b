"""Per-round cluster formation and routing for the DR protocol and the
LEACH / LEACH-C baselines.

Each `*Planner` is built from the run's `SimState` and builds its static
tables once per run (rosters, region maps, distance matrices). Its `plan`
maps a 1-based round index and the alive node ids to an `IndexPlan`: who is
CH, who sends to whom, and where each CH forwards, with `BS` for the base
station. It reads energy and alive status from the state's lists, which the
round engine updates. `tests/reference.py` plans the same rounds over one
object per node; the two must agree exactly.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .geometry import (
    FieldPartition,
    RegionKind,
    cr_neighbor_ncrs,
    distance_matrix,
    inward_adjacent_ncr,
    squared_distance_matrix,
)

if TYPE_CHECKING:
    from .sim import SimState

# Corner nodes equidistant from two candidates within this tolerance are
# tie-broken by residual energy.
DISTANCE_TIE_EPS = 1e-9


class ProtocolKind(Enum):
    DR = "dr"
    LEACH = "leach"
    LEACH_C = "leach-c"


def _region_rosters(fp: FieldPartition, xs: list[float], ys: list[float],
                    region: list[int]) -> dict[int, list[int]]:
    """Full per-NCR rosters of node ids (alive and dead), distance-ranked to
    the region midpoint, ties by node id, NCRs in the order their first node
    was deployed. Only non-central NCRs host CHs."""
    rosters: dict[int, list[int]] = {}
    for i, region_id in enumerate(region):
        if fp.region(region_id).kind is RegionKind.NON_CORNER:
            rosters.setdefault(region_id, []).append(i)
    for region_id, members in rosters.items():
        mid = fp.region(region_id).midpoint
        members.sort(key=lambda i: (math.hypot(xs[i] - mid.x, ys[i] - mid.y), i))
    return rosters


def _above_mean(energies: np.ndarray) -> np.ndarray:
    """Indices of the energies at or above their mean. The computed mean of
    equal values can round above all of them; the maximum always qualifies."""
    return np.flatnonzero(energies >= min(energies.mean(), energies.max()))


BS = -1     # destination of an IndexPlan link that goes to the base station


class IndexPlan(NamedTuple):
    """One round's plan as index lists, in the order the energy is charged."""
    members: list[int]      # senders, in node-id order
    dests: list[int]        # each sender's CH id, or BS
    chs: list[int]          # CH ids
    next_hops: list[int]    # each CH's next-hop CH id, or BS


class DrPlanner:
    """DR over static clusters. Each non-central NCR elects one CH per round:
    the alive node at cyclic distance rank (round-1) mod population, skipping
    dead nodes forward. Central nodes send to the BS, NCR members to their
    CH, and corner nodes to the nearest of the BS and the two edge-adjacent
    same-ring CHs. A ring-k CH forwards to the same-side ring-(k-1) CH, or
    to the BS from ring 1 or when that region has no CH."""

    def __init__(self, state: SimState, bs_distance: list[float]):
        fp = state.fp
        self.state = state
        self.bs_distance = bs_distance
        self.kind = [fp.region(rid).kind for rid in state.region]
        # (NCR id, node ids by rank): the order of the CHs in every plan
        self.rosters = list(
            _region_rosters(fp, state.xs, state.ys, state.region).items())
        # NCR id -> the NCR its CH forwards to; ring 1 maps to the central
        # region, which never has a CH, so those CHs send to the BS.
        self.inward = {rid: inward_adjacent_ncr(rid, fp) for rid, _ in self.rosters}
        self.corner_ncrs = {r.id: cr_neighbor_ncrs(r.id, fp) for r in fp.regions
                            if r.kind is RegionKind.CORNER}

    def plan(self, round_index: int, alive_ids: list[int]) -> IndexPlan:
        alive, region = self.state.alive, self.state.region
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
                dest = chs[region[i]]
                if dest == i:
                    continue
            else:
                dest = self._corner_destination(i, chs)
            members.append(i)
            dests.append(dest)

        next_hops = [chs.get(self.inward[rid], BS) for rid in chs]
        return IndexPlan(members, dests, list(chs.values()), next_hops)

    def _corner_destination(self, i: int, chs: dict[int, int]) -> int:
        """Nearest of the BS and the corner's two NCR CHs. A distance tie
        goes to the CH with more residual energy; the BS beats any tie."""
        xs, ys, energy = self.state.xs, self.state.ys, self.state.energy
        candidates = [(self.bs_distance[i], BS, math.inf)]
        for ncr_id in self.corner_ncrs[self.state.region[i]]:
            ch = chs.get(ncr_id)
            if ch is not None:
                distance = math.hypot(xs[i] - xs[ch], ys[i] - ys[ch])
                candidates.append((distance, ch, energy[ch]))
        best_dist = min(dist for dist, _, _ in candidates)
        tied = [c for c in candidates if c[0] <= best_dist + DISTANCE_TIE_EPS]
        tied.sort(key=lambda c: (-c[2], c[1]))
        return tied[0][1]


class LeachPlanner:
    """Classic distributed LEACH election: eligible nodes draw against the
    rotating threshold, members join the nearest CH, and CHs transmit
    directly to the BS.

    Eligibility is epoch-scoped: a node that served as CH sits out until the
    threshold resets (round mod floor(1/p) == 0), so every node serves about
    once per epoch.
    """

    def __init__(self, state: SimState):
        self.p = state.config.ch_probability
        self.rng = state.rng
        self.distance = distance_matrix(state.xs, state.ys)
        self.last_elected = [-1] * len(state.xs)

    def plan(self, round_index: int, alive_ids: list[int]) -> IndexPlan:
        p = self.p
        epoch = int(1 / p)
        threshold = p / (1 - p * (round_index % epoch))
        epoch_start = (round_index // epoch) * epoch

        last = self.last_elected
        eligible = [i for i in alive_ids if last[i] < epoch_start]
        # One draw per eligible node, in id order.
        draws = self.rng.random(len(eligible)).tolist()
        chs = [i for i, u in zip(eligible, draws) if u < threshold]
        for i in chs:
            last[i] = round_index

        # CHs are charged in this set's order; the goldens depend on it.
        ch_ids = {i for i in chs}
        members = [i for i in alive_ids if i not in ch_ids]
        if not chs or not members:
            dests = [BS] * len(members)
        else:
            # chs is id-sorted, so argmin takes the lowest id among ties.
            nearest = self.distance[np.ix_(members, chs)].argmin(axis=1)
            dests = np.array(chs)[nearest].tolist()
        return IndexPlan(members, dests, list(ch_ids), [BS] * len(ch_ids))


class LeachCPlanner:
    """Centralized baseline: the BS picks k = max(1, round(p * alive)) CHs
    from the above-mean-energy candidates by greedy facility selection on
    total squared member distance; members join the nearest CH."""

    def __init__(self, state: SimState):
        self.state = state
        self.p = state.config.ch_probability
        self.d2 = squared_distance_matrix(state.xs, state.ys)

    def plan(self, round_index: int, alive_ids: list[int]) -> IndexPlan:
        energy = self.state.energy
        d2 = self.d2
        if len(alive_ids) < len(d2):
            d2 = d2[np.ix_(alive_ids, alive_ids)]
        energies = np.array([energy[i] for i in alive_ids])

        candidates = _above_mean(energies)
        k = min(max(1, round(self.p * len(alive_ids))), len(candidates))
        chosen: list[int] = []
        taken: list[int] = []       # positions in `candidates` already chosen
        cost = np.full(len(alive_ids), np.inf)
        # Each total is the sum of one whole contiguous row of length A, the
        # same float whichever rows sit beside it; never pad or split a row.
        rows = d2[candidates]
        block = np.empty_like(rows)
        for _ in range(k):
            totals = np.minimum(cost, rows, out=block).sum(axis=1)
            totals[taken] = np.inf
            j = int(np.argmin(totals))  # ties: lowest position, so lowest node id
            taken.append(j)
            chosen.append(int(candidates[j]))
            cost = np.minimum(cost, rows[j])
        del rows, block     # the peak stays at the 2 R x A floats of one step

        # CHs are charged in this set's order; the goldens depend on it.
        ch_ids = {alive_ids[c] for c in chosen}
        local = [c for c in range(len(alive_ids)) if alive_ids[c] not in ch_ids]
        members = [alive_ids[c] for c in local]
        dests = []
        if local:
            columns = sorted(chosen)
            nearest = d2[np.ix_(local, columns)].argmin(axis=1)  # ties: lowest id
            dests = [alive_ids[columns[c]] for c in nearest.tolist()]
        return IndexPlan(members, dests, list(ch_ids), [BS] * len(ch_ids))
