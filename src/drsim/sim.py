"""Round-driven network simulation: deployment, per-round planning through
the selected protocol, steady-state energy accounting, node death, and
run / multi-seed experiment orchestration."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import radio
from .geometry import FieldPartition, Point, RegionKind, build_partition, locate
from .protocols import (
    BS,
    DrPlanner,
    LeachCPlanner,
    LeachPlanner,
    LeachState,
    Node,
    ProtocolKind,
    RoundPlan,
    dr_build_plan,
    leach_build_plan,
    leach_c_build_plan,
)


@dataclass(frozen=True)
class SimConfig:
    field_length: float = 100.0
    n_rings: int = 3
    node_count: int = 100
    initial_energy: float = 0.5         # J per node
    packet_bits: int = 4000
    protocol: ProtocolKind = ProtocolKind.DR
    ch_probability: float = 0.05        # baselines only
    max_rounds: int = 5000
    seed: int = 1
    runs: int = 50
    radio: radio.RadioParams = field(default_factory=radio.RadioParams)

    def __post_init__(self):
        if self.node_count <= 0:
            raise ValueError(f"node_count must be positive, got {self.node_count}")
        if self.max_rounds <= 0:
            raise ValueError(f"max_rounds must be positive, got {self.max_rounds}")
        if not (math.isfinite(self.initial_energy) and self.initial_energy > 0):
            raise ValueError(f"initial_energy must be positive, got {self.initial_energy}")
        if not (math.isfinite(self.field_length) and self.field_length > 0):
            raise ValueError(f"field_length must be positive, got {self.field_length}")
        if self.n_rings < 2:
            raise ValueError(f"n_rings must be at least 2, got {self.n_rings}")
        if self.packet_bits <= 0:
            raise ValueError(f"packet_bits must be positive, got {self.packet_bits}")
        # LEACH's epoch is int(1 / p), which must exist.
        if not (0 < self.ch_probability < 1
                and math.isfinite(1 / self.ch_probability)):
            raise ValueError(
                f"ch_probability must be in (0, 1) with a finite 1/p, "
                f"got {self.ch_probability}")

    @property
    def bs(self) -> Point:
        """The base station, at the field center."""
        return Point(self.field_length / 2.0, self.field_length / 2.0)


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    alive: int
    ch_count: int
    packets_to_bs: int
    energy_spent: float
    cumulative_energy: float


@dataclass(frozen=True)
class RunSummary:
    fnd: int            # round of first node death (max_rounds if none)
    hnd: int            # round when alive first <= node_count / 2
    lnd: int            # round of last death, or max_rounds
    total_packets: int


@dataclass
class SimState:
    config: SimConfig
    fp: FieldPartition
    nodes: list[Node]
    rng: np.random.Generator
    leach_state: Optional[LeachState] = None

    def alive_count(self) -> int:
        return sum(1 for nd in self.nodes if nd.alive)


def deploy(config: SimConfig, fp: FieldPartition, rng: np.random.Generator) -> list[Node]:
    """Uniform random deployment over the field square."""
    xs = rng.uniform(0.0, config.field_length, config.node_count)
    ys = rng.uniform(0.0, config.field_length, config.node_count)
    nodes = []
    for i in range(config.node_count):
        pos = Point(float(xs[i]), float(ys[i]))
        nodes.append(Node(id=i, pos=pos, energy=config.initial_energy,
                          alive=True, region=locate(pos, fp)))
    return nodes


def make_state(config: SimConfig) -> SimState:
    fp = build_partition(config.field_length, config.n_rings)
    rng = np.random.default_rng(config.seed)
    nodes = deploy(config, fp, rng)
    leach_state = None
    if config.protocol is ProtocolKind.LEACH:
        leach_state = LeachState(config.ch_probability, rng)
    return SimState(config, fp, nodes, rng, leach_state)


def build_plan(state: SimState, round_index: int) -> RoundPlan:
    kind = state.config.protocol
    if kind is ProtocolKind.DR:
        return dr_build_plan(state.fp, state.nodes, round_index)
    if kind is ProtocolKind.LEACH:
        return leach_build_plan(state.nodes, round_index, state.leach_state)
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


def summarize(config: SimConfig, series: list[RoundMetrics]) -> RunSummary:
    fnd = hnd = lnd = config.max_rounds
    half = config.node_count / 2
    for m in series:
        if m.alive < config.node_count and fnd == config.max_rounds:
            fnd = m.round
        if m.alive <= half and hnd == config.max_rounds:
            hnd = m.round
        if m.alive == 0:
            lnd = m.round
            break
    total_packets = sum(m.packets_to_bs for m in series)
    return RunSummary(min(fnd, hnd, lnd), min(hnd, lnd), lnd, total_packets)


def run(config: SimConfig) -> tuple[list[RoundMetrics], RunSummary]:
    """One full simulation: deploy, then plan + account each round until all
    nodes are dead or the round cap is reached.

    What cannot change after deployment (distances and transmit costs to
    the BS, region maps, rosters, distance matrices) is built once, here
    rather than in `make_state`. Rounds keep energy and alive status in flat
    lists and plans as index lists. The series is exactly that of the loop
    over `build_plan` and `run_round`, which stay as the reference: the same
    distance and `radio` calls, draws and summation order.
    """
    state = make_state(config)
    series = _simulate(state)
    return series, summarize(config, series)


def _planner(state: SimState, bs_distance: list[float]):
    kind = state.config.protocol
    if kind is ProtocolKind.DR:
        return DrPlanner(state.fp, state.nodes, bs_distance)
    if kind is ProtocolKind.LEACH:
        return LeachPlanner(state.nodes, state.leach_state)
    return LeachCPlanner(state.nodes, state.config.ch_probability)


def _simulate(state: SimState) -> list[RoundMetrics]:
    cfg = state.config
    params, bits = cfg.radio, cfg.packet_bits
    n = len(state.nodes)
    xs = [nd.pos.x for nd in state.nodes]
    ys = [nd.pos.y for nd in state.nodes]
    bs_distance = [nd.pos.distance_to(cfg.bs) for nd in state.nodes]
    bs_cost = [radio.tx_energy(params, bits, d) for d in bs_distance]
    rx_unit = radio.rx_energy(params, bits)
    planner = _planner(state, bs_distance)

    link_costs: dict[int, float] = {}   # lower id * n + higher id -> tx energy

    def link(src: int, dest: int) -> float:
        if dest == BS:
            return bs_cost[src]
        key = src * n + dest if src < dest else dest * n + src
        cost = link_costs.get(key)
        if cost is None:
            distance = math.hypot(xs[src] - xs[dest], ys[src] - ys[dest])
            cost = link_costs[key] = radio.tx_energy(params, bits, distance)
        return cost

    energy = [nd.energy for nd in state.nodes]
    alive = [nd.alive for nd in state.nodes]
    alive_ids = [nd.id for nd in state.nodes if nd.alive]
    series: list[RoundMetrics] = []
    cumulative = 0.0
    for round_index in range(1, cfg.max_rounds + 1):
        if not alive_ids:
            break
        members, dests, chs, next_hops = planner.plan(round_index, alive_ids,
                                                      alive, energy)
        received = dict.fromkeys(chs, 0)
        for dest in dests:
            if dest != BS:
                received[dest] += 1
        for next_hop in next_hops:
            if next_hop != BS:
                received[next_hop] += 1

        # Charged as run_round sums them: members in id order, then CHs.
        costs = [link(i, dest) for i, dest in zip(members, dests)]
        costs += [rx_unit * received[ch] + radio.agg_energy(params, bits, received[ch] + 1)
                  + link(ch, next_hop) for ch, next_hop in zip(chs, next_hops)]
        spent = 0.0
        deaths = False
        for i, cost in zip(members + chs, costs):
            before = energy[i]
            after = before - cost
            if after <= 0.0:
                after = 0.0
                alive[i] = False
                deaths = True
            energy[i] = after
            spent += before - after
        if deaths:
            alive_ids = [i for i in alive_ids if alive[i]]

        cumulative += spent
        packets = dests.count(BS) + next_hops.count(BS)
        series.append(RoundMetrics(round_index, len(alive_ids), len(chs), packets,
                                   spent, cumulative))
    return series


EXPERIMENT_PROTOCOLS = (ProtocolKind.DR, ProtocolKind.LEACH, ProtocolKind.LEACH_C)


@dataclass(frozen=True)
class ExperimentResult:
    # (protocol, seed, summary) per run, in execution order
    rows: list[tuple[ProtocolKind, int, RunSummary]]
    # protocol -> metric name -> {"mean": ..., "median": ...}
    aggregates: dict[ProtocolKind, dict[str, dict[str, float]]]
    # (a, b) -> FND improvement of a over b in percent, by statistic
    improvements: dict[tuple[ProtocolKind, ProtocolKind], dict[str, float]]


def experiment(config: SimConfig) -> ExperimentResult:
    """Run every protocol over `runs` derived seeds (base seed + run index)
    and aggregate stability / lifetime / throughput statistics."""
    if config.runs < 1:
        raise ValueError(f"runs must be at least 1, got {config.runs}")

    rows = []
    per_protocol: dict[ProtocolKind, list[RunSummary]] = {}
    for kind in EXPERIMENT_PROTOCOLS:
        summaries = []
        for i in range(config.runs):
            run_config = replace(config, protocol=kind, seed=config.seed + i)
            _, summary = run(run_config)
            rows.append((kind, run_config.seed, summary))
            summaries.append(summary)
        per_protocol[kind] = summaries

    aggregates = {}
    for kind, summaries in per_protocol.items():
        aggregates[kind] = {
            name: {
                "mean": statistics.fmean(getattr(s, name) for s in summaries),
                "median": float(statistics.median(getattr(s, name) for s in summaries)),
            }
            for name in ("fnd", "hnd", "lnd", "total_packets")
        }

    pairs = [(ProtocolKind.DR, ProtocolKind.LEACH),
             (ProtocolKind.DR, ProtocolKind.LEACH_C),
             (ProtocolKind.LEACH_C, ProtocolKind.LEACH)]
    improvements = {}
    for a, b in pairs:
        improvements[(a, b)] = {
            stat: 100.0 * (aggregates[a]["fnd"][stat] - aggregates[b]["fnd"][stat])
            / aggregates[b]["fnd"][stat]
            for stat in ("mean", "median")
        }
    return ExperimentResult(rows, aggregates, improvements)
