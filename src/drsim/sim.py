"""Round-driven network simulation: deployment, per-round planning through
the selected protocol, steady-state energy accounting, node death, and
run / multi-seed experiment orchestration."""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import radio
from .geometry import FieldPartition, Point, build_partition, locate
from .protocols import BS, DrPlanner, IndexPlan, LeachCPlanner, LeachPlanner, ProtocolKind


# Inclusive bounds of the integer keys. The upper limits bound what one
# config can make a run allocate or play, and are checked before anything is
# allocated. The cost at each limit, computed from the code:
# - node_count: LEACH and LEACH-C each hold an N x N float64 matrix, 800 MB
#   at 10,000 nodes; LEACH-C copies it to the alive nodes after a death, and
#   its greedy placement holds two R x A float64 blocks per round (R above-
#   mean candidates, A alive nodes): up to 1.6 GB at 10,000 nodes. The
#   per-run link-cost cache can reach N(N-1)/2 = 5e7 entries.
# - n_rings: 8n-7 = 793 regions at 100 rings, scanned once per node to
#   locate it; DR elects a CH in each of the 4(n-1) = 396 non-corner regions.
# - max_rounds: `run` keeps one RoundMetrics per round, and `drsim run` writes
#   one CSV row of about 50 bytes per round: about 50 MB at 1,000,000 rounds.
# - runs: `drsim compare` plays 3 x runs runs of up to max_rounds rounds each,
#   30,000 runs at the limit.
INT_BOUNDS = {
    "node_count": (1, 10_000),
    "n_rings": (2, 100),
    "packet_bits": (1, math.inf),
    "max_rounds": (1, 1_000_000),
    "seed": (0, math.inf),
    "runs": (1, 10_000),
}


@dataclass(frozen=True)
class SimConfig:
    """One experiment's settings. Every config key is a field here or in
    `radio.RadioParams`, and both validate their own fields."""
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
        for name, (low, high) in INT_BOUNDS.items():
            value = getattr(self, name)
            if not low <= value <= high:
                bound = f"at least {low}" if high == math.inf else f"in {low}..{high}"
                raise ValueError(f"{name} must be {bound}, got {value}")
        if not (math.isfinite(self.initial_energy) and self.initial_energy > 0):
            raise ValueError(f"initial_energy must be positive, got {self.initial_energy}")
        if not (math.isfinite(self.field_length) and self.field_length > 0):
            raise ValueError(f"field_length must be positive, got {self.field_length}")
        # Below the smallest normal float the partition's ring offsets
        # L * k / (2n) can round to one value (or to 0) and a region vanishes.
        step = self.field_length / (2 * self.n_rings)
        if step < sys.float_info.min:
            raise ValueError(
                f"field_length={self.field_length} is too small for n_rings="
                f"{self.n_rings}: the partition step L / (2 n_rings) = {step} "
                f"is below {sys.float_info.min}")
        # LEACH's epoch is int(1 / p), which must exist.
        if not (0 < self.ch_probability < 1
                and math.isfinite(1 / self.ch_probability)):
            raise ValueError(
                f"ch_probability must be in (0, 1) with a finite 1/p, "
                f"got {self.ch_probability}")
        # No link is longer than the field diagonal, the transmit cost grows
        # with distance, and a CH hears at most the other N-1 nodes: no node
        # spends more than this in a round.
        bits, params = self.packet_bits, self.radio
        try:
            worst = (radio.tx_energy(params, bits, self.field_length * math.sqrt(2))
                     + radio.rx_energy(params, bits) * (self.node_count - 1)
                     + radio.agg_energy(params, bits, self.node_count))
        except OverflowError:
            worst = math.inf
        if not math.isfinite(worst):
            raise ValueError(
                f"a node's energy cost per round can overflow with "
                f"field_length={self.field_length}, node_count={self.node_count}, "
                f"packet_bits={bits}, e_elec={params.e_elec}, e_fs={params.e_fs}, "
                f"e_mp={params.e_mp}, e_da={params.e_da}")

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
    """One run's per-node state as lists indexed by node id. Positions and
    regions are fixed at deployment; `Rounds` updates `energy` and `alive`
    in place."""
    config: SimConfig
    fp: FieldPartition
    rng: np.random.Generator
    xs: list[float]
    ys: list[float]
    region: list[int]
    energy: list[float]
    alive: list[bool]

    def alive_count(self) -> int:
        return self.alive.count(True)


def deploy(config: SimConfig, fp: FieldPartition,
           rng: np.random.Generator) -> tuple[list[float], list[float], list[int]]:
    """Uniform random deployment over the field square: each node's x, y
    and region id."""
    xs = rng.uniform(0.0, config.field_length, config.node_count).tolist()
    ys = rng.uniform(0.0, config.field_length, config.node_count).tolist()
    return xs, ys, [locate(Point(x, y), fp) for x, y in zip(xs, ys)]


def make_state(config: SimConfig) -> SimState:
    fp = build_partition(config.field_length, config.n_rings)
    rng = np.random.default_rng(config.seed)
    xs, ys, region = deploy(config, fp, rng)
    n = config.node_count
    return SimState(config, fp, rng, xs, ys, region,
                    [config.initial_energy] * n, [True] * n)


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
    """One full simulation: deploy, then play rounds until all nodes are
    dead or the round cap is reached.

    `tests/reference.py` holds the scalar engine, over one object per node,
    that this one must reproduce exactly: the same distance and `radio`
    calls, draws and summation order.
    """
    state = make_state(config)
    rounds = Rounds(state)
    series: list[RoundMetrics] = []
    cumulative = 0.0
    for round_index in range(1, config.max_rounds + 1):
        if not rounds.alive_ids:
            break
        plan, spent, packets = rounds.play(round_index)
        cumulative += spent
        series.append(RoundMetrics(round_index, len(rounds.alive_ids), len(plan.chs),
                                   packets, spent, cumulative))
    return series, summarize(config, series)


def _planner(state: SimState, bs_distance: list[float]):
    if state.config.protocol is ProtocolKind.DR:
        return DrPlanner(state, bs_distance)
    if state.config.protocol is ProtocolKind.LEACH:
        return LeachPlanner(state)
    return LeachCPlanner(state)


class Rounds:
    """The rounds of one run, played one at a time on `state`.

    What cannot change after deployment (distances and transmit costs to
    the BS, and the planner's region maps, rosters and distance matrices)
    is built once, here. `play` updates the state's `energy` and `alive`
    lists in place, and `alive_ids` lists the alive nodes in id order. Link
    costs come from a per-run cache of scalar `radio.tx_energy` values.
    """

    def __init__(self, state: SimState):
        cfg = state.config
        params, bits = cfg.radio, cfg.packet_bits
        xs, ys, bs = state.xs, state.ys, cfg.bs
        n = len(xs)
        bs_distance = [math.hypot(x - bs.x, y - bs.y) for x, y in zip(xs, ys)]
        bs_cost = [radio.tx_energy(params, bits, d) for d in bs_distance]
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

        self._state = state
        self._link = link
        self._params, self._bits = params, bits
        self._rx_unit = radio.rx_energy(params, bits)
        self._planner = _planner(state, bs_distance)
        self.alive_ids = [i for i, alive in enumerate(state.alive) if alive]

    def play(self, round_index: int) -> tuple[IndexPlan, float, int]:
        """Plan and charge one round; returns the plan, the energy spent and
        the packets that reached the BS."""
        link, params, bits, rx_unit = self._link, self._params, self._bits, self._rx_unit
        energy, alive = self._state.energy, self._state.alive
        plan = self._planner.plan(round_index, self.alive_ids)
        members, dests, chs, next_hops = plan
        received = dict.fromkeys(chs, 0)
        for dest in dests:
            if dest != BS:
                received[dest] += 1
        for next_hop in next_hops:
            if next_hop != BS:
                received[next_hop] += 1

        # Charged in the order the outputs fix: members in id order, then CHs.
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
            self.alive_ids = [i for i in self.alive_ids if alive[i]]
        return plan, spent, dests.count(BS) + next_hops.count(BS)


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
