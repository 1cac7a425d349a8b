import math
from dataclasses import replace

import numpy as np
import pytest

from drsim.geometry import Point, RegionKind, build_partition
from drsim.protocols import ProtocolKind
from drsim.radio import tx_energy
from drsim.sim import INT_BOUNDS, Rounds, SimConfig, deploy, experiment, make_state, run, summarize
import reference
from reference import build_plan, run_round


def small_config(**kw):
    defaults = dict(node_count=40, max_rounds=400, seed=7)
    defaults.update(kw)
    return SimConfig(**defaults)


class TestDeploy:
    def test_seeded_determinism(self):
        cfg = SimConfig(seed=123)
        fp = build_partition(cfg.field_length, cfg.n_rings)
        a = deploy(cfg, fp, np.random.default_rng(cfg.seed))
        b = deploy(cfg, fp, np.random.default_rng(cfg.seed))
        assert a == b

    def test_region_populations_proportional_to_area(self):
        cfg = SimConfig(node_count=10000, seed=99)
        fp = build_partition(cfg.field_length, cfg.n_rings)
        _, _, region = deploy(cfg, fp, np.random.default_rng(cfg.seed))
        counts = {r.id: 0 for r in fp.regions}
        for region_id in region:
            counts[region_id] += 1
        total_area = cfg.field_length ** 2
        for region in fp.regions:
            p = region.bounds.area / total_area
            expected = cfg.node_count * p
            sigma = math.sqrt(cfg.node_count * p * (1 - p))
            assert abs(counts[region.id] - expected) <= 3 * sigma

    def test_single_node_network_terminates(self):
        series, summary = run(SimConfig(node_count=1, seed=5, max_rounds=10000))
        assert series[-1].alive == 0
        assert summary.fnd == summary.hnd == summary.lnd == len(series)

    def test_all_nodes_start_at_initial_energy(self):
        state = make_state(SimConfig(seed=3, initial_energy=0.25))
        assert all(e == 0.25 and a for e, a in zip(state.energy, state.alive))


class TestRunRound:
    def test_energy_conservation_identity(self):
        for kind in ProtocolKind:
            state = make_state(small_config(protocol=kind))
            rounds = Rounds(state)
            for r in range(1, 101):
                before = list(state.energy)
                _, spent, _ = rounds.play(r)
                decrease = sum(b - a for b, a in zip(before, state.energy))
                assert spent == pytest.approx(decrease, abs=1e-12)

    def test_dead_network_round_is_empty(self):
        state = reference.make_state(small_config())
        for nd in state.nodes:
            nd.alive = False
            nd.energy = 0.0
        plan = build_plan(state, 1)
        metrics = run_round(state, plan)
        assert metrics.alive == 0
        assert metrics.energy_spent == 0.0
        assert metrics.packets_to_bs == 0

    def test_single_central_node_lifetime_matches_division(self):
        # find a seed whose lone node lands in the central region
        for seed in range(100):
            cfg = SimConfig(node_count=1, seed=seed, max_rounds=20000)
            state = make_state(cfg)
            if state.fp.region(state.region[0]).kind is RegionKind.CENTRAL:
                break
        else:
            pytest.fail("no seed placed the single node centrally")
        per_round = tx_energy(cfg.radio, cfg.packet_bits,
                              Point(state.xs[0], state.ys[0]).distance_to(cfg.bs))
        expected = math.floor(cfg.initial_energy / per_round)
        series, summary = run(cfg)
        assert abs(summary.lnd - expected) <= 1
        assert all(m.ch_count == 0 for m in series)

    def test_node_dies_with_floored_energy(self):
        cfg = SimConfig(node_count=1, seed=11, initial_energy=1e-5,
                        max_rounds=10)
        series, _ = run(cfg)
        assert series[-1].alive == 0
        # energy never goes negative: cumulative spend <= budget
        assert series[-1].cumulative_energy <= cfg.initial_energy + 1e-15


class TestRun:
    def test_dr_ch_count_fixed_early(self):
        series, _ = run(SimConfig(seed=2, max_rounds=50,
                                  protocol=ProtocolKind.DR))
        assert all(m.ch_count == 8 for m in series)

    def test_round_cap_respected(self):
        series, summary = run(small_config(initial_energy=1e6, max_rounds=10))
        assert len(series) == 10
        assert all(m.alive == 40 for m in series)
        assert summary.fnd == summary.lnd == 10  # no deaths: capped values

    def test_determinism(self):
        cfg = small_config(protocol=ProtocolKind.LEACH)
        assert run(cfg) == run(cfg)

    def test_alive_monotone_and_energy_ledger(self):
        for kind in ProtocolKind:
            cfg = small_config(protocol=kind, max_rounds=3000)
            series, _ = run(cfg)
            alives = [m.alive for m in series]
            assert alives == sorted(alives, reverse=True)
            cums = [m.cumulative_energy for m in series]
            assert cums == sorted(cums)
            assert cums[-1] <= cfg.node_count * cfg.initial_energy + 1e-9

    def test_total_packets_accounting(self):
        cfg = small_config()
        series, summary = run(cfg)
        assert summary.total_packets == sum(m.packets_to_bs for m in series)

    def test_summary_ordering(self):
        for kind in ProtocolKind:
            _, s = run(small_config(protocol=kind, max_rounds=3000))
            assert s.fnd <= s.hnd <= s.lnd


class TestExperiment:
    def test_single_run_aggregate_equals_run(self):
        cfg = small_config(runs=1, max_rounds=600)
        result = experiment(cfg)
        for kind in ProtocolKind:
            _, expected = run(replace(cfg, protocol=kind))
            agg = result.aggregates[kind]
            assert agg["fnd"]["mean"] == agg["fnd"]["median"] == expected.fnd
            assert agg["total_packets"]["mean"] == expected.total_packets

    def test_self_comparison_is_zero(self):
        # (a - b) / b with a == b
        cfg = small_config(runs=1, max_rounds=300)
        result = experiment(cfg)
        for kind in ProtocolKind:
            fnd = result.aggregates[kind]["fnd"]["median"]
            assert 100.0 * (fnd - fnd) / fnd == 0.0

    def test_derived_seeds(self):
        cfg = small_config(runs=3, max_rounds=300)
        result = experiment(cfg)
        seeds = [seed for kind, seed, _ in result.rows
                 if kind is ProtocolKind.DR]
        assert seeds == [7, 8, 9]

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            experiment(small_config(runs=0))


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        dict(node_count=0),
        dict(max_rounds=0),
        dict(initial_energy=0.0),
        dict(field_length=-1.0),
        dict(n_rings=1),
        dict(packet_bits=0),
        dict(ch_probability=1.0),
        dict(ch_probability=1e-320),
        dict(initial_energy=float("nan")),
        dict(field_length=float("inf")),
    ])
    def test_invalid_configs_rejected(self, kw):
        with pytest.raises(ValueError):
            SimConfig(**kw)

    # The largest value of each that a test or benchmark workload uses.
    @pytest.mark.parametrize("name,used", [
        ("node_count", 10000), ("n_rings", 8), ("max_rounds", 20000), ("runs", 50),
    ])
    def test_resource_limits(self, name, used):
        # Only constructs the configs: running one at a limit would allocate
        # what the limit is there to bound.
        _, high = INT_BOUNDS[name]
        assert used <= high < float("inf")
        assert getattr(SimConfig(**{name: high}), name) == high
        with pytest.raises(ValueError, match=name):
            SimConfig(**{name: high + 1})

    def test_default_bs_is_field_center(self):
        cfg = SimConfig()
        assert (cfg.bs.x, cfg.bs.y) == (50.0, 50.0)


def test_summarize_half_network_threshold():
    cfg = SimConfig(node_count=4, max_rounds=100)
    from drsim.sim import RoundMetrics
    series = [RoundMetrics(1, 4, 0, 4, 1e-6, 1e-6),
              RoundMetrics(2, 3, 0, 3, 1e-6, 2e-6),
              RoundMetrics(3, 2, 0, 2, 1e-6, 3e-6),
              RoundMetrics(4, 0, 0, 0, 0.0, 3e-6)]
    s = summarize(cfg, series)
    assert (s.fnd, s.hnd, s.lnd) == (2, 3, 4)
