import itertools
import math

import numpy as np
import pytest

from drsim.geometry import Point, RegionKind, build_partition, cr_neighbor_ncrs, locate
from drsim.protocols import LeachCPlanner, ProtocolKind
from drsim.sim import SimConfig, deploy, make_state
from reference import (
    LeachState,
    Node,
    as_nodes,
    dr_build_plan,
    dr_select_chs,
    leach_build_plan,
    leach_c_build_plan,
)


@pytest.fixture(scope="module")
def fp():
    return build_partition(100.0, 3)


def make_node(node_id, x, y, fp, energy=0.5, alive=True):
    pos = Point(x, y)
    return Node(node_id, pos, energy, alive, locate(pos, fp))


def deployed_nodes(fp, seed=42, count=100):
    cfg = SimConfig(node_count=count, seed=seed)
    xs, ys, region = deploy(cfg, fp, np.random.default_rng(seed))
    return as_nodes(xs, ys, region, [cfg.initial_energy] * count, [True] * count)


class TestDrChSelection:
    # Region 2 (East, ring 1) has midpoint (75, 50); these nodes sit at
    # distances 3, 5, 9 from it.
    def east_trio(self, fp):
        return [
            make_node(7, 78.0, 50.0, fp),
            make_node(2, 70.0, 50.0, fp),
            make_node(4, 75.0, 59.0, fp),
        ]

    def test_nearest_first_then_rotation(self, fp):
        nodes = self.east_trio(fp)
        assert dr_select_chs(fp, nodes, 1)[2] == 7
        assert dr_select_chs(fp, nodes, 2)[2] == 2
        assert dr_select_chs(fp, nodes, 3)[2] == 4
        assert dr_select_chs(fp, nodes, 4)[2] == 7  # cyclic wraparound

    def test_dead_node_skipped_forward(self, fp):
        nodes = self.east_trio(fp)
        nodes[1].alive = False  # id 2, rank 2
        nodes[1].energy = 0.0
        assert dr_select_chs(fp, nodes, 2)[2] == 4

    def test_single_alive_node_is_always_ch(self, fp):
        nodes = [make_node(9, 80.0, 55.0, fp)]
        for r in range(1, 8):
            assert dr_select_chs(fp, nodes, r)[2] == 9

    def test_empty_region_has_no_entry(self, fp):
        nodes = [make_node(9, 80.0, 55.0, fp, alive=False, energy=0.0)]
        assert 2 not in dr_select_chs(fp, nodes, 1)

    def test_central_and_corners_never_chs(self, fp):
        nodes = deployed_nodes(fp)
        chs = dr_select_chs(fp, nodes, 1)
        for region_id in chs:
            assert fp.region(region_id).kind is RegionKind.NON_CORNER

    def test_rotation_fairness_window(self, fp):
        nodes = self.east_trio(fp)
        served = [dr_select_chs(fp, nodes, r)[2] for r in (1, 2, 3)]
        assert sorted(served) == [2, 4, 7]

    def test_scale_invariance_of_ranking(self):
        # same layout on a field scaled 2.5x about the BS
        for scale in (1.0, 2.5):
            fp_s = build_partition(100.0 * scale, 3)
            nodes = [make_node(7, 78.0 * scale, 50.0 * scale, fp_s),
                     make_node(2, 70.0 * scale, 50.0 * scale, fp_s),
                     make_node(4, 75.0 * scale, 59.0 * scale, fp_s)]
            assert dr_select_chs(fp_s, nodes, 1)[2] == 7
            assert dr_select_chs(fp_s, nodes, 2)[2] == 2


class TestDrPlan:
    def test_fixed_ch_count(self, fp):
        nodes = deployed_nodes(fp)
        plan = dr_build_plan(fp, nodes, 1)
        assert len(plan.ch_next_hop) == 8
        assert len(plan.ch_assignments) == 8

    def test_central_nodes_send_to_bs(self, fp):
        nodes = deployed_nodes(fp)
        plan = dr_build_plan(fp, nodes, 1)
        for node in nodes:
            if fp.region(node.region).kind is RegionKind.CENTRAL:
                assert plan.memberships[node.id] is None

    def test_ncr_members_send_to_their_ch(self, fp):
        nodes = deployed_nodes(fp)
        plan = dr_build_plan(fp, nodes, 1)
        for node in nodes:
            region = fp.region(node.region)
            if region.kind is RegionKind.NON_CORNER and node.id not in plan.cluster_heads:
                assert plan.memberships[node.id] == plan.ch_assignments[region.id]

    def test_corner_nodes_choose_nearest_candidate(self, fp):
        nodes = deployed_nodes(fp)
        by_id = {nd.id: nd for nd in nodes}
        plan = dr_build_plan(fp, nodes, 1)
        for node in nodes:
            if fp.region(node.region).kind is not RegionKind.CORNER:
                continue
            dest = plan.memberships[node.id]
            dists = {None: node.pos.distance_to(fp.center)}
            for ncr_id in cr_neighbor_ncrs(node.region, fp):
                ch = plan.ch_assignments.get(ncr_id)
                if ch is not None:
                    dists[ch] = node.pos.distance_to(by_id[ch].pos)
            assert dest in dists
            assert dists[dest] <= min(dists.values()) + 1e-9

    def test_relay_chain_and_forest(self, fp):
        nodes = deployed_nodes(fp)
        plan = dr_build_plan(fp, nodes, 1)
        by_id = {nd.id: nd for nd in nodes}
        for ch_id, next_hop in plan.ch_next_hop.items():
            ring = fp.region(by_id[ch_id].region).ring
            if ring == 1:
                assert next_hop is None
            else:
                assert next_hop is not None
                inner = by_id[next_hop]
                assert fp.region(inner.region).ring == ring - 1
        # no cycles: follow every chain to the BS
        for ch_id in plan.ch_next_hop:
            seen = set()
            cur = ch_id
            while cur is not None:
                assert cur not in seen
                seen.add(cur)
                cur = plan.ch_next_hop[cur]

    def test_outer_ch_falls_back_to_bs(self, fp):
        nodes = deployed_nodes(fp)
        # kill everything in the East ring-1 NCR so the outer East CH has no
        # inward relay target
        for node in nodes:
            if node.region == 2:
                node.alive = False
                node.energy = 0.0
        plan = dr_build_plan(fp, nodes, 1)
        assert 2 not in plan.ch_assignments
        outer_east_ch = plan.ch_assignments[10]
        assert plan.ch_next_hop[outer_east_ch] is None

    def test_corner_distance_tie_resolved_by_energy(self, fp):
        # corner node on the NE diagonal, equidistant from two symmetric CHs
        nodes = [
            make_node(1, 80.0, 80.0, fp),            # NE ring-1 corner
            make_node(2, 78.0, 60.0, fp, energy=0.3),  # East NCR, sole node
            make_node(3, 60.0, 78.0, fp, energy=0.4),  # North NCR, sole node
        ]
        plan = dr_build_plan(fp, nodes, 1)
        assert plan.ch_assignments[2] == 2
        assert plan.ch_assignments[3] == 3
        d_e = nodes[0].pos.distance_to(nodes[1].pos)
        d_n = nodes[0].pos.distance_to(nodes[2].pos)
        assert d_e == pytest.approx(d_n, abs=1e-12)
        assert plan.memberships[1] == 3  # higher residual energy wins

    def test_field_corner_node_prefers_ch_over_bs(self, fp):
        nodes = deployed_nodes(fp, seed=5)
        by_id = {nd.id: nd for nd in nodes}
        corner_nodes = [nd for nd in nodes
                        if nd.pos.x > 90 and nd.pos.y > 90 and nd.region == 14]
        assert corner_nodes, "seed must place a node in the outer NE corner"
        plan = dr_build_plan(fp, nodes, 1)
        for node in corner_nodes:
            dest = plan.memberships[node.id]
            assert dest is not None
            assert (node.pos.distance_to(by_id[dest].pos)
                    < node.pos.distance_to(fp.center))

    def test_all_destinations_alive(self, fp):
        nodes = deployed_nodes(fp)
        for node in nodes[::3]:
            node.alive = False
            node.energy = 0.0
        plan = dr_build_plan(fp, nodes, 4)
        by_id = {nd.id: nd for nd in nodes}
        for dest in itertools.chain(plan.memberships.values(),
                                    plan.ch_next_hop.values()):
            assert dest is None or by_id[dest].alive


class TestLeach:
    def test_threshold_resets_each_epoch(self, fp):
        # at round 20 the modulus is 0, so the threshold is back to p and
        # previously-elected nodes are eligible again
        nodes = deployed_nodes(fp, seed=9, count=40)
        state = LeachState(0.05, np.random.default_rng(1))
        state.last_elected = {nd.id: 5 for nd in nodes}
        plan = leach_build_plan(nodes, 19, state)
        assert not plan.ch_next_hop  # everyone still locked out
        elected_over_epoch = set()
        for r in range(20, 40):
            elected_over_epoch |= leach_build_plan(nodes, r, state).cluster_heads
        assert elected_over_epoch  # the reset reopened eligibility

    def test_no_ch_round_falls_back_to_bs(self, fp):
        nodes = deployed_nodes(fp, seed=2, count=3)
        for seed in range(50):
            state = LeachState(0.05, np.random.default_rng(seed))
            plan = leach_build_plan(nodes, 1, state)
            if not plan.ch_next_hop:
                assert all(dest is None for dest in plan.memberships.values())
                assert len(plan.memberships) == 3
                return
        pytest.fail("no seed produced a CH-less round")

    def test_long_run_ch_rate_near_p(self, fp):
        nodes = deployed_nodes(fp, seed=21)
        state = LeachState(0.05, np.random.default_rng(77))
        counts = [len(leach_build_plan(nodes, r, state).ch_next_hop)
                  for r in range(1, 201)]
        mean = sum(counts) / len(counts)
        assert 0.05 * 100 * 0.8 <= mean <= 0.05 * 100 * 1.2

    def test_equal_energies_whose_mean_rounds_above_them(self, fp):
        nodes = deployed_nodes(fp, seed=18, count=30)
        for nd in nodes:
            nd.energy = 0.05
        assert np.mean([nd.energy for nd in nodes]) > 0.05
        plan = leach_c_build_plan(nodes, 1, 0.05)  # k = round(1.5) = 2
        assert len(plan.ch_next_hop) == 2
        assert set(plan.memberships) == {nd.id for nd in nodes} - plan.cluster_heads

    def test_members_join_nearest_ch(self, fp):
        nodes = deployed_nodes(fp, seed=4)
        by_id = {nd.id: nd for nd in nodes}
        state = LeachState(0.05, np.random.default_rng(4))
        plan = leach_build_plan(nodes, 1, state)
        if not plan.ch_next_hop:
            pytest.skip("degenerate CH-less round")
        for node_id, dest in plan.memberships.items():
            node = by_id[node_id]
            best = min(node.pos.distance_to(by_id[ch].pos)
                       for ch in plan.ch_next_hop)
            assert node.pos.distance_to(by_id[dest].pos) == pytest.approx(best)

    def test_dead_nodes_never_elected(self, fp):
        nodes = deployed_nodes(fp, seed=6)
        dead = {nd.id for nd in nodes[:50]}
        for nd in nodes[:50]:
            nd.alive = False
            nd.energy = 0.0
        state = LeachState(0.05, np.random.default_rng(6))
        for r in range(1, 60):
            plan = leach_build_plan(nodes, r, state)
            assert not plan.cluster_heads & dead


class TestLeachC:
    def test_single_ch_is_the_medoid(self, fp):
        rng = np.random.default_rng(13)
        nodes = [make_node(i, float(x), float(y), fp)
                 for i, (x, y) in enumerate(rng.uniform(5, 95, size=(20, 2)))]
        plan = leach_c_build_plan(nodes, 1, 0.05)  # k = max(1, round(1.0)) = 1
        assert len(plan.ch_next_hop) == 1
        chosen = next(iter(plan.ch_next_hop))
        # brute-force oracle: total squared distance over all single-CH choices
        def total_sq(candidate):
            return sum(candidate.pos.distance_to(nd.pos) ** 2 for nd in nodes)
        best = min(nodes, key=lambda nd: (total_sq(nd), nd.id))
        assert chosen == best.id

    def test_ch_count_formula(self, fp):
        nodes = deployed_nodes(fp, seed=8)
        plan = leach_c_build_plan(nodes, 1, 0.05)
        assert len(plan.ch_next_hop) == 5

    def test_below_mean_energy_never_ch(self, fp):
        nodes = deployed_nodes(fp, seed=12)
        for nd in nodes[:60]:
            nd.energy = 0.1  # below the mean of {0.1 x60, 0.5 x40}
        poor = {nd.id for nd in nodes[:60]}
        plan = leach_c_build_plan(nodes, 1, 0.05)
        assert not plan.cluster_heads & poor

    def test_equal_energies_whose_mean_rounds_above_them(self, fp):
        nodes = deployed_nodes(fp, seed=18, count=30)
        for nd in nodes:
            nd.energy = 0.05
        assert np.mean([nd.energy for nd in nodes]) > 0.05
        plan = leach_c_build_plan(nodes, 1, 0.05)  # k = round(1.5) = 2
        assert len(plan.ch_next_hop) == 2
        assert set(plan.memberships) == {nd.id for nd in nodes} - plan.cluster_heads

    def test_members_join_nearest_ch(self, fp):
        nodes = deployed_nodes(fp, seed=14)
        by_id = {nd.id: nd for nd in nodes}
        plan = leach_c_build_plan(nodes, 1, 0.05)
        for node_id, dest in plan.memberships.items():
            node = by_id[node_id]
            best = min(node.pos.distance_to(by_id[ch].pos)
                       for ch in plan.ch_next_hop)
            assert node.pos.distance_to(by_id[dest].pos) == pytest.approx(best)

    def test_all_chs_route_to_bs(self, fp):
        nodes = deployed_nodes(fp, seed=15)
        plan = leach_c_build_plan(nodes, 1, 0.05)
        assert all(nh is None for nh in plan.ch_next_hop.values())

    def test_dead_network_yields_empty_plan(self, fp):
        nodes = deployed_nodes(fp, seed=16, count=5)
        for nd in nodes:
            nd.alive = False
            nd.energy = 0.0
        plan = leach_c_build_plan(nodes, 1, 0.05)
        assert not plan.memberships and not plan.ch_next_hop

    # Co-located nodes: once each site has a CH, every remaining candidate
    # ties with the chosen ones at total 0, so a greedy step that does not
    # exclude chosen candidates elects one twice.
    @pytest.mark.parametrize("sites,count", [([(30.0, 30.0)], 40),
                                             ([(30.0, 30.0), (70.0, 60.0)], 60)])
    def test_co_located_nodes_give_distinct_chs(self, sites, count):
        state = make_state(SimConfig(node_count=count, protocol=ProtocolKind.LEACH_C))
        state.xs[:] = [sites[i % len(sites)][0] for i in range(count)]
        state.ys[:] = [sites[i % len(sites)][1] for i in range(count)]
        plan = LeachCPlanner(state).plan(1, list(range(count)))
        assert len(set(plan.chs)) == len(plan.chs) == len(sites) + 1  # k = round(0.05 N)
        expected = leach_c_build_plan(as_nodes(state.xs, state.ys, state.region,
                                               state.energy, state.alive), 1, 0.05)
        assert set(plan.chs) == expected.cluster_heads
        assert dict(zip(plan.members, plan.dests)) == expected.memberships

    def test_rejects_invalid_probability(self, fp):
        nodes = deployed_nodes(fp, seed=17, count=5)
        with pytest.raises(ValueError):
            leach_c_build_plan(nodes, 1, 0.0)
        with pytest.raises(ValueError):
            leach_c_build_plan(nodes, 1, 1.0)


def test_membership_covers_every_alive_non_ch(fp):
    nodes = deployed_nodes(fp, seed=30)
    plan = dr_build_plan(fp, nodes, 1)
    alive = {nd.id for nd in nodes if nd.alive}
    assert set(plan.memberships) == alive - plan.cluster_heads
