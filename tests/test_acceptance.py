"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The stability-ordering criterion (4) is asserted strictly; the line
it prints shows the measured medians next to the expected improvements.
"""

import math

import numpy as np
import pytest

from drsim import analytic, radio
from drsim.cli import main
from drsim.geometry import Point, RegionKind, build_partition, locate
from drsim.protocols import ProtocolKind
from drsim.sim import Rounds, SimConfig, experiment, make_state, run
from reference import Node, RoundPlan, SimState, dr_build_plan, run_round


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {number} {name}: {status}{suffix}")
    return ok


def test_c1_partition_correctness():
    ok = True
    for n in (2, 3, 4):
        fp = build_partition(100.0, n)
        d2 = fp.d ** 2
        ok &= len(fp.regions) == 8 * n - 7
        total = sum(r.bounds.area for r in fp.regions)
        ok &= abs(total - 100.0 ** 2) <= 1e-9 * 100.0 ** 2
        ok &= math.isclose(fp.regions[0].bounds.area, 4 * d2, rel_tol=1e-9)
        for r in fp.regions[1:]:
            if r.kind is RegionKind.CORNER:
                ok &= math.isclose(r.bounds.area, d2, rel_tol=1e-9)
            else:
                ok &= math.isclose(r.bounds.area, 2 * r.ring * d2, rel_tol=1e-9)
    assert report(1, "partition correctness", ok)


def test_c2_radio_model_values():
    params = radio.RadioParams()
    tx = radio.tx_energy(params, 4000, 10.0)
    rx = radio.rx_energy(params, 4000)
    ok = math.isclose(tx, 2.04e-4, rel_tol=1e-15)
    ok &= math.isclose(rx, 2.0e-4, rel_tol=1e-15)
    d0 = params.d0
    ok &= math.isclose(d0, math.sqrt(params.e_fs / params.e_mp), rel_tol=1e-15)
    # the two amplifier laws agree at the crossover distance
    ok &= math.isclose(params.e_fs * d0 ** 2, params.e_mp * d0 ** 4,
                       rel_tol=1e-12)
    below = radio.tx_energy(params, 1, d0 * (1 - 1e-9))
    above = radio.tx_energy(params, 1, d0 * (1 + 1e-9))
    ok &= math.isclose(below, above, rel_tol=1e-8)
    assert report(2, "radio model values", ok,
                  f"tx={tx:.6e} rx={rx:.6e} d0={d0:.4f}")


def test_c3_fixed_ch_count():
    ok = True
    for seed in range(1, 11):
        state = make_state(SimConfig(seed=seed))
        rounds = Rounds(state)
        ncr_ids = [r.id for r in state.fp.regions
                   if r.kind is RegionKind.NON_CORNER]
        for round_index in range(1, state.config.max_rounds + 1):
            alive_per_ncr = {rid: 0 for rid in ncr_ids}
            for i, region_id in enumerate(state.region):
                if state.alive[i] and region_id in alive_per_ncr:
                    alive_per_ncr[region_id] += 1
            if min(alive_per_ncr.values()) == 0 or not rounds.alive_ids:
                break
            plan, _, _ = rounds.play(round_index)
            ok &= len(plan.chs) == 8
    assert report(3, "fixed DR CH count (8 per round, 10 seeds)", ok)


def test_c4_stability_ordering():
    result = experiment(SimConfig(seed=1, runs=50))
    med = {k: result.aggregates[k]["fnd"]["median"] for k in
           (ProtocolKind.DR, ProtocolKind.LEACH, ProtocolKind.LEACH_C)}
    vs_leach = result.improvements[(ProtocolKind.DR, ProtocolKind.LEACH)]
    vs_leach_c = result.improvements[(ProtocolKind.DR, ProtocolKind.LEACH_C)]
    detail = (f"median FND dr={med[ProtocolKind.DR]:.0f} "
              f"leach-c={med[ProtocolKind.LEACH_C]:.0f} "
              f"leach={med[ProtocolKind.LEACH]:.0f}; "
              f"DR vs LEACH {vs_leach['median']:+.2f}% (expected +28.63%), "
              f"DR vs LEACH-C {vs_leach_c['median']:+.2f}% (expected +12.31%)")
    ok = (med[ProtocolKind.DR] > med[ProtocolKind.LEACH_C]
          > med[ProtocolKind.LEACH])
    assert report(4, "stability ordering over 50 seeds", ok, detail)


def test_c5_energy_ledger():
    ok = True
    for kind in (ProtocolKind.DR, ProtocolKind.LEACH, ProtocolKind.LEACH_C):
        cfg = SimConfig(seed=1, protocol=kind)
        state = make_state(cfg)
        rounds = Rounds(state)
        cumulative = 0.0
        for round_index in range(1, cfg.max_rounds + 1):
            if not rounds.alive_ids:
                break
            before = list(state.energy)
            _, spent, _ = rounds.play(round_index)
            decrease = sum(b - a for b, a in zip(before, state.energy))
            ok &= abs(spent - decrease) <= 1e-12
            cumulative += spent
        ok &= cumulative <= cfg.node_count * cfg.initial_energy + 1e-12
    assert report(5, "energy ledger identity", ok)


# exact expected population of every region for the cross-check deployment
_CROSSCHECK_POPS = {1: 40, 2: 20, 3: 20, 4: 20, 5: 20, 6: 10, 7: 10, 8: 10,
                    9: 10, 10: 40, 11: 40, 12: 40, 13: 40, 14: 10, 15: 10,
                    16: 10, 17: 10}


def _stratified_nodes(fp, rng):
    """Deployment whose region populations equal their density expectations
    exactly (rho * area integral for every region at 360 nodes)."""
    nodes = []
    node_id = 0
    for region_id, count in _CROSSCHECK_POPS.items():
        bounds = fp.region(region_id).bounds
        for _ in range(count):
            pos = Point(float(rng.uniform(bounds.min_corner.x, bounds.max_corner.x)),
                        float(rng.uniform(bounds.min_corner.y, bounds.max_corner.y)))
            assert locate(pos, fp) == region_id
            nodes.append(Node(node_id, pos, 100.0, True, region_id))
            node_id += 1
    return nodes


def test_c6_analytic_cross_check():
    fp = build_partition(100.0, 3)
    rng = np.random.default_rng(5)
    nodes = _stratified_nodes(fp, rng)
    cfg = SimConfig(node_count=360, initial_energy=100.0)
    state = SimState(cfg, fp, nodes, rng)

    plan = dr_build_plan(fp, nodes, 1)
    # no-relay mode: every CH transmits straight to the BS
    no_relay = RoundPlan(1, plan.ch_assignments, plan.memberships,
                         {ch: None for ch in plan.ch_next_hop})
    distance = 20.0
    breakdown = {}
    run_round(state, no_relay, fixed_distance=distance, compress=False,
              breakdown=breakdown)

    # realized corner-association fraction per ring
    picks = {1: 0, 2: 0}
    for nd in nodes:
        region = fp.region(nd.region)
        if (region.kind is RegionKind.CORNER
                and no_relay.memberships[nd.id] is not None):
            picks[region.ring] += 1
    p1, p2 = picks[1] / 40, picks[2] / 40

    params, bits = cfg.radio, cfg.packet_bits
    t = radio.tx_energy(params, bits, distance)
    r = radio.rx_energy(params, bits)
    rho, d = 360 / 100.0 ** 2, 100.0 / 6.0
    a = rho * d ** 2

    def inputs(p_cr, phi):
        return analytic.AnalyticInputs(rho, d, p_cr, bits, lambda _d: t, r, phi)

    terms_ms = analytic.ring_energy_terms(
        inputs(p1, params.e_da * bits * (2 * a + p1 * a)), 2, distance)
    terms_os = analytic.ring_energy_terms(
        inputs(p2, params.e_da * bits * (4 * a + p2 * a)), 4, distance)

    pairs = [
        ("inner square", analytic.e_inner_square(inputs(0, 0), distance),
         breakdown[(0, "direct_bs_tx")]),
        ("ring-1 CR to BS", 4 * analytic.e_corner_regions(inputs(p1, 0), distance),
         breakdown.get((1, "cr_bs_tx"), 0.0)),
        ("ring-2 CR to BS", 4 * analytic.e_corner_regions(inputs(p2, 0), distance),
         breakdown.get((2, "cr_bs_tx"), 0.0)),
        ("M_s members", 4 * terms_ms.member_tx_per_ncr,
         breakdown[(1, "member_tx")]),
        ("M_s CH tx+agg", terms_ms.all_ch_tx,
         breakdown[(1, "ch_tx")] + breakdown[(1, "ch_agg")]),
        ("M_s CH rx", terms_ms.all_ch_rx, breakdown[(1, "ch_rx")]),
        ("O_s members", 4 * terms_os.member_tx_per_ncr,
         breakdown[(2, "member_tx")]),
        ("O_s CH tx+agg", terms_os.all_ch_tx,
         breakdown[(2, "ch_tx")] + breakdown[(2, "ch_agg")]),
        ("O_s CH rx", terms_os.all_ch_rx, breakdown[(2, "ch_rx")]),
    ]
    ok = True
    worst = 0.0
    for name, closed, simulated in pairs:
        if closed == 0.0:
            ok &= simulated == 0.0
            continue
        rel = abs(simulated - closed) / closed
        worst = max(worst, rel)
        ok &= rel <= 0.02
    assert report(6, "analytic oracle cross-check", ok,
                  f"worst relative error {worst:.2e}, P1={p1:.2f} P2={p2:.2f}")


def test_c7_single_node_oracle():
    for seed in range(100):
        cfg = SimConfig(node_count=1, seed=seed, max_rounds=20000)
        state = make_state(cfg)
        if state.fp.region(state.region[0]).kind is RegionKind.CENTRAL:
            break
    else:
        pytest.fail("no seed placed the single node centrally")
    per_round = radio.tx_energy(cfg.radio, cfg.packet_bits,
                                Point(state.xs[0], state.ys[0]).distance_to(cfg.bs))
    expected = math.floor(cfg.initial_energy / per_round)
    _, summary = run(cfg)
    ok = abs(summary.lnd - expected) <= 1
    assert report(7, "single-node lifetime oracle", ok,
                  f"survived {summary.lnd}, expected {expected} +/- 1")


def test_c8_compare_determinism(tmp_path):
    args = ["--set", "node_count=40", "--set", "max_rounds=400",
            "--set", "runs=4", "--set", "seed=11",
            "--set", "initial_energy=0.05"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["compare", "--out", str(out_a)] + args) == 0
    assert main(["compare", "--out", str(out_b)] + args) == 0
    ok = ((out_a / "experiment.csv").read_bytes()
          == (out_b / "experiment.csv").read_bytes())
    ok &= ((out_a / "compare_summary.txt").read_bytes()
           == (out_b / "compare_summary.txt").read_bytes())
    assert report(8, "compare reruns byte-identical", ok)
