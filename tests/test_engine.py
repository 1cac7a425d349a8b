"""Differential check of the round engine behind `sim.run` against the
scalar reference loop in `reference.py`, and properties of the engine's
plans.

Both engines must agree exactly (`==` on floats): same distances, same
`radio` calls, same random draws and the same summation order.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drsim import sim
from drsim.geometry import Point, locate
from drsim.protocols import BS, ProtocolKind
from drsim.sim import Rounds, SimConfig, make_state, run
from reference import reference_run


def assert_same(config):
    series, summary = run(config)
    expected_series, expected_summary = reference_run(config)
    assert len(series) == len(expected_series)
    for got, want in zip(series, expected_series):
        assert got == want
    assert summary == expected_summary


# The benchmark's three workload shapes: the defaults to last death; N=400
# capped before the first death; N=400 on 8 rings, DR to last death and the
# baselines, which ignore the rings, for 50 rounds.
SHAPES = {
    "defaults": {},
    "dense": dict(node_count=400, max_rounds=200),
    "deep-rings": dict(node_count=400, n_rings=8),
}
DEEP_BASELINE_ROUNDS = 50


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda k: k.value)
@pytest.mark.parametrize("shape,seed", [("defaults", 1), ("defaults", 101),
                                        ("dense", 1), ("deep-rings", 7)])
def test_matches_reference_at_workload_shapes(kind, shape, seed):
    settings_ = dict(SHAPES[shape], protocol=kind, seed=seed)
    if shape == "deep-rings" and kind is not ProtocolKind.DR:
        settings_["max_rounds"] = DEEP_BASELINE_ROUNDS
    assert_same(SimConfig(**settings_))


# Small random configs. Every alive node spends at least bits * e_elec =
# 0.2 mJ a round, so their runs end within 100 rounds.
SMALL_CONFIGS = dict(
    node_count=st.integers(1, 60),
    n_rings=st.integers(2, 5),
    initial_energy=st.floats(1e-4, 0.02),
    # every probability SimConfig accepts: LEACH's epoch int(1/p) exists
    ch_probability=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    .filter(lambda p: math.isfinite(1 / p)),
    kind=st.sampled_from(list(ProtocolKind)),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**SMALL_CONFIGS)
def test_matches_reference_on_small_configs(node_count, n_rings, initial_energy,
                                            ch_probability, kind, seed):
    assert_same(SimConfig(node_count=node_count, n_rings=n_rings,
                          initial_energy=initial_energy,
                          ch_probability=ch_probability, protocol=kind,
                          seed=seed, max_rounds=3000))


def lattice_deploy(config, fp, rng):
    """Nodes on a square lattice that includes the field's edges and region
    boundaries: rosters, corner choices and nearest CHs all meet exact
    distance ties, and every LEACH-C energy starts equal (for N=121 at
    0.03 J, their computed mean rounds above them)."""
    side = math.ceil(math.sqrt(config.node_count))
    step = max(side - 1, 1)
    xs = [(i % side) * config.field_length / step for i in range(config.node_count)]
    ys = [(i // side) * config.field_length / step for i in range(config.node_count)]
    return xs, ys, [locate(Point(x, y), fp) for x, y in zip(xs, ys)]


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda k: k.value)
@pytest.mark.parametrize("node_count,n_rings", [(16, 2), (49, 3), (100, 3), (121, 5)])
def test_matches_reference_on_a_lattice(monkeypatch, kind, node_count, n_rings):
    monkeypatch.setattr(sim, "deploy", lattice_deploy)
    assert_same(SimConfig(node_count=node_count, n_rings=n_rings,
                          initial_energy=0.03, ch_probability=0.1,
                          protocol=kind, seed=5))


def assert_well_formed(plan, alive_ids, ring_of=None):
    """Who sends is alive, sends once, and reaches the BS without a loop."""
    members, dests, chs, next_hops = plan
    member_set, ch_set = set(members), set(chs)
    assert len(member_set) == len(members) and len(ch_set) == len(chs)
    assert not member_set & ch_set
    assert member_set | ch_set == set(alive_ids)
    assert all(dest == BS or dest in ch_set for dest in dests)
    hop = dict(zip(chs, next_hops))
    assert all(nxt == BS or (nxt in ch_set and nxt != ch) for ch, nxt in hop.items())
    for ch in chs:
        for _ in range(len(chs)):
            if ch == BS:
                break
            ch = hop[ch]
        assert ch == BS
    if ring_of is not None:
        assert all(hop[ch] == BS for ch in chs if ring_of(ch) == 1)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**SMALL_CONFIGS)
def test_plans_are_well_formed(node_count, n_rings, initial_energy,
                               ch_probability, kind, seed):
    config = SimConfig(node_count=node_count, n_rings=n_rings,
                       initial_energy=initial_energy,
                       ch_probability=ch_probability, protocol=kind,
                       seed=seed, max_rounds=3000)
    state = make_state(config)
    ring_of = None
    if kind is ProtocolKind.DR:
        def ring_of(i):
            return state.fp.region(state.region[i]).ring
    rounds = Rounds(state)
    for round_index in range(1, config.max_rounds + 1):
        if not rounds.alive_ids:
            break
        alive_ids = list(rounds.alive_ids)
        before = list(state.energy)
        plan, spent, _ = rounds.play(round_index)
        assert_well_formed(plan, alive_ids, ring_of)
        decrease = sum(b - a for b, a in zip(before, state.energy))
        assert spent == pytest.approx(decrease, abs=1e-12)
        assert state.alive_count() == len(rounds.alive_ids)

    series, summary = run(config)
    assert summary.fnd <= summary.hnd <= summary.lnd
    alives = [m.alive for m in series]
    assert all(a >= b for a, b in zip([node_count] + alives, alives))
    assert run(config) == (series, summary)
