import math

import pytest

from drsim.radio import RadioError, RadioParams, agg_energy, rx_energy, tx_energy

DEFAULTS = RadioParams()


class TestParams:
    def test_default_constants(self):
        assert DEFAULTS.e_elec == 50e-9
        assert DEFAULTS.e_da == 5e-9
        assert DEFAULTS.e_fs == 10e-12
        assert DEFAULTS.e_mp == 0.0013e-12

    def test_crossover_distance(self):
        assert DEFAULTS.d0 == pytest.approx(math.sqrt(10e-12 / 0.0013e-12))
        assert DEFAULTS.d0 == pytest.approx(87.7058, abs=1e-4)

    def test_rejects_non_positive_constants(self):
        with pytest.raises(RadioError):
            RadioParams(e_elec=0.0)
        with pytest.raises(RadioError):
            RadioParams(e_fs=-1e-12)

    @pytest.mark.parametrize("name", ["e_elec", "e_fs", "e_mp", "e_da"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_constants(self, name, value):
        with pytest.raises(RadioError, match=name):
            RadioParams(**{name: value})


class TestTxEnergy:
    def test_free_space_reference_value(self):
        # 4000 * (50e-9 + 10e-12 * 10^2)
        assert tx_energy(DEFAULTS, 4000, 10.0) == pytest.approx(2.04e-4, rel=1e-15)

    def test_zero_payload(self):
        assert tx_energy(DEFAULTS, 0, 35.0) == 0.0

    def test_branches_agree_at_crossover(self):
        d0 = DEFAULTS.d0
        free_space = DEFAULTS.e_elec + DEFAULTS.e_fs * d0 ** 2
        multipath = DEFAULTS.e_elec + DEFAULTS.e_mp * d0 ** 4
        assert free_space == pytest.approx(multipath, rel=1e-15)
        assert tx_energy(DEFAULTS, 1, d0) == pytest.approx(multipath, rel=1e-15)

    def test_continuity_at_crossover(self):
        d0, eps = DEFAULTS.d0, 1e-6
        below = tx_energy(DEFAULTS, 1, d0 - eps)
        above = tx_energy(DEFAULTS, 1, d0 + eps)
        assert below == pytest.approx(above, rel=1e-12)

    def test_crossover_uses_multipath_branch(self):
        d0 = DEFAULTS.d0
        assert tx_energy(DEFAULTS, 1, d0) == DEFAULTS.e_elec + DEFAULTS.e_mp * d0 ** 4

    @pytest.mark.parametrize("distance", [0.0, 5.0, 40.0, 87.0, 90.0, 300.0])
    def test_linear_in_bits(self, distance):
        one = tx_energy(DEFAULTS, 1000, distance)
        assert tx_energy(DEFAULTS, 2000, distance) == 2 * one

    def test_branch_matches_distance_regime(self):
        # d0 is where the amplifier terms cross: free space below, multipath
        # (the costlier term there) at and above.
        for distance in (1.0, 30.0, 87.0):
            fs = DEFAULTS.e_elec + DEFAULTS.e_fs * distance ** 2
            assert tx_energy(DEFAULTS, 1, distance) == fs
        for distance in (88.0, 150.0, 500.0):
            mp = DEFAULTS.e_elec + DEFAULTS.e_mp * distance ** 4
            assert tx_energy(DEFAULTS, 1, distance) == mp
            fs = DEFAULTS.e_elec + DEFAULTS.e_fs * distance ** 2
            assert mp > fs

    def test_monotone_in_both_arguments(self):
        distances = [0.0, 10.0, 50.0, 87.7, 88.0, 200.0]
        energies = [tx_energy(DEFAULTS, 4000, d) for d in distances]
        assert energies == sorted(energies)
        assert tx_energy(DEFAULTS, 5000, 10.0) > tx_energy(DEFAULTS, 4000, 10.0)

    def test_rejects_negative_inputs(self):
        with pytest.raises(RadioError):
            tx_energy(DEFAULTS, -1, 10.0)
        with pytest.raises(RadioError):
            tx_energy(DEFAULTS, 100, -0.5)


class TestRxEnergy:
    def test_reference_values(self):
        assert rx_energy(DEFAULTS, 4000) == pytest.approx(2.0e-4, rel=1e-15)
        assert rx_energy(DEFAULTS, 1) == pytest.approx(5.0e-8, rel=1e-15)
        assert rx_energy(DEFAULTS, 0) == 0.0

    def test_rejects_negative_bits(self):
        with pytest.raises(RadioError):
            rx_energy(DEFAULTS, -4000)


class TestAggEnergy:
    def test_reference_values(self):
        assert agg_energy(DEFAULTS, 4000, 10) == pytest.approx(2.0e-4, rel=1e-15)
        assert agg_energy(DEFAULTS, 4000, 0) == 0.0
        assert agg_energy(DEFAULTS, 1, 1) == DEFAULTS.e_da

    def test_rejects_negative_inputs(self):
        with pytest.raises(RadioError):
            agg_energy(DEFAULTS, -1, 1)
        with pytest.raises(RadioError):
            agg_energy(DEFAULTS, 4000, -2)
