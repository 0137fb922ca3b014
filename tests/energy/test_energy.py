"""Unit tests for technologies, the Equation-1 bit-energy model and power accounting."""

from __future__ import annotations

import pytest

from repro.energy import (
    BitEnergyModel,
    EnergyAccount,
    LinkEnergyModel,
    TECHNOLOGIES,
    Technology,
    energy_per_block_from_power,
)
from repro.energy.technology import CMOS_100NM, CMOS_180NM, FPGA_VIRTEX2
from repro.exceptions import EnergyModelError, UnknownPluginError


class TestTechnology:
    def test_catalogue_lookup(self):
        assert "fpga_virtex2" in TECHNOLOGIES.names()
        assert TECHNOLOGIES.get("cmos_180nm") is CMOS_180NM
        with pytest.raises(UnknownPluginError):
            TECHNOLOGIES.get("nonexistent")

    def test_cycle_time(self):
        assert FPGA_VIRTEX2.cycle_time_ns == pytest.approx(10.0)  # 100 MHz
        assert CMOS_100NM.cycle_time_ns == pytest.approx(4.0)  # 250 MHz

    def test_invalid_parameters_rejected(self):
        with pytest.raises(EnergyModelError):
            Technology("bad", 90, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(EnergyModelError):
            Technology("bad", 90, 1.0, 100.0, -1.0, 1.0)
        with pytest.raises(EnergyModelError):
            Technology("bad", 90, 1.0, 100.0, 1.0, 1.0, repeater_spacing_mm=0)

    def test_voltage_scaling_is_quadratic(self):
        half_voltage = CMOS_180NM.scaled(voltage=CMOS_180NM.voltage / 2)
        assert half_voltage.switch_energy_pj_per_bit == pytest.approx(
            CMOS_180NM.switch_energy_pj_per_bit / 4
        )
        assert half_voltage.link_energy_pj_per_bit_mm == pytest.approx(
            CMOS_180NM.link_energy_pj_per_bit_mm / 4
        )

    def test_scaled_rejects_nonpositive_voltage(self):
        with pytest.raises(EnergyModelError):
            CMOS_180NM.scaled(voltage=0)


class TestLinkEnergyModel:
    def test_energy_linear_in_length(self):
        model = LinkEnergyModel(CMOS_180NM)
        assert model.link_energy_pj(2.0) == pytest.approx(2 * model.link_energy_pj(1.0))

    def test_repeater_count(self):
        model = LinkEnergyModel(CMOS_180NM)  # spacing 2 mm
        assert model.repeaters_needed(1.0) == 0
        assert model.repeaters_needed(2.0) == 0
        assert model.repeaters_needed(4.0) == 1
        assert model.repeaters_needed(7.0) == 3

    def test_repeaters_add_energy(self):
        with_repeaters = LinkEnergyModel(CMOS_180NM).link_energy_pj(6.0)
        no_repeater_tech = Technology(
            "no_rep", 180, 1.8, 100, CMOS_180NM.switch_energy_pj_per_bit,
            CMOS_180NM.link_energy_pj_per_bit_mm, 0.0, 2.0,
        )
        without = LinkEnergyModel(no_repeater_tech).link_energy_pj(6.0)
        assert with_repeaters > without

    def test_negative_length_rejected(self):
        model = LinkEnergyModel(CMOS_180NM)
        with pytest.raises(EnergyModelError):
            model.link_energy_pj(-1.0)
        with pytest.raises(EnergyModelError):
            model.repeaters_needed(-1.0)


class TestBitEnergyModel:
    def test_equation1_uniform_form(self):
        model = BitEnergyModel(CMOS_180NM)
        n_hops = 3
        length = 2.0
        expected = (
            n_hops * CMOS_180NM.switch_energy_pj_per_bit
            + (n_hops - 1) * LinkEnergyModel(CMOS_180NM).link_energy_pj(length)
        )
        assert model.bit_energy_uniform(n_hops, length) == pytest.approx(expected)

    def test_equation1_per_link_form_matches_uniform(self):
        model = BitEnergyModel(CMOS_180NM)
        assert model.bit_energy_for_lengths([2.0, 2.0]) == pytest.approx(
            model.bit_energy_uniform(3, 2.0)
        )

    def test_single_hop_minimum(self):
        model = BitEnergyModel(CMOS_180NM)
        with pytest.raises(EnergyModelError):
            model.bit_energy_uniform(0, 1.0)
        assert model.min_bit_energy() == pytest.approx(
            2 * CMOS_180NM.switch_energy_pj_per_bit
        )

    def test_transfer_energy_scales_with_volume(self):
        model = BitEnergyModel(CMOS_180NM)
        one_bit = model.transfer_energy_pj(1, [2.0])
        assert model.transfer_energy_pj(128, [2.0]) == pytest.approx(128 * one_bit)
        with pytest.raises(EnergyModelError):
            model.transfer_energy_pj(-1, [2.0])

    def test_more_hops_cost_more(self):
        model = BitEnergyModel(FPGA_VIRTEX2)
        assert model.bit_energy_for_lengths([2.0, 2.0]) > model.bit_energy_for_lengths([2.0])


class TestEnergyAccount:
    def test_switch_and_link_charging(self):
        account = EnergyAccount(technology=CMOS_180NM)
        account.charge_switch(100)
        account.charge_link(100, 2.0)
        assert account.switch_energy_pj == pytest.approx(
            100 * CMOS_180NM.switch_energy_pj_per_bit
        )
        assert account.link_energy_pj == pytest.approx(
            100 * LinkEnergyModel(CMOS_180NM).link_energy_pj(2.0)
        )
        assert account.total_energy_pj == pytest.approx(
            account.switch_energy_pj + account.link_energy_pj
        )

    def test_charge_hop_is_switch_plus_link(self):
        account = EnergyAccount(technology=CMOS_180NM)
        account.charge_hop(10, 1.0)
        reference = EnergyAccount(technology=CMOS_180NM)
        reference.charge_switch(10)
        reference.charge_link(10, 1.0)
        assert account.total_energy_pj == pytest.approx(reference.total_energy_pj)

    def test_leakage_charging(self):
        account = EnergyAccount(technology=FPGA_VIRTEX2)
        account.charge_leakage(num_routers=16, num_cycles=100)
        expected_pj = 1.2 * 16 * 100 * 10.0  # mW * cycles * ns
        assert account.leakage_energy_pj == pytest.approx(expected_pj)

    def test_negative_charges_rejected(self):
        account = EnergyAccount()
        with pytest.raises(EnergyModelError):
            account.charge_switch(-1)
        with pytest.raises(EnergyModelError):
            account.charge_link(-1, 1.0)
        with pytest.raises(EnergyModelError):
            account.charge_leakage(-1, 10)

    def test_average_power(self):
        account = EnergyAccount(technology=FPGA_VIRTEX2)
        account.charge_switch(1000)
        cycles = 100
        expected_mw = account.total_energy_pj / (cycles * FPGA_VIRTEX2.cycle_time_ns)
        assert account.average_power_mw(cycles) == pytest.approx(expected_mw)
        with pytest.raises(EnergyModelError):
            account.average_power_mw(0)

    def test_energy_per_block(self):
        account = EnergyAccount(technology=FPGA_VIRTEX2)
        account.charge_switch(10_000)
        per_block = account.energy_per_block_uj(cycles_per_block=100, num_blocks=4)
        assert per_block == pytest.approx(account.total_energy_uj / 4)
        with pytest.raises(EnergyModelError):
            account.energy_per_block_uj(100, 0)

    def test_summary_keys(self):
        account = EnergyAccount()
        summary = account.summary()
        assert set(summary) == {
            "switch_energy_pj",
            "link_energy_pj",
            "leakage_energy_pj",
            "total_energy_pj",
        }


class TestPaperEnergyFormula:
    def test_energy_per_block_from_power_matches_paper_numbers(self):
        """E = delta / f * P_avg: the paper's mesh point (271 cycles, 100 MHz)
        at 5.1 uJ/block implies ~1.9 W average power; check the round trip."""
        implied_power_mw = 5.1 / (271 / 100.0) * 1000.0
        energy = energy_per_block_from_power(271, 100.0, implied_power_mw)
        assert energy == pytest.approx(5.1, rel=1e-6)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(EnergyModelError):
            energy_per_block_from_power(100, 0.0, 10.0)
