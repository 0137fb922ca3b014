"""Energy models: technology points, Equation-1 bit energy, link model, power.

Public entry points:

* :class:`repro.energy.technology.Technology` and the shipped catalogue
  (:data:`TECHNOLOGIES`: :data:`CMOS_180NM`, :data:`FPGA_VIRTEX2`, ...),
* :class:`repro.energy.bit_energy.BitEnergyModel` — Equation 1,
* :class:`repro.energy.link_model.LinkEnergyModel` — length/repeater-aware
  ``E_Lbit``,
* :class:`repro.energy.power.EnergyAccount` — traffic-driven energy/power
  accounting used by the simulator-based comparisons.
"""

from repro.energy.bit_energy import BitEnergyModel
from repro.energy.link_model import LinkEnergyModel
from repro.energy.power import EnergyAccount, energy_per_block_from_power
from repro.energy.technology import (
    CMOS_100NM,
    CMOS_130NM,
    CMOS_180NM,
    DEFAULT_TECHNOLOGY,
    FPGA_VIRTEX2,
    TECHNOLOGIES,
    Technology,
)

__all__ = [
    "BitEnergyModel",
    "LinkEnergyModel",
    "EnergyAccount",
    "energy_per_block_from_power",
    "Technology",
    "TECHNOLOGIES",
    "CMOS_100NM",
    "CMOS_130NM",
    "CMOS_180NM",
    "FPGA_VIRTEX2",
    "DEFAULT_TECHNOLOGY",
]
