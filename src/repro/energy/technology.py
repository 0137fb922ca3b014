"""Technology parameters used by the bit-energy model.

Section 3 of the paper states that the switch energy per bit (``E_Sbit``)
"for different process technologies, voltage levels, operating frequencies"
is stored in the library, and that the link energy per bit (``E_Lbit``) is
derived from a per-unit-length figure plus the repeater overhead once the
actual link length is known from the floorplan.

This module provides a small catalogue of representative technology points
(:data:`TECHNOLOGIES`).
The absolute values follow the published bit-energy characterisations used by
the NoC mapping literature the paper builds on (Hu & Marculescu, DATE 2003
and the Eb profiles commonly quoted for 0.18 um / 0.13 um / 0.10 um nodes);
what matters for reproducing the paper is that both the mesh baseline and the
customized architecture are evaluated with the *same* technology point, so
the relative comparison is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import EnergyModelError
from repro.plugins import Registry


@dataclass(frozen=True)
class Technology:
    """One process/voltage/frequency operating point.

    Attributes
    ----------
    name:
        Identifier, e.g. ``"cmos_180nm"``.
    feature_size_nm:
        Drawn feature size in nanometres (informational).
    voltage:
        Supply voltage in volts.
    frequency_mhz:
        Network clock frequency in MHz (the paper's prototype runs at 100 MHz).
    switch_energy_pj_per_bit:
        ``E_Sbit``: energy to move one bit through one router (buffering,
        arbitration and crossbar traversal), in picojoules.
    link_energy_pj_per_bit_mm:
        ``E_Lbit`` per millimetre of wire, in picojoules per bit per mm,
        *excluding* repeaters.
    repeater_energy_pj_per_bit_mm:
        Additional energy contributed by repeaters per millimetre, in
        picojoules per bit per mm.
    repeater_spacing_mm:
        Distance between repeaters; links shorter than this need none.
    leakage_power_mw_per_router:
        Static power per router in milliwatts, charged for every cycle the
        router exists regardless of traffic (used by the power report).
    """

    name: str
    feature_size_nm: float
    voltage: float
    frequency_mhz: float
    switch_energy_pj_per_bit: float
    link_energy_pj_per_bit_mm: float
    repeater_energy_pj_per_bit_mm: float = 0.0
    repeater_spacing_mm: float = 2.0
    leakage_power_mw_per_router: float = 0.0

    def __post_init__(self) -> None:
        if self.frequency_mhz <= 0:
            raise EnergyModelError("frequency must be positive")
        if self.switch_energy_pj_per_bit < 0 or self.link_energy_pj_per_bit_mm < 0:
            raise EnergyModelError("energy figures must be non-negative")
        if self.repeater_spacing_mm <= 0:
            raise EnergyModelError("repeater spacing must be positive")

    @property
    def cycle_time_ns(self) -> float:
        """Clock period in nanoseconds."""
        return 1000.0 / self.frequency_mhz

    def scaled(self, voltage: float | None = None, frequency_mhz: float | None = None) -> "Technology":
        """Return a copy at a different voltage/frequency operating point.

        Dynamic energy scales with ``V^2``; leakage is scaled linearly with
        voltage as a first-order approximation.
        """
        new_voltage = self.voltage if voltage is None else voltage
        new_frequency = self.frequency_mhz if frequency_mhz is None else frequency_mhz
        if new_voltage <= 0:
            raise EnergyModelError("voltage must be positive")
        ratio = (new_voltage / self.voltage) ** 2
        return Technology(
            name=f"{self.name}@{new_voltage:.2f}V/{new_frequency:.0f}MHz",
            feature_size_nm=self.feature_size_nm,
            voltage=new_voltage,
            frequency_mhz=new_frequency,
            switch_energy_pj_per_bit=self.switch_energy_pj_per_bit * ratio,
            link_energy_pj_per_bit_mm=self.link_energy_pj_per_bit_mm * ratio,
            repeater_energy_pj_per_bit_mm=self.repeater_energy_pj_per_bit_mm * ratio,
            repeater_spacing_mm=self.repeater_spacing_mm,
            leakage_power_mw_per_router=self.leakage_power_mw_per_router
            * (new_voltage / self.voltage),
        )


# ----------------------------------------------------------------------
# catalogue
# ----------------------------------------------------------------------
CMOS_180NM = Technology(
    name="cmos_180nm",
    feature_size_nm=180.0,
    voltage=1.8,
    frequency_mhz=100.0,
    switch_energy_pj_per_bit=0.43,
    link_energy_pj_per_bit_mm=0.39,
    repeater_energy_pj_per_bit_mm=0.05,
    repeater_spacing_mm=2.0,
    leakage_power_mw_per_router=0.1,
)

CMOS_130NM = Technology(
    name="cmos_130nm",
    feature_size_nm=130.0,
    voltage=1.2,
    frequency_mhz=200.0,
    switch_energy_pj_per_bit=0.28,
    link_energy_pj_per_bit_mm=0.26,
    repeater_energy_pj_per_bit_mm=0.04,
    repeater_spacing_mm=1.5,
    leakage_power_mw_per_router=0.15,
)

CMOS_100NM = Technology(
    name="cmos_100nm",
    feature_size_nm=100.0,
    voltage=1.0,
    frequency_mhz=250.0,
    switch_energy_pj_per_bit=0.18,
    link_energy_pj_per_bit_mm=0.19,
    repeater_energy_pj_per_bit_mm=0.03,
    repeater_spacing_mm=1.0,
    leakage_power_mw_per_router=0.2,
)

FPGA_VIRTEX2 = Technology(
    name="fpga_virtex2",
    feature_size_nm=150.0,
    voltage=1.5,
    frequency_mhz=100.0,
    switch_energy_pj_per_bit=3.5,
    link_energy_pj_per_bit_mm=0.4,
    repeater_energy_pj_per_bit_mm=0.0,
    repeater_spacing_mm=4.0,
    leakage_power_mw_per_router=1.2,
)
"""Operating point emulating the paper's Virtex-2 (XC2V4000) prototype at 100 MHz.

On an FPGA the router logic (buffers, arbitration, crossbar built from LUTs
and flip-flops) dominates the per-hop energy while the short inter-tile
wires are comparatively cheap, hence the high switch-to-link energy ratio;
the static term models the clock tree and idle logic of the network fabric.
"""

#: the technology-point registry (plugin-fabric cell: the DSE
#: ``technology`` axis names an entry; third-party points register here,
#: directly or via the ``repro.plugins`` entry-point group)
TECHNOLOGIES: Registry[Technology] = Registry("technology")
for _technology in (CMOS_180NM, CMOS_130NM, CMOS_100NM, FPGA_VIRTEX2):
    TECHNOLOGIES.register(_technology.name, _technology)

DEFAULT_TECHNOLOGY = FPGA_VIRTEX2
