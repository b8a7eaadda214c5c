"""Machine data — Table I (case-study server) and Table II (processors).

Table II's columns are *derived* data: peak FP = frequency x cores x
SIMD width x (2 for fused multiply-add pipelines, 1 otherwise), plus an
optional on-package GPU contribution (the Ivy Bridge rows);
gamma_t = 1 / peakFP; gamma_e = TDP / peakFP; GFLOPS/W = peakFP / TDP.
We store the *inputs* and re-derive the printed columns (tests compare
against the paper's printed values to the precision it prints).

Table I seeds the full :class:`~repro.core.parameters.MachineParameters`
for the dual-socket Sandy Bridge ("Jaketown") server of Section VI. Its
published derived constants:

* gamma_e = TDP / peakFP = 150 / 396.8e9 = 3.78024e-10 J/flop
* gamma_t = 1 / peakFP = 2.5202e-12 s/flop
* beta_t = word bytes / link bytes-per-second = 4 / 25.6e9 = 1.5625e-10
  (the table's "Link BW 25.60" is GB/s for this to hold, as QPI's spec
  confirms)
* delta_e = DIMM power per socket / memory words = 8 x 3.1 W / 2^32
  = 5.7742e-9 J/word/s (note: consistent with 2^32 words, not the
  table's M = 2^34 — a known internal inconsistency of Table I, kept
  as printed and documented in EXPERIMENTS.md)
* beta_e: the paper states "time to send a message multiplied by the
  link power divided by the message length" = beta_t x 2.15 W
  = 3.359e-10 J/word, yet prints 3.78024e-10 (= gamma_e). We keep the
  printed value as canonical and expose the stated derivation as
  :func:`derive_beta_e`.
* alpha_e = 0, epsilon_e = 0 by assumption (Section VI).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.parameters import MachineParameters
from repro.exceptions import ParameterError

__all__ = [
    "ProcessorSpec",
    "PROCESSOR_TABLE",
    "JAKETOWN",
    "JAKETOWN_SPEC",
    "derive_peak_gflops",
    "derive_gamma_t",
    "derive_gamma_e",
    "derive_beta_t",
    "derive_beta_e",
    "derive_delta_e",
    "jaketown_machine",
    "default_machine",
]


@dataclass(frozen=True)
class ProcessorSpec:
    """One Table II row's inputs (+ printed outputs for validation)."""

    name: str
    freq_ghz: float
    cores: int
    simd: int
    tdp_watts: float
    fma_factor: int = 2  # 2 flops/cycle/lane (FMA), 1 for ARM NEON here
    # Optional on-package GPU (the Ivy Bridge rows): freq, units, simd.
    gpu_freq_ghz: float = 0.0
    gpu_units: int = 0
    gpu_simd: int = 0
    # Printed values from the paper, for regression tests.
    printed_peak_gflops: float = 0.0
    printed_gamma_t: float = 0.0
    printed_gamma_e: float = 0.0
    printed_gflops_per_watt: float = 0.0

    @property
    def peak_gflops(self) -> float:
        """freq x cores x simd x fma (+ GPU at factor 1), in GFLOP/s."""
        cpu = self.freq_ghz * self.cores * self.simd * self.fma_factor
        gpu = self.gpu_freq_ghz * self.gpu_units * self.gpu_simd
        return cpu + gpu

    @property
    def gamma_t(self) -> float:
        """Seconds per flop at peak."""
        return 1.0 / (self.peak_gflops * 1e9)

    @property
    def gamma_e(self) -> float:
        """Joules per flop at TDP (the paper's worst-case convention)."""
        return self.tdp_watts / (self.peak_gflops * 1e9)

    @property
    def gflops_per_watt(self) -> float:
        return self.peak_gflops / self.tdp_watts


#: Table II, in the paper's row order.
PROCESSOR_TABLE: tuple[ProcessorSpec, ...] = (
    ProcessorSpec(
        "Intel Sandy Bridge 2687W", 3.1, 8, 8, 150.0,
        printed_peak_gflops=396.80, printed_gamma_t=2.52e-12,
        printed_gamma_e=3.78e-10, printed_gflops_per_watt=2.645,
    ),
    ProcessorSpec(
        "Intel Ivy Bridge 3770K", 3.5, 4, 8, 77.0,
        gpu_freq_ghz=0.65, gpu_units=16, gpu_simd=8,
        printed_peak_gflops=307.20, printed_gamma_t=3.26e-12,
        printed_gamma_e=2.51e-10, printed_gflops_per_watt=3.990,
    ),
    ProcessorSpec(
        "Intel Ivy Bridge 3770T", 2.5, 4, 8, 45.0,
        gpu_freq_ghz=0.65, gpu_units=16, gpu_simd=8,
        printed_peak_gflops=243.20, printed_gamma_t=4.11e-12,
        printed_gamma_e=1.85e-10, printed_gflops_per_watt=5.404,
    ),
    ProcessorSpec(
        "Intel Westmere-EX E7-8870", 2.4, 10, 4, 130.0,
        printed_peak_gflops=192.00, printed_gamma_t=5.21e-12,
        printed_gamma_e=6.77e-10, printed_gflops_per_watt=1.477,
    ),
    ProcessorSpec(
        "Intel Beckton X7560", 2.26, 8, 4, 130.0,
        printed_peak_gflops=144.64, printed_gamma_t=6.91e-12,
        printed_gamma_e=8.99e-10, printed_gflops_per_watt=1.113,
    ),
    ProcessorSpec(
        "Intel Atom D2500", 1.86, 2, 4, 10.0,
        printed_peak_gflops=29.76, printed_gamma_t=3.36e-11,
        printed_gamma_e=3.36e-10, printed_gflops_per_watt=2.976,
    ),
    ProcessorSpec(
        "Intel Atom N2800", 1.86, 2, 4, 6.5,
        printed_peak_gflops=29.76, printed_gamma_t=3.36e-11,
        printed_gamma_e=2.18e-10, printed_gflops_per_watt=4.578,
    ),
    ProcessorSpec(
        "Nvidia GTX480", 1.401, 480, 1, 250.0,
        printed_peak_gflops=1344.96, printed_gamma_t=7.44e-13,
        printed_gamma_e=1.86e-10, printed_gflops_per_watt=5.380,
    ),
    ProcessorSpec(
        "Nvidia GTX590", 1.215, 1024, 1, 365.0,
        printed_peak_gflops=2488.32, printed_gamma_t=4.02e-13,
        printed_gamma_e=1.47e-10, printed_gflops_per_watt=6.817,
    ),
    ProcessorSpec(
        "ARM Cortex A9 (2.0 GHz)", 2.0, 2, 2, 1.9, fma_factor=1,
        printed_peak_gflops=8.00, printed_gamma_t=1.25e-10,
        printed_gamma_e=2.38e-10, printed_gflops_per_watt=4.211,
    ),
    ProcessorSpec(
        "ARM Cortex A9 (0.8 GHz)", 0.8, 2, 2, 0.5, fma_factor=1,
        printed_peak_gflops=3.20, printed_gamma_t=3.13e-10,
        printed_gamma_e=1.56e-10, printed_gflops_per_watt=6.400,
    ),
)


# ----------------------------------------------------------------------
# Table I — the Jaketown case-study server
# ----------------------------------------------------------------------

#: Table I inputs, verbatim.
JAKETOWN_SPEC: dict[str, float] = {
    "core_freq_ghz": 3.1,
    "simd_single": 8,
    "data_width_bytes": 4,
    "cores_per_node": 8,
    "peak_fp_gflops": 396.8,
    "memory_words": 17179869184.0,  # M (2^34)
    "max_message_words": 17179869184.0,  # m = M
    "chip_tdp_watts": 150.0,
    "link_bw_gbytes": 25.60,  # GB/s (printed "Gb/s"; see module docstring)
    "link_latency_s": 6.0e-08,
    "link_active_power_w": 2.15,
    "link_idle_power_w": 0.0,
    "dram_dimms_per_socket": 8,
    "dram_dimm_power_w": 3.1,
}

#: Table I printed model constants.
JAKETOWN: MachineParameters = MachineParameters(
    gamma_t=2.5202e-12,
    beta_t=1.56e-10,
    alpha_t=6.00e-08,
    gamma_e=3.78024e-10,
    beta_e=3.78024e-10,
    alpha_e=0.0,
    delta_e=5.7742e-9,
    epsilon_e=0.0,
    memory_words=17179869184.0,
    max_message_words=17179869184.0,
)


def derive_peak_gflops(freq_ghz: float, cores: int, simd: int, fma: int = 2) -> float:
    """Peak FP throughput in GFLOP/s (no GPU term)."""
    if freq_ghz <= 0 or cores < 1 or simd < 1 or fma < 1:
        raise ParameterError("all peak-FP inputs must be positive")
    return freq_ghz * cores * simd * fma


def derive_gamma_t(peak_gflops: float) -> float:
    """gamma_t = 1 / peak (s/flop)."""
    if peak_gflops <= 0:
        raise ParameterError(f"peak must be > 0, got {peak_gflops!r}")
    return 1.0 / (peak_gflops * 1e9)


def derive_gamma_e(tdp_watts: float, peak_gflops: float) -> float:
    """gamma_e = TDP / peak (J/flop) — the paper's worst-case choice."""
    if tdp_watts < 0 or peak_gflops <= 0:
        raise ParameterError("need TDP >= 0 and peak > 0")
    return tdp_watts / (peak_gflops * 1e9)


def derive_beta_t(word_bytes: float, link_gbytes_per_s: float) -> float:
    """beta_t = word size / link bandwidth (s/word)."""
    if word_bytes <= 0 or link_gbytes_per_s <= 0:
        raise ParameterError("need positive word size and bandwidth")
    return word_bytes / (link_gbytes_per_s * 1e9)


def derive_beta_e(beta_t: float, link_active_power_w: float) -> float:
    """The paper's stated rule: energy/word = transfer time x link power.

    Yields 3.359e-10 for Table I's inputs; the table prints 3.78024e-10
    (== gamma_e). Both are catalogued; see module docstring.
    """
    if beta_t < 0 or link_active_power_w < 0:
        raise ParameterError("need nonnegative beta_t and link power")
    return beta_t * link_active_power_w


def derive_delta_e(dimm_count: int, dimm_power_w: float, memory_words: float) -> float:
    """delta_e = total DRAM power / powered words (J/word/s)."""
    if dimm_count < 1 or dimm_power_w < 0 or memory_words <= 0:
        raise ParameterError("bad DRAM inputs")
    return dimm_count * dimm_power_w / memory_words


def jaketown_machine(**overrides: float) -> MachineParameters:
    """A copy of the Table I machine, optionally with fields overridden."""
    return JAKETOWN.replace(**overrides) if overrides else JAKETOWN


def default_machine() -> MachineParameters:
    """A neutral machine for count-driven time/energy estimation.

    Chosen so that compute, bandwidth and memory all contribute
    (epsilon_e = alpha_e = 0 like the paper's case study). Shared by
    the validation sweeps, the sweep engine's ``"default"`` machine and
    the ``repro trace`` CLI.
    """
    return MachineParameters(
        gamma_t=1e-9,
        beta_t=1e-8,
        alpha_t=1e-7,
        gamma_e=1e-9,
        beta_e=1e-8,
        alpha_e=0.0,
        delta_e=1e-9,
        epsilon_e=0.0,
        memory_words=float(2**30),
        max_message_words=float(2**30),
    )
