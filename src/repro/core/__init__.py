"""Core analytic models — the paper's primary contribution.

Public surface:

* parameters — :class:`MachineParameters`, :class:`TwoLevelMachineParameters`
* costs — per-algorithm F/W/S expressions
* timing / energy — Eq. (1) and Eq. (2) evaluators + closed forms
* bounds — communication lower bounds (Section III)
* scaling — perfect strong scaling ranges and certificates
* optimize — Section V closed forms (n-body)
* optimize_numeric — the same questions for matmul/Strassen, numerically
* twolevel — Fig. 2 model, Eq. (12)/(17)
* power — P = E/T and budget inversions
"""

from repro._lazy import lazy_exports

# Eager: importing the repro.core.energy submodule would shadow a lazy ``energy``.
from repro.core.energy import energy

#: defining module -> the public names it provides, imported on first use
_EXPORTS = {
    "repro.core.bounds": (
        "matmul_memory_dependent_bound",
        "matmul_memory_independent_bound",
        "nbody_bandwidth_lower_bound",
        "parallel_bandwidth_lower_bound",
        "sequential_bandwidth_lower_bound",
        "sequential_latency_lower_bound",
        "strassen_memory_independent_bound",
    ),
    "repro.core.costs": (
        "OMEGA_STRASSEN",
        "AlgorithmCosts",
        "Classical2DMatMulCosts",
        "ClassicalMatMulCosts",
        "FFTCosts",
        "LU25DCosts",
        "NBodyCosts",
        "StrassenMatMulCosts",
    ),
    "repro.core.energy": (
        "EnergyBreakdown",
        "energy",
        "energy_fft",
        "energy_from_counts",
        "energy_matmul_25d",
        "energy_matmul_3d",
        "energy_nbody",
        "energy_strassen_flm",
        "energy_strassen_fum",
    ),
    "repro.core.codesign": (
        "CodesignProblem",
        "cheapest_conforming_machine",
        "efficiency",
        "feasible_scaling",
    ),
    "repro.core.heterogeneous": ("HeterogeneousMachine", "WorkAssignment"),
    "repro.core.optimize": ("NBodyOptimizer", "OptimalRun"),
    "repro.core.optimize_numeric": ("NumericOptimizer", "matmul_optimal_memory"),
    "repro.core.parameters": (
        "MachineParameters",
        "TwoLevelMachineParameters",
        "effective_beta",
    ),
    "repro.core.power": (
        "average_power",
        "max_p_under_total_power",
        "per_processor_power",
    ),
    "repro.core.scaling": (
        "PerfectScalingReport",
        "ScalingRange",
        "bandwidth_cost_times_p",
        "in_perfect_scaling_range",
        "perfect_scaling_range",
        "verify_perfect_scaling",
    ),
    "repro.core.timing": ("TimeBreakdown", "runtime", "runtime_from_counts"),
    "repro.core.twolevel": (
        "TwoLevelCounts",
        "matmul_twolevel_energy",
        "matmul_twolevel_time",
        "nbody_twolevel_energy",
        "nbody_twolevel_time",
        "twolevel_energy_from_counts",
        "twolevel_time_from_counts",
    ),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    # parameters
    "MachineParameters",
    "TwoLevelMachineParameters",
    "effective_beta",
    # costs
    "AlgorithmCosts",
    "ClassicalMatMulCosts",
    "Classical2DMatMulCosts",
    "StrassenMatMulCosts",
    "LU25DCosts",
    "NBodyCosts",
    "FFTCosts",
    "OMEGA_STRASSEN",
    # timing
    "TimeBreakdown",
    "runtime",
    "runtime_from_counts",
    # energy
    "EnergyBreakdown",
    "energy",
    "energy_from_counts",
    "energy_matmul_25d",
    "energy_matmul_3d",
    "energy_strassen_flm",
    "energy_strassen_fum",
    "energy_nbody",
    "energy_fft",
    # bounds
    "sequential_bandwidth_lower_bound",
    "sequential_latency_lower_bound",
    "parallel_bandwidth_lower_bound",
    "matmul_memory_dependent_bound",
    "matmul_memory_independent_bound",
    "strassen_memory_independent_bound",
    "nbody_bandwidth_lower_bound",
    # scaling
    "ScalingRange",
    "PerfectScalingReport",
    "perfect_scaling_range",
    "in_perfect_scaling_range",
    "bandwidth_cost_times_p",
    "verify_perfect_scaling",
    # optimize
    "NBodyOptimizer",
    "OptimalRun",
    "NumericOptimizer",
    "matmul_optimal_memory",
    # heterogeneous extension
    "HeterogeneousMachine",
    "WorkAssignment",
    # co-design (question 5 / Section VI)
    "CodesignProblem",
    "cheapest_conforming_machine",
    "efficiency",
    "feasible_scaling",
    # twolevel
    "TwoLevelCounts",
    "matmul_twolevel_time",
    "matmul_twolevel_energy",
    "nbody_twolevel_time",
    "nbody_twolevel_energy",
    "twolevel_time_from_counts",
    "twolevel_energy_from_counts",
    # power
    "average_power",
    "per_processor_power",
    "max_p_under_total_power",
]
