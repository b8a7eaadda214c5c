"""Machine data and the Section VI technology-scaling case study."""

from repro._lazy import lazy_exports

#: defining module -> the public names it provides, imported on first use
_EXPORTS = {
    "repro.machines.casestudy": (
        "CASE_STUDY_N",
        "CASE_STUDY_P",
        "crossover_generation_table",
        "efficiency_saturation_limit",
        "generations_to_target",
        "matmul_gflops_per_watt",
        "scale_parameters_independently",
        "scale_parameters_jointly",
    ),
    "repro.machines.catalog": (
        "JAKETOWN",
        "JAKETOWN_SPEC",
        "PROCESSOR_TABLE",
        "ProcessorSpec",
        "default_machine",
        "derive_beta_e",
        "derive_beta_t",
        "derive_delta_e",
        "derive_gamma_e",
        "derive_gamma_t",
        "derive_peak_gflops",
        "jaketown_machine",
    ),
    "repro.machines.presets": (
        "CLOUD",
        "CLUSTER",
        "EMBEDDED",
        "ENVIRONMENTS",
        "LatencyStudyRow",
        "lu_latency_environment_study",
    ),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "ProcessorSpec",
    "PROCESSOR_TABLE",
    "JAKETOWN",
    "JAKETOWN_SPEC",
    "jaketown_machine",
    "default_machine",
    "derive_peak_gflops",
    "derive_gamma_t",
    "derive_gamma_e",
    "derive_beta_t",
    "derive_beta_e",
    "derive_delta_e",
    "CASE_STUDY_N",
    "CASE_STUDY_P",
    "matmul_gflops_per_watt",
    "scale_parameters_independently",
    "scale_parameters_jointly",
    "generations_to_target",
    "efficiency_saturation_limit",
    "crossover_generation_table",
    "EMBEDDED",
    "CLUSTER",
    "CLOUD",
    "ENVIRONMENTS",
    "LatencyStudyRow",
    "lu_latency_environment_study",
]
