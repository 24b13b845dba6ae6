"""The E-series registry: experiment id -> the function that runs it."""

from repro.experiments.ablations import (
    ablation_buffer_size,
    ablation_record_lifetime,
    experiment_e9,
    experiment_t1,
    experiment_t2,
    experiment_v1,
)
from repro.experiments.figures import (
    experiment_e1,
    experiment_e2,
    experiment_e3,
    experiment_e4,
    experiment_e5_e6,
    experiment_e7,
    experiment_e7_blocking,
    experiment_e8,
    experiment_e8b,
    experiment_e10,
    experiment_e11,
)

ALL_EXPERIMENTS = {
    "E1": experiment_e1,
    "E2": experiment_e2,
    "E3": experiment_e3,
    "E4": experiment_e4,
    "E5/E6": experiment_e5_e6,
    "E7": experiment_e7,
    "E7b": experiment_e7_blocking,
    "E8": experiment_e8,
    "E8b": experiment_e8b,
    "E9": experiment_e9,
    "E10": experiment_e10,
    "E11": experiment_e11,
    "T1": experiment_t1,
    "T2": experiment_t2,
    "V1": experiment_v1,
    "AB1": ablation_buffer_size,
    "AB2": ablation_record_lifetime,
}
