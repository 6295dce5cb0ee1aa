"""Domain types and stochastic primitives shared by the simulator and estimators.

Time is measured in minutes everywhere (float64 is far below microsecond
resolution over any realistic horizon); no wall-clock types appear inside
the simulation layer.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleParametersError, check_fields, integer, positive, share

class ExamClass(enum.Enum):
    """The three exam populations sharing one reading queue."""

    PE_POSITIVE = "pe_positive"
    NON_PE_POSITIVE = "non_pe_positive"
    NON_CHEST_CT = "non_chest_ct"


class Cohort(enum.Enum):
    WORK_HOUR = "work"
    OFF_HOUR = "off"


class QueueDiscipline(enum.Enum):
    """Reading order. AI_PRIORITY serves flagged exams ahead of all unflagged
    ones, first-in-first-out within each group, without preempting a read in
    progress. AI_PRIORITY_PREEMPTIVE adds preemptive-resume: a flagged exam
    that finds every reader busy interrupts the unflagged read whose exam
    arrived last, and the interrupted exam later resumes at the head of the
    unflagged queue with its remaining read time. A flagged exam never
    interrupts another flagged exam."""

    FIFO = "fifo"
    AI_PRIORITY = "ai_priority"
    AI_PRIORITY_PREEMPTIVE = "ai_priority_preemptive"


class ReaderRole(enum.Enum):
    RESIDENT = "resident"
    STAFF = "staff"
    FELLOW = "fellow"
    EMERGENCY_PHYSICIAN = "emergency_physician"


class Diagnosis(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    INDETERMINATE = "indeterminate"


class Location(enum.Enum):
    ED = "ed"
    INPATIENT = "inpatient"
    OUTPATIENT = "outpatient"


@dataclass(frozen=True)
class DeviceOperatingPoint:
    """True-positive fraction and queue-adjusted false-positive fraction of
    the triage device."""

    tpf: float
    fpf_adjusted: float

    def __post_init__(self) -> None:
        check_fields(self, share, "tpf", "fpf_adjusted")


@dataclass(frozen=True)
class WorkflowParams:
    """Complete parameter set for one stationary workload.

    Construction fails with InfeasibleParametersError unless per-radiologist
    utilization is strictly below 1, i.e. mean_interarrival must exceed
    mean_service_time(params) / n_radiologists.
    """

    prevalence: float
    mean_interarrival: float
    n_radiologists: int
    read_time_diseased: float
    read_time_nondiseased_effective: float
    device: DeviceOperatingPoint

    def __post_init__(self) -> None:
        check_fields(self, share, "prevalence")
        check_fields(self, integer, "n_radiologists", low=1)
        check_fields(
            self, positive, "mean_interarrival", "read_time_diseased", "read_time_nondiseased_effective"
        )
        if self.utilization >= 1.0:
            raise InfeasibleParametersError(
                f"utilization {self.utilization:.4f} >= 1: mean inter-arrival "
                f"{self.mean_interarrival} min cannot keep up with mean service "
                f"{mean_service_time(self):.4f} min across {self.n_radiologists} "
                "radiologists"
            )

    @property
    def utilization(self) -> float:
        """Offered load per radiologist (rho)."""
        return (mean_service_time(self) / self.mean_interarrival) / self.n_radiologists

    @property
    def flag_probability(self) -> float:
        """Marginal probability that an arriving exam carries an AI flag."""
        return (
            self.prevalence * self.device.tpf
            + (1.0 - self.prevalence) * self.device.fpf_adjusted
        )


def mean_service_time(params: WorkflowParams) -> float:
    """Prevalence-weighted mean read time across the two service populations."""
    return (
        params.prevalence * params.read_time_diseased
        + (1.0 - params.prevalence) * params.read_time_nondiseased_effective
    )


def trial_stream(master_seed: int, trial_index: int = 0) -> np.random.Generator:
    """Independent random stream for one trial.

    Streams are derived from a counter-based (Philox) generator keyed on
    (master_seed, trial_index), so trials are reproducible and independent of
    the order in which they run. Each is one 64-bit word of the key, an
    integer in [0, 2**64 - 1].
    """
    word = 2**64 - 1
    key = integer("master_seed", master_seed, high=word), integer("trial_index", trial_index, high=word)
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
