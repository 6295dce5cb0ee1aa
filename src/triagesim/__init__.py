"""triagesim: queueing simulation and estimation for AI-triage worklist
prioritization.

Predicts the mean report turnaround-time savings an AI-triage device yields
for diseased exams, with every workflow parameter estimable from raw
timestamp logs and every simulated result checkable against closed-form
queueing theory.
"""

__version__ = "0.1.0"

from .core import (
    Cohort,
    DeviceOperatingPoint,
    Diagnosis,
    ExamClass,
    Location,
    QueueDiscipline,
    ReaderRole,
    WorkflowParams,
    mean_service_time,
    trial_stream,
)
from .errors import (
    FormatError,
    InfeasibleParametersError,
    InsufficientDataError,
    ParameterError,
    TriageSimError,
)
from .oracle import (
    PriorityLoad,
    analytic_time_savings,
    erlang_c,
    mmc_fifo_wait,
    mmc_preemptive_priority_wait,
    mmc_priority_wait,
)
from .roc import BinormalRoc, auc, fit_from_point, roc_tpf, sample_operating_points
from .simulator import SavingsEstimate, run_replications
from .stats import tat_summary, time_savings_test

__all__ = [
    "__version__",
    "BinormalRoc",
    "Cohort",
    "DeviceOperatingPoint",
    "Diagnosis",
    "ExamClass",
    "FormatError",
    "InfeasibleParametersError",
    "InsufficientDataError",
    "Location",
    "ParameterError",
    "PriorityLoad",
    "QueueDiscipline",
    "ReaderRole",
    "SavingsEstimate",
    "TriageSimError",
    "WorkflowParams",
    "analytic_time_savings",
    "auc",
    "erlang_c",
    "fit_from_point",
    "mean_service_time",
    "mmc_fifo_wait",
    "mmc_preemptive_priority_wait",
    "mmc_priority_wait",
    "roc_tpf",
    "run_replications",
    "sample_operating_points",
    "tat_summary",
    "time_savings_test",
    "trial_stream",
]
