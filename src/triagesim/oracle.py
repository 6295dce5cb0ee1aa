"""Closed-form queueing results used to verify the simulator.

Covers the M/M/c delay probability (Erlang C), the FIFO mean queueing wait,
Cobham's mean waits for non-preemptive priority classes, and the mean waits
for preemptive-resume priority classes, all with one exponential service rate
shared by every class. The priority results are exact only under that shared
rate, which is how the simulator-agreement checks are set up.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import QueueDiscipline, WorkflowParams
from .errors import InfeasibleParametersError, ParameterError, check_fields, integer, non_negative, positive


def erlang_c(c: int, offered_load: float) -> float:
    """P(wait > 0) in an M/M/c queue with offered load a = lambda/mu.

    Uses the stable Erlang-B recurrence rather than factorials, so large
    server counts are fine.
    """
    c = integer("c", c, low=1)
    if non_negative("offered_load", offered_load) == 0.0:
        return 0.0
    rho = offered_load / c
    if rho >= 1.0:
        raise InfeasibleParametersError(
            f"offered load {offered_load} >= {c} servers: no steady state"
        )
    b = 1.0
    for k in range(1, c + 1):
        b = offered_load * b / (k + offered_load * b)
    return b / (1.0 - rho * (1.0 - b))


def mmc_fifo_wait(lam: float, mu: float, c: int) -> float:
    """Mean queueing wait Wq (minutes) for M/M/c under FIFO."""
    integer("c", c, low=1)
    positive("mu", mu)
    if non_negative("lam", lam) == 0.0:
        return 0.0
    return erlang_c(c, lam / mu) / (c * mu - lam)


@dataclass(frozen=True)
class PriorityLoad:
    """A priority workload with a common service rate.

    arrival_rates are per minute, highest-priority class first.
    """

    arrival_rates: tuple[float, ...]
    service_rate: float
    servers: int

    def __post_init__(self) -> None:
        if not self.arrival_rates:
            raise ParameterError("at least one class is required")
        for k, lam in enumerate(self.arrival_rates):
            non_negative(f"arrival_rates[{k}]", lam)
        check_fields(self, positive, "service_rate")
        check_fields(self, integer, "servers", low=1)
        total = sum(self.arrival_rates)
        if total / (self.servers * self.service_rate) >= 1.0:
            raise InfeasibleParametersError(
                "total load >= capacity: no steady state for this priority load"
            )

    @property
    def total_rate(self) -> float:
        return sum(self.arrival_rates)


def mmc_priority_wait(load: PriorityLoad) -> tuple[float, ...]:
    """Cobham mean queueing waits per class, highest priority first.

    Wq_k = W0 / ((1 - sigma_{k-1}) (1 - sigma_k)) with
    sigma_k the cumulative load of classes 1..k and
    W0 = ErlangC(c, lambda/mu) / (c mu).
    """
    c = load.servers
    mu = load.service_rate
    w0 = erlang_c(c, load.total_rate / mu) / (c * mu)
    waits = []
    sigma_prev = 0.0
    for lam in load.arrival_rates:
        sigma_k = sigma_prev + lam / (c * mu)
        waits.append(w0 / ((1.0 - sigma_prev) * (1.0 - sigma_k)))
        sigma_prev = sigma_k
    return tuple(waits)


def mmc_preemptive_priority_wait(load: PriorityLoad) -> tuple[float, ...]:
    """Preemptive-resume mean waits per class, highest priority first.

    The wait is all time in system not spent being read: queueing before the
    first start plus time suspended. With one exponential service rate, the
    number of class 1..k exams in system evolves as an M/M/c queue fed at the
    cumulative rate Lambda_k, since lower classes never delay them. Little's
    law per class then gives
    Wq_k = (Lambda_k Wq(Lambda_k) - Lambda_{k-1} Wq(Lambda_{k-1})) / lambda_k
    with Wq the M/M/c FIFO wait. A class with zero arrival rate below the top
    class has no exams and gets NaN; a zero-rate top class gets Wq(0) = 0.
    """
    c = load.servers
    mu = load.service_rate
    waits = []
    cum_prev = 0.0
    queue_prev = 0.0
    for lam in load.arrival_rates:
        cum = cum_prev + lam
        queue = cum * mmc_fifo_wait(cum, mu, c)
        if lam > 0:
            waits.append((queue - queue_prev) / lam)
        else:
            waits.append(0.0 if cum == 0.0 else float("nan"))
        cum_prev, queue_prev = cum, queue
    return tuple(waits)


def analytic_time_savings(
    params: WorkflowParams,
    equal_service_mean: float,
    discipline: QueueDiscipline = QueueDiscipline.AI_PRIORITY,
) -> float:
    """Mean TAT savings for diseased exams when both populations share one
    exponential service mean.

    Flagged exams form the high-priority class (arrival rate
    lambda * flag_probability); the diseased mean wait under priority is the
    TPF-weighted mixture of the two class waits, and the saving is measured
    against the FIFO wait. The class waits are Cobham's for AI_PRIORITY and
    the preemptive-resume waits for AI_PRIORITY_PREEMPTIVE.
    """
    positive("equal_service_mean", equal_service_mean)
    if discipline is QueueDiscipline.FIFO:
        raise ParameterError("discipline must be a priority discipline")
    lam = 1.0 / params.mean_interarrival
    mu = 1.0 / equal_service_mean
    c = params.n_radiologists
    lam_flagged = lam * params.flag_probability
    lam_plain = lam - lam_flagged
    fifo = mmc_fifo_wait(lam, mu, c)
    class_waits = (
        mmc_preemptive_priority_wait
        if discipline is QueueDiscipline.AI_PRIORITY_PREEMPTIVE
        else mmc_priority_wait
    )
    w_flagged, w_plain = class_waits(
        PriorityLoad(arrival_rates=(lam_flagged, lam_plain), service_rate=mu, servers=c)
    )
    tpf = params.device.tpf
    # A zero-weight term is skipped so that an empty class's NaN cannot leak in.
    terms = ((tpf, w_flagged), (1.0 - tpf, w_plain))
    diseased_priority_wait = sum(weight * wait for weight, wait in terms if weight > 0)
    return fifo - diseased_priority_wait
