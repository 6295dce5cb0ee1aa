"""Event-driven simulation of the reading queue.

One trial draws a complete patient stream (arrival gaps, disease labels, AI
flags, service durations) up front and then replays it through a
multi-server queue under a chosen discipline: FIFO, non-preemptive AI
priority, or preemptive-resume AI priority, where a flagged exam interrupts
an unflagged read in progress. Because the stream is attached to the exams
rather than to the servers, the same stream can be replayed under FIFO and
either priority ordering (common random numbers), which is how paired
time-savings are computed.

Two plain-Python kernels do the replay. FIFO needs only each reader's
free-at time, kept in a heap (the Kiefer-Wolfowitz workload recursion).
Both priority disciplines share an arrival-driven kernel: a heap of
(busy-until, exam) pairs and two queues, flagged and unflagged; preemption
is a slow path taken only when a flagged arrival finds every reader busy.
Inputs are read and outputs written through memoryviews of the numpy
arrays, so no per-exam Python list is built.
"""
from __future__ import annotations

import heapq
import math
import multiprocessing
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import QueueDiscipline, WorkflowParams, trial_stream
from .errors import ParameterError

def _serve_fifo(arrival, service, n_servers):
    # Kiefer-Wolfowitz recursion: a heap holds each reader's free-at time,
    # and exam i starts at the later of its arrival and the earliest of them.
    # Which reader takes an exam does not change any start time, so the
    # event tie rules of _serve_priority need no counterpart here.
    start = np.empty(len(arrival), np.float64)
    out = memoryview(start)
    free = [-math.inf] * n_servers
    for i, (t, s) in enumerate(zip(memoryview(arrival), memoryview(service))):
        first = free[0]
        t0 = t if t >= first else first
        out[i] = t0
        heapq.heapreplace(free, t0 + s)
    return start, np.zeros(len(arrival), np.float64)


def _serve_priority(arrival, service, flagged, n_servers, preempt):
    # Arrival-driven replay with flagged exams dispatched first. Before each
    # arrival, every completion at or before it is handled, so completions
    # come before arrivals at equal times; the heap of (busy_until, exam)
    # pairs hands out simultaneous completions lowest exam id first. A freed
    # reader immediately pulls from the queues, so no reader idles while
    # anyone waits.
    # With preempt, a flagged arrival that finds every reader busy takes the
    # reader of the in-service unflagged exam that arrived last (highest id);
    # that exam goes to the head of the unflagged queue and later resumes
    # with its remaining read time. Returns each exam's first start and its
    # total time spent suspended (0.0 unless it was interrupted).
    n = len(arrival)
    start = np.empty(n, np.float64)
    suspended = np.zeros(n, np.float64)
    arr, svc, flg = memoryview(arrival), memoryview(service), memoryview(flagged)
    out, susp = memoryview(start), memoryview(suspended)
    busy = []  # heap of (busy_until, exam)
    queue_flag = deque()
    queue_plain = deque()
    interrupted = {}  # exam -> (time it was interrupted, read time left)
    for i in range(n + 1):
        t = arr[i] if i < n else math.inf
        while busy and busy[0][0] <= t:
            t_done = busy[0][0]
            if queue_flag:
                nxt = queue_flag.popleft()
            elif queue_plain:
                nxt = queue_plain.popleft()
            else:
                heapq.heappop(busy)
                continue
            paused = interrupted.pop(nxt, None)
            if paused is None:
                out[nxt] = t_done
                heapq.heapreplace(busy, (t_done + svc[nxt], nxt))
            else:
                paused_at, left = paused
                susp[nxt] += t_done - paused_at
                heapq.heapreplace(busy, (t_done + left, nxt))
        if i == n:
            break
        if len(busy) < n_servers:
            out[i] = t
            heapq.heappush(busy, (t + svc[i], i))
        elif not flg[i]:
            queue_plain.append(i)
        else:
            victim = last = -1
            if preempt:
                for k, (_, e) in enumerate(busy):
                    if e > last and not flg[e]:
                        victim, last = k, e
            if victim < 0:
                queue_flag.append(i)
                continue
            until, e = busy[victim]
            interrupted[e] = (t, until - t)
            queue_plain.appendleft(e)
            out[i] = t
            busy[victim] = (t + svc[i], i)
            heapq.heapify(busy)
    return start, suspended


@dataclass(frozen=True)
class PatientStream:
    """Pre-drawn randomness for one trial, shared across disciplines.

    The draw order (arrival gaps, disease uniforms, flag uniforms, unit
    service draws) is part of the reproducibility contract; changing it
    changes every seeded result.
    """

    arrival: np.ndarray
    service: np.ndarray
    diseased: np.ndarray
    flagged: np.ndarray

    @property
    def n(self) -> int:
        return self.arrival.shape[0]


def generate_stream(
    params: WorkflowParams, n_patients: int, rng: np.random.Generator
) -> PatientStream:
    """Draw one complete patient stream of Poisson arrivals with labels,
    flags, and label-dependent exponential service durations."""
    if n_patients < 1:
        raise ParameterError(f"n_patients must be >= 1, got {n_patients}")
    gaps = rng.exponential(params.mean_interarrival, n_patients)
    arrival = np.cumsum(gaps)
    diseased = rng.random(n_patients) < params.prevalence
    p_flag = np.where(diseased, params.device.tpf, params.device.fpf_adjusted)
    flagged = rng.random(n_patients) < p_flag
    means = np.where(
        diseased, params.read_time_diseased, params.read_time_nondiseased_effective
    )
    service = rng.exponential(1.0, n_patients) * means
    return PatientStream(arrival, service, diseased, flagged)


@dataclass(frozen=True)
class ExamOutcomes:
    """Exam-level result of one replay: everything needed to audit the queue."""

    arrival: np.ndarray
    start: np.ndarray
    service: np.ndarray
    diseased: np.ndarray
    flagged: np.ndarray
    suspended: np.ndarray

    @property
    def wait(self) -> np.ndarray:
        """Time not being read: queueing before the first start plus any
        time spent interrupted."""
        return (self.start - self.arrival) + self.suspended

    @property
    def tat(self) -> np.ndarray:
        return self.wait + self.service

    @property
    def completion(self) -> np.ndarray:
        return self.start + self.suspended + self.service


@dataclass(frozen=True)
class SavingsEstimate:
    """Aggregated paired time-savings over replicated trials."""

    mean_savings: float
    range95: tuple[float, float]
    per_trial_savings: tuple[float, ...]
    n_trials: int

    def __post_init__(self) -> None:
        if self.range95[0] > self.range95[1]:
            raise ParameterError("range95 must be ordered (low, high)")


def replay_stream(
    stream: PatientStream, n_servers: int, discipline: QueueDiscipline
) -> ExamOutcomes:
    """Serve a pre-drawn stream through the queue under one discipline."""
    arrival = np.ascontiguousarray(stream.arrival, np.float64)
    service = np.ascontiguousarray(stream.service, np.float64)
    if discipline is QueueDiscipline.FIFO:
        start, suspended = _serve_fifo(arrival, service, int(n_servers))
    else:
        start, suspended = _serve_priority(
            arrival,
            service,
            np.ascontiguousarray(stream.flagged, np.bool_),
            int(n_servers),
            discipline is QueueDiscipline.AI_PRIORITY_PREEMPTIVE,
        )
    return ExamOutcomes(
        stream.arrival, start, stream.service, stream.diseased, stream.flagged, suspended
    )


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else float("nan")


def _paired_trial(
    params: WorkflowParams,
    n_patients: int,
    master_seed: int,
    index: int,
    burn_in: int,
    discipline: QueueDiscipline,
) -> float:
    """One paired replay: the mean TAT saving over the diseased exams after burn-in."""
    rng = trial_stream(master_seed, index)
    stream = generate_stream(params, n_patients, rng)
    fifo = replay_stream(stream, params.n_radiologists, QueueDiscipline.FIFO)
    prio = replay_stream(stream, params.n_radiologists, discipline)
    keep = slice(burn_in, None)
    diseased = stream.diseased[keep]
    tat_f = fifo.tat[keep][diseased]
    tat_p = prio.tat[keep][diseased]
    # Service draws are shared, so the TAT difference reduces to the wait
    # difference exam by exam.
    return _mean(tat_f - tat_p)


def run_replications(
    params: WorkflowParams,
    n_trials: int,
    n_patients: int,
    master_seed: int,
    burn_in: int = 0,
    workers: int = 1,
    discipline: QueueDiscipline = QueueDiscipline.AI_PRIORITY,
) -> SavingsEstimate:
    """Replicate paired FIFO / AI-priority trials and aggregate time-savings.

    Each trial replays one patient stream under FIFO and under the given
    priority discipline; the per-trial saving is the diseased-exam mean TAT
    difference. The first burn_in exams of each trial are replayed but left
    out of that mean. The reported range is the (2.5th, 97.5th) percentile of
    per-trial savings. Results are bit-identical for any worker count:
    streams depend only on (master_seed, trial_index) and aggregation follows
    trial order. With workers > 1, trials run in up to that many processes
    (never more than n_trials), started from a forkserver. That needs a POSIX
    platform, and a script that calls this at top level must put the call
    under ``if __name__ == "__main__":``, since each worker imports the
    caller's main module again.
    """
    if n_trials < 2:
        raise ParameterError(f"n_trials must be >= 2, got {n_trials}")
    if not 0 <= burn_in < n_patients:
        raise ParameterError(f"burn_in must be in [0, n_patients={n_patients}), got {burn_in}")
    if workers > 1 and "forkserver" not in multiprocessing.get_all_start_methods():
        raise ParameterError(
            f"workers={workers} needs the forkserver start method, which this "
            "platform lacks; use workers=1"
        )
    trial = partial(
        _paired_trial, params, n_patients, master_seed, burn_in=burn_in, discipline=discipline
    )
    if workers > 1:
        # The kernels are plain Python and hold the interpreter lock, so
        # trials fan out to processes; map() yields results in trial order.
        # Workers fork from a single-threaded server that has imported this
        # module once: a fresh import per worker (spawn) costs more CPU than
        # a sweep point's trials, and a plain fork of a threaded caller is
        # unsafe.
        ctx = multiprocessing.get_context("forkserver")
        ctx.set_forkserver_preload([__name__])
        with ProcessPoolExecutor(max_workers=min(workers, n_trials), mp_context=ctx) as pool:
            results = list(pool.map(trial, range(n_trials)))
    else:
        results = [trial(k) for k in range(n_trials)]
    savings = np.array(results)
    low, high = np.percentile(savings, [2.5, 97.5])
    return SavingsEstimate(
        mean_savings=float(savings.mean()),
        range95=(float(low), float(high)),
        per_trial_savings=tuple(float(s) for s in savings),
        n_trials=n_trials,
    )


def batch_mean_se(values: np.ndarray, n_batches: int = 25) -> float:
    """Standard error of a mean over autocorrelated simulation output.

    Splits the series into consecutive batches and uses the spread of batch
    means; this is the usual guard against the optimistic naive SE on
    queueing data.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ParameterError(f"batch_mean_se needs >= 2 values, got {values.size}")
    if values.size < 2 * n_batches:
        n_batches = max(2, values.size // 2)
    usable = (values.size // n_batches) * n_batches
    batches = values[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(batches.std(ddof=1) / np.sqrt(n_batches))
