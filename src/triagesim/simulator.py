"""Event-driven simulation of the reading queue.

One trial draws a complete patient stream (arrival gaps, disease labels, AI
flags, service durations) up front and then replays it through a
multi-server queue under a chosen discipline: FIFO, non-preemptive AI
priority, or preemptive-resume AI priority, where a flagged exam interrupts
an unflagged read in progress. Because the stream is attached to the exams
rather than to the servers, the same stream can be replayed under FIFO and
either priority ordering (common random numbers), which is how paired
time-savings are computed.

One plain-Python kernel does the replay, with no JIT or compiled extension.
It dispatches exams in the order their reads begin, keeping only each
reader's free-at time in a heap: an exam starts at the later of its arrival
and the earliest free-at time tau (the Kiefer-Wolfowitz recursion; Kiefer
and Wolfowitz, Trans. AMS 78, 1955). Unflagged exams go in id order on a
fast path. The stream is drawn in advance, so the arrival a_f of the next
flagged exam f is known, and the fast path is left only when the next
unflagged exam p would start at or after it, or when an interrupted read
waits to resume. The dispatch rules there all follow from "completions
before arrivals at equal times":

- f goes before p iff (a_f, f) < (s_p, p), where s_p = max(a_p, tau);
- a waiting resume goes before p, and f goes before it iff a_f < tau;
- f starts at a_f if a reader is free then. Otherwise, under preemption,
  it takes the reader of the unflagged exam in service with the highest id,
  which waits on a LIFO stack to resume with its remaining read time; if
  every reader holds a flagged exam, f starts at tau.

FIFO is the same loop with no flags. Inputs are read and outputs written
through memoryviews of the numpy arrays, so no per-exam Python list is
built.
"""
from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from heapq import heapify, heappop, heappush, heapreplace
from itertools import chain, compress

import numpy as np

from .core import QueueDiscipline, WorkflowParams, trial_stream
from .errors import ParameterError


def _serve(arrival, service, flagged, n_servers, preempt):
    # The dispatch-order kernel of the module docstring. p is the next
    # unflagged exam and t0 its start if it went now; f is the next flagged
    # exam and a_f its arrival; gate is a_f, or -inf while a resume waits.
    # Returns each exam's first start and its total time spent suspended
    # (0.0 unless it was interrupted).
    n = len(arrival)
    start = np.empty(n, np.float64)
    suspended = np.zeros(n, np.float64)
    arr, svc, flg = memoryview(arrival), memoryview(service), memoryview(flagged)
    out, susp = memoryview(start), memoryview(suspended)
    flag_ids = chain(memoryview(np.flatnonzero(flagged)), (n,))  # then n: none left
    free = [-math.inf] * min(n_servers, n)
    stack = []  # (exam, paused at, read time left) of interrupted exams
    resumed = {}  # exam -> completion after its last resume, -inf while paused
    flag_until = []  # heap of completions of flagged exams, pruned to those > a_f
    f = next(flag_ids)
    a_f = gate = arr[f] if f < n else math.inf
    exams = zip(range(n), arr, svc)
    if f < n:
        # Unflagged exams only, then a sentinel past the last of them that
        # dispatches whatever is still pending.
        exams = chain(compress(exams, memoryview(~flagged)), ((n, math.inf, 0.0),))
    for p, a, s in exams:
        t0 = free[0]
        if a > t0:
            t0 = a
        while t0 >= gate:
            tau = free[0]
            if stack and not a_f < tau:  # the last interrupted read resumes
                e, paused_at, left = stack.pop()
                susp[e] += tau - paused_at
                resumed[e] = tau + left
                heapreplace(free, tau + left)
            elif stack or a_f < t0 or (a_f == t0 and f < p):  # f goes next
                s_f = svc[f]
                while flag_until and flag_until[0] <= a_f:
                    heappop(flag_until)
                if tau <= a_f:
                    out[f] = a_f
                    heapreplace(free, a_f + s_f)
                elif preempt and len(flag_until) < len(free):
                    # Some reader holds an unflagged exam. Every unflagged
                    # exam below p has started by a_f, so the one in service
                    # with the highest id is the first found walking down
                    # from p - 1 that is neither done nor paused.
                    e = p - 1
                    while flg[e] or (until := resumed.get(e, out[e] + svc[e])) <= a_f:
                        e -= 1
                    stack.append((e, a_f, until - a_f))
                    resumed[e] = -math.inf
                    out[f] = a_f
                    free[free.index(until)] = a_f + s_f
                    heapify(free)
                else:
                    out[f] = tau
                    heapreplace(free, tau + s_f)
                if preempt:
                    heappush(flag_until, out[f] + s_f)
                f = next(flag_ids)
                a_f = arr[f] if f < n else math.inf
            elif p < n:  # p goes next
                break
            else:
                return start, suspended
            gate = -math.inf if stack else a_f
            t0 = free[0]
            if a > t0:
                t0 = a
        out[p] = t0
        heapreplace(free, t0 + s)
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
    """Serve a pre-drawn stream through the queue under one discipline.

    Raises ParameterError unless n_servers is an integer >= 1, the stream's
    arrays have one length, arrivals are finite and nondecreasing and every
    read time is finite and >= 0.
    """
    servers = np.asarray(n_servers)
    kind = servers.dtype.kind
    if servers.ndim or kind not in "iuf" or not 1 <= servers < math.inf or servers % 1:
        raise ParameterError(f"n_servers must be an integer >= 1, got {n_servers!r}")
    arrival = np.ascontiguousarray(stream.arrival, np.float64)
    service = np.ascontiguousarray(stream.service, np.float64)
    flagged = np.ascontiguousarray(stream.flagged, np.bool_)
    shapes = {np.shape(x) for x in (service, stream.diseased, flagged)}
    if arrival.ndim != 1 or shapes != {arrival.shape}:
        raise ParameterError("the stream's arrays must be 1-d and of one length")
    if not np.isfinite(arrival).all() or (arrival[1:] < arrival[:-1]).any():
        raise ParameterError("arrival times must be finite and nondecreasing")
    if not (np.isfinite(service).all() and (service >= 0).all()):
        raise ParameterError("read times must be finite and >= 0")
    if discipline is QueueDiscipline.FIFO:
        flagged = np.zeros_like(flagged)
    preempt = discipline is QueueDiscipline.AI_PRIORITY_PREEMPTIVE
    start, suspended = _serve(arrival, service, flagged, int(servers), preempt)
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
    out of that mean; a trial left with no diseased exam raises
    ParameterError. The reported range is the (2.5th, 97.5th) percentile of
    per-trial savings. Results are bit-identical for any worker count:
    streams depend only on (master_seed, trial_index) and aggregation follows
    trial order. workers must be >= 1; with workers > 1, trials run in up
    to that many processes (never more than n_trials), started from a
    forkserver. That needs a POSIX platform, and a script that calls this
    at top level must put the call under ``if __name__ == "__main__":``,
    since each worker imports the caller's main module again.
    """
    if n_trials < 2:
        raise ParameterError(f"n_trials must be >= 2, got {n_trials}")
    if not 0 <= burn_in < n_patients:
        raise ParameterError(f"burn_in must be in [0, n_patients={n_patients}), got {burn_in}")
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
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
    empty = np.flatnonzero(np.isnan(savings))
    if empty.size:
        raise ParameterError(
            f"trial {empty[0]} has no diseased exam after burn-in: raise n_patients "
            "or lower burn_in"
        )
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
