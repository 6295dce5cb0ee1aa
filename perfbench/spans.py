"""Spans around the calls into each layer's public functions.

A traced round replaces each function at the name through which the CLI or
`run_replications` calls it with a wrapper that records a span (name, start,
end, parent) on the process CPU clock, plus counts taken from the value the
function returns. Spans stay in memory; the run writes them out when it
ends. A span's self time is its duration minus that of its child spans.
Counts are taken in a span of their own, `trace.counts`, a sibling of the
function's span, so that the tracer's work stays out of every layer's time.
"""
from __future__ import annotations

import contextlib
import dataclasses
import time

from hooks import wrapped
from triagesim import QueueDiscipline, cli, simulator
from workloads import GRID_RADIOLOGISTS, REFERENCE_PARAMS

cpu = time.process_time

DISCIPLINES = [d.value for d in QueueDiscipline]
# Replay speed is reported per reader count, since the kernel's cost per
# event grows with it: reference-pair replays FIFO and preemptive priority
# at 3 readers, staffing-grid FIFO and non-preemptive priority at 2 to 16.
# Preemptive replays run at one reader count only, so their overall rate is
# already that count's.
READER_COUNTS = {
    "fifo": tuple(sorted({REFERENCE_PARAMS["n_radiologists"], *GRID_RADIOLOGISTS})),
    "ai_priority": GRID_RADIOLOGISTS,
    "ai_priority_preemptive": (),
}


def _ingest_counts(result):
    excluded = result.n_malformed + getattr(result, "n_excluded_negative", 0)
    return {"rows": result.n_rows, "excluded_rows": excluded}


def _daily_fit_counts(fits):
    # A fit that fell back to the sample mean reports it as the fitted mean.
    return {"fits": len(fits), "fallback_fits": sum(f.mean == f.mean_sample for f in fits)}


def _read_time_counts(summary):
    excluded = sum(dataclasses.astuple(summary.exclusions))
    return {"fits": len(summary.per_reader), "excluded_rows": excluded}


def _replay_name(args, kwargs):
    _, n_servers, discipline = args
    return f"simulator.replay_stream.{discipline.value}.c{n_servers}"


def _replay_counts(out):
    return {
        "exams": out.arrival.shape[0],
        "preempted": int((out.suspended > 0).sum()),
        "waited": int((out.wait > 0).sum()),
    }


# (module, attribute, span name or a function of the call's arguments,
# counts taken from the returned value)
TARGETS = (
    (cli, "cmd_estimate", "cli.estimate", None),
    (cli, "cmd_compare", "cli.compare", None),
    (cli, "cmd_sweep", "cli.sweep", None),
    (cli, "ingest_exam_log", "estimation.ingest_exam_log", _ingest_counts),
    (cli, "ingest_closure_log", "estimation.ingest_closure_log", _ingest_counts),
    (cli, "daily_interarrival_fits", "estimation.daily_interarrival_fits", _daily_fit_counts),
    (cli, "estimate_read_times", "estimation.estimate_read_times", _read_time_counts),
    (cli, "tat_summary", "stats", None),
    (cli, "time_savings_test", "stats", None),
    (cli, "run_replications", "simulator.run_replications", None),
    (simulator, "run_replications", "simulator.run_replications", None),
    (simulator, "generate_stream", "simulator.generate_stream", lambda s: {"exams": s.n}),
    (simulator, "replay_stream", _replay_name, _replay_counts),
)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict


class Tracer:
    """Records spans while installed; `with tracer:` installs the wrappers
    and restores the original functions on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed = contextlib.ExitStack()

    def span(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, 0.0, 0.0, parent, {})
        self.spans.append(record)
        self._stack.append(index)
        record.start = cpu()
        try:
            return fn(*args, **kwargs)
        finally:
            record.end = cpu()
            self._stack.pop()

    def _wrap(self, fn, name, counts):
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            index = len(self.spans)
            result = self.span(span_name, fn, *args, **kwargs)
            if counts is not None:
                self.spans[index].counts = self.span("trace.counts", counts, result)
            return result

        return wrapper

    def __enter__(self):
        for module, attr, name, counts in TARGETS:
            self._installed.enter_context(
                wrapped(module, attr, lambda fn, name=name, counts=counts: self._wrap(fn, name, counts))
            )
        return self

    def __exit__(self, *exc):
        self._installed.close()
        return False

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def dump(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]


def per_layer(spans: list[Span], own: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced round whose root span is spans[0]."""
    total: dict[str, float] = {}
    self_cpu: dict[str, float] = {}
    counts: dict[str, float] = {}
    for span, own_cpu in zip(spans, own):
        total[span.name] = total.get(span.name, 0.0) + (span.end - span.start)
        self_cpu[span.name] = self_cpu.get(span.name, 0.0) + own_cpu
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] = counts.get(f"{span.name}.{key}", 0) + value

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    metrics = {}
    for log in ("ingest_exam_log", "ingest_closure_log"):
        name = f"estimation.{log}"
        rows = counts.get(f"{name}.rows", 0)
        metrics[f"{name}.cpu_s"] = total.get(name, 0.0)
        metrics[f"{name}.rows"] = rows
        metrics[f"{name}.rows_per_cpu_s"] = rate(rows, total.get(name, 0.0))
    name = "estimation.daily_interarrival_fits"
    metrics[f"{name}.cpu_s"] = total.get(name, 0.0)
    metrics[f"{name}.fits"] = counts.get(f"{name}.fits", 0)
    metrics[f"{name}.fallback_fits"] = counts.get(f"{name}.fallback_fits", 0)
    name = "estimation.estimate_read_times"
    metrics[f"{name}.cpu_s"] = total.get(name, 0.0)
    metrics[f"{name}.fits"] = counts.get(f"{name}.fits", 0)
    metrics["estimation.excluded_rows"] = sum(
        value for key, value in counts.items() if key.endswith(".excluded_rows")
    )
    metrics["stats.cpu_s"] = total.get("stats", 0.0)
    for command in ("estimate", "compare", "sweep"):
        metrics[f"cli.{command}.self_cpu_s"] = self_cpu.get(f"cli.{command}", 0.0)
    name = "simulator.generate_stream"
    metrics[f"{name}.cpu_s"] = total.get(name, 0.0)
    metrics[f"{name}.exams_per_cpu_s"] = rate(counts.get(f"{name}.exams", 0), total.get(name, 0.0))
    replays = [n for n in total if n.startswith("simulator.replay_stream.")]
    exams = preempted = waited = 0
    for discipline in DISCIPLINES:
        prefix = f"simulator.replay_stream.{discipline}"
        mine = [n for n in replays if n.rsplit(".", 1)[0] == prefix]
        seconds = sum((total[n] for n in mine), 0.0)
        n_exams = sum(counts[f"{n}.exams"] for n in mine)
        metrics[f"{prefix}.cpu_s"] = seconds
        metrics[f"{prefix}.exams_per_cpu_s"] = rate(n_exams, seconds)
        for c in READER_COUNTS[discipline]:
            name = f"{prefix}.c{c}"
            metrics[f"{name}.exams_per_cpu_s"] = rate(counts.get(f"{name}.exams", 0), total.get(name, 0.0))
        exams += n_exams
        preempted += sum(counts[f"{n}.preempted"] for n in mine)
        waited += sum(counts[f"{n}.waited"] for n in mine)
    metrics["simulator.run_replications.self_cpu_s"] = self_cpu.get("simulator.run_replications", 0.0)
    metrics["simulator.exams_replayed"] = exams
    metrics["simulator.preempted_exams"] = preempted
    metrics["simulator.waited_exams"] = waited
    metrics["trace.counts_cpu_s"] = total.get("trace.counts", 0.0)
    round_cpu = spans[0].end - spans[0].start
    metrics["trace.unattributed_cpu_s"] = own[0]
    metrics["trace.attributed_share"] = rate(round_cpu - own[0], round_cpu)
    return metrics
