"""Command-line harness: estimate, sweep, roc-sweep, oracle, compare.

Every command writes comma-separated tables plus a JSON metadata
companion (seed, grids, version) so a run can be reproduced exactly. Output
is byte-identical for identical inputs and seed, regardless of worker count;
nothing time- or host-dependent goes into the files.

Exit codes: 0 success, 2 input-format error, unreadable input file or
unusable --out directory, 3 infeasible parameters, 4 insufficient data.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from pathlib import Path

from . import __version__
from .config import AnalysisConfig
from .core import (
    Cohort,
    DeviceOperatingPoint,
    ExamClass,
    WorkflowParams,
    trial_stream,
)
from .errors import (
    FormatError,
    InfeasibleParametersError,
    InsufficientDataError,
    ParameterError,
    TriageSimError,
    integer,
    positive,
)
from .estimation import (
    WORK_BLOCK,
    adjusted_fpf,
    cohort_blocks,
    daily_interarrival_fits,
    day_number,
    effective_nondiseased_read_time,
    estimate_read_times,
    ingest_closure_log,
    ingest_exam_log,
    queue_prevalence,
    summarize_interarrival,
)
from .oracle import PriorityLoad, mmc_fifo_wait, mmc_priority_wait
from .paramfile import (
    empty_document,
    load_parameters,
    missing_fields,
    read_value,
    save_parameters,
    workflow_params_from_doc,
)
from .roc import fit_from_point, sample_operating_points
from .simulator import (
    QueueDiscipline,
    batch_mean_se,
    generate_stream,
    replay_stream,
    run_replications,
)
from .stats import tat_summary, time_savings_test

log = logging.getLogger("triagesim")

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_INFEASIBLE = 3
EXIT_INSUFFICIENT = 4

FULL_TRIALS = 100
FULL_PATIENTS = 100_000
QUICK_TRIALS = 20
QUICK_PATIENTS = 20_000
FULL_ROC_POINTS = 1000
QUICK_ROC_POINTS = 51

DEFAULT_INTERARRIVAL_GRID = [k * 0.25 for k in range(5, 17)]  # 1.25 .. 4.0
DEFAULT_RADIOLOGIST_GRID = [2, 3, 4, 5]


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def _emit(args, stem: str, header: tuple[str, ...], rows: list[tuple], meta: dict) -> Path:
    """Write <stem>.csv and <stem>_meta.json under --out; return the table's path.

    The metadata is stamped with the command and the package version.
    """
    out = Path(args.out)
    table = out / f"{stem}.csv"
    with open(table, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(str(cell) for cell in row) + "\n")
    meta = dict(meta, command=args.command, triagesim_version=__version__)
    with open(out / f"{stem}_meta.json", "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return table


def _load_config(args) -> AnalysisConfig:
    return AnalysisConfig.from_yaml(args.config) if args.config else AnalysisConfig()


def _parse_grid(text: str, cast=float) -> list:
    """Accept '1.25,1.5,2' or 'start:stop:step' (stop inclusive)."""
    text = text.strip()
    try:
        if ":" not in text:
            return [cast(part) for part in text.split(",") if part.strip()]
        start, stop, step = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise ParameterError(f"cannot read grid {text!r}: {exc}") from exc
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ParameterError(f"cannot read grid {text!r}: start, stop and step must be finite")
    if step <= 0:
        raise ParameterError(f"grid step must be > 0 in {text!r}")
    values = []
    k = 0
    while True:
        value = start + k * step
        if value > stop + 1e-9:
            break
        value = round(value, 10)
        if cast(value) != value:
            raise ParameterError(f"cannot read grid {text!r}: {value:g} is not an integer")
        values.append(cast(value))
        k += 1
    return values


# --------------------------------------------------------------------------
# estimate


def cmd_estimate(args) -> int:
    cfg = _load_config(args)
    doc = empty_document()

    exam = ingest_exam_log(args.exam_log)
    n_positive = int(exam.positive.sum())
    doc["diagnostics"]["exam_log"] = {
        "n_rows": exam.n_rows,
        "n_excluded_negative_tat": exam.n_excluded_negative,
        "n_duplicate_exam_id": exam.n_duplicate_exam_id,
        "n_malformed": exam.n_malformed,
        "n_retained": exam.tat_minutes.size,
        "n_positive": n_positive,
    }

    fits = daily_interarrival_fits(exam.scan_utc_us, exam.scan_wall_us, cfg)
    for cohort, key in ((Cohort.WORK_HOUR, "work"), (Cohort.OFF_HOUR, "off")):
        try:
            doc["interarrival"][key] = summarize_interarrival(fits, cohort)
        except InsufficientDataError as exc:
            log.warning("inter-arrival summary unavailable for %s: %s", key, exc)

    if args.closure_log:
        closures = ingest_closure_log(args.closure_log)
        readtimes = estimate_read_times(closures, exam.roles, cfg)
        class_counts = {c.value: int((closures.exam_class == k).sum()) for k, c in enumerate(ExamClass)}
        n_queue_total = closures.exam_class.size
        doc["counts"] = {
            "n_diseased": n_positive,
            "n_queue_total": n_queue_total,
            "n_non_pe_positive": class_counts[ExamClass.NON_PE_POSITIVE.value],
            "n_non_chest_ct": class_counts[ExamClass.NON_CHEST_CT.value],
        }
        doc["prevalence"] = queue_prevalence(n_positive, n_queue_total)
        for exam_class, agg in readtimes.per_class.items():
            doc["read_time"][exam_class.value] = {
                "mean": agg.mean,
                "n_readers": agg.n_readers,
                "min": agg.min_mean,
                "max": agg.max_mean,
            }
        pe = readtimes.per_class.get(ExamClass.PE_POSITIVE)
        npp = readtimes.per_class.get(ExamClass.NON_PE_POSITIVE)
        ncct = readtimes.per_class.get(ExamClass.NON_CHEST_CT)
        if pe is not None:
            doc["read_time_diseased"] = pe.mean
        if npp is not None and ncct is not None:
            doc["effective_nondiseased_read_time"] = effective_nondiseased_read_time(
                npp.mean,
                ncct.mean,
                class_counts[ExamClass.NON_PE_POSITIVE.value],
                class_counts[ExamClass.NON_CHEST_CT.value],
            )
        doc["diagnostics"]["closure_log"] = {
            "n_rows": closures.n_rows,
            "n_malformed": closures.n_malformed,
            "per_class": class_counts,
            "exclusions": dataclasses.asdict(readtimes.exclusions),
            "per_reader_fits": [
                {
                    "reader_id": fit.reader_id,
                    "exam_class": fit.exam_class.value,
                    "mean": fit.mean,
                    "n": fit.n,
                    "r2": fit.r2,
                }
                for fit in readtimes.per_reader
            ],
        }

    doc["device"]["tpf"] = cfg.device_tpf
    doc["device"]["specificity"] = cfg.device_specificity
    counts = doc["counts"]
    if cfg.device_specificity is not None and counts["n_non_pe_positive"]:
        doc["device"]["fpf_adjusted"] = adjusted_fpf(
            cfg.device_specificity, counts["n_non_chest_ct"], counts["n_non_pe_positive"]
        )

    doc["missing"] = missing_fields(doc)
    path = Path(args.out) / "params.json"
    save_parameters(doc, path)
    print(f"wrote {path}")
    if doc["missing"]:
        print("missing fields: " + ", ".join(doc["missing"]))
    return EXIT_OK


# --------------------------------------------------------------------------
# sweep


def _resolve_protocol(args) -> tuple[int, int]:
    trials = args.trials if args.trials is not None else (QUICK_TRIALS if args.quick else FULL_TRIALS)
    patients = args.patients if args.patients is not None else (
        QUICK_PATIENTS if args.quick else FULL_PATIENTS
    )
    return trials, patients


def _savings_cells(args, params: WorkflowParams) -> tuple[str, str, str]:
    """Replicate one simulation point under the command's protocol: the mean
    saving and its 95% range, formatted for the table."""
    trials, patients = _resolve_protocol(args)
    estimate = run_replications(
        params, trials, patients, args.seed, burn_in=args.burn_in, workers=args.workers
    )
    return _fmt(estimate.mean_savings), _fmt(estimate.range95[0]), _fmt(estimate.range95[1])


def _simulation_meta(args) -> dict:
    """The metadata that sweep and roc-sweep share."""
    trials, patients = _resolve_protocol(args)
    return {
        "seed": args.seed,
        "n_trials": trials,
        "n_patients": patients,
        "burn_in": args.burn_in,
        "params_file": os.path.basename(args.params),
        "quick": bool(args.quick),
    }


def cmd_sweep(args) -> int:
    doc = load_parameters(args.params)
    interarrival_grid = (
        _parse_grid(args.interarrival) if args.interarrival else DEFAULT_INTERARRIVAL_GRID
    )
    radiologist_grid = (
        _parse_grid(args.radiologists, int) if args.radiologists else DEFAULT_RADIOLOGIST_GRID
    )
    if not interarrival_grid or not radiologist_grid:
        raise ParameterError("sweep grids must be non-empty")

    rows = []
    for interarrival in interarrival_grid:
        for c in radiologist_grid:
            try:
                params = workflow_params_from_doc(doc, interarrival, c)
            except InfeasibleParametersError:
                rows.append((_fmt(interarrival), c, "", "", "", "false"))
                continue
            rows.append((_fmt(interarrival), c, *_savings_cells(args, params), "true"))
    n_feasible = sum(row[-1] == "true" for row in rows)
    if n_feasible == 0:
        raise InfeasibleParametersError(
            "every grid point has utilization >= 1; add radiologists or widen "
            "the inter-arrival grid"
        )
    table = _emit(
        args,
        "sweep",
        ("interarrival", "n_radiologists", "mean_savings", "range95_low", "range95_high", "feasible"),
        rows,
        {
            **_simulation_meta(args),
            "interarrival_grid": interarrival_grid,
            "radiologist_grid": radiologist_grid,
        },
    )
    print(f"wrote {table} ({n_feasible}/{len(rows)} feasible grid points)")
    return EXIT_OK


# --------------------------------------------------------------------------
# roc-sweep


def cmd_roc_sweep(args) -> int:
    doc = load_parameters(args.params)
    cfg = _load_config(args)
    n_points = args.points if args.points is not None else (
        QUICK_ROC_POINTS if args.quick else FULL_ROC_POINTS
    )
    interarrival = args.interarrival
    if interarrival is None:
        interarrival = float(read_value(doc, "interarrival.work.mean", positive))
    base = workflow_params_from_doc(doc, interarrival, args.radiologists)

    # The sweep curve lives in queue-adjusted FPF space: it passes through
    # the device's adjusted operating point, and its endpoints correspond to
    # flagging nothing and flagging the whole queue. The raw target-modality
    # FPF is reported alongside for reference.
    curve = fit_from_point(base.device.tpf, base.device.fpf_adjusted, slope=cfg.roc_slope)
    n_npp = read_value(doc, "counts.n_non_pe_positive", integer, required=False)
    n_ncct = read_value(doc, "counts.n_non_chest_ct", integer, required=False)
    ratio = n_ncct / n_npp if n_npp and n_ncct is not None else None

    rows = []
    for fpf_adjusted, tpf in sample_operating_points(curve, n_points):
        params = dataclasses.replace(
            base, device=DeviceOperatingPoint(tpf=tpf, fpf_adjusted=fpf_adjusted)
        )
        fpf_raw = "" if ratio is None else _fmt(min(1.0, fpf_adjusted * (1.0 + ratio)))
        rows.append((fpf_raw, _fmt(fpf_adjusted), _fmt(tpf), *_savings_cells(args, params)))
    table = _emit(
        args,
        "roc_sweep",
        ("fpf_raw", "fpf_adjusted", "tpf", "mean_savings", "range95_low", "range95_high"),
        rows,
        {
            **_simulation_meta(args),
            "n_points": n_points,
            "n_radiologists": args.radiologists,
            "interarrival": interarrival,
            "roc_slope": cfg.roc_slope,
            "curve_a": curve.a,
        },
    )
    print(f"wrote {table}")
    return EXIT_OK


# --------------------------------------------------------------------------
# oracle


def cmd_oracle(args) -> int:
    arrival_rates = tuple(_parse_grid(args.arrival_rates))
    load = PriorityLoad(
        arrival_rates=arrival_rates, service_rate=args.service_rate, servers=args.servers
    )
    fifo = mmc_fifo_wait(load.total_rate, load.service_rate, load.servers)
    waits = mmc_priority_wait(load)

    header = ("class", "arrival_rate", "wq_analytic", "savings_vs_fifo")
    rows = [("fifo", _fmt(load.total_rate), _fmt(fifo), _fmt(0.0))] + [
        (f"class{k}", _fmt(lam), _fmt(wq), _fmt(fifo - wq))
        for k, (lam, wq) in enumerate(zip(arrival_rates, waits), start=1)
    ]
    if args.compare:
        if len(arrival_rates) > 2:
            raise ParameterError("--compare supports at most two priority classes")
        if load.total_rate == 0:
            raise ParameterError("--compare needs a total arrival rate > 0 to simulate")
        simulated = _oracle_compare(args, load, fifo, waits)
        header += ("wq_simulated", "z_score")
        rows = [(*row, *(_fmt(x) for x in simulated[row[0]])) for row in rows]
    table = _emit(
        args,
        "oracle",
        header,
        rows,
        {
            "seed": args.seed,
            "arrival_rates": list(arrival_rates),
            "service_rate": args.service_rate,
            "servers": args.servers,
            "compare": bool(args.compare),
            "n_patients": args.patients,
        },
    )
    print(f"wrote {table}")
    return EXIT_OK


def _oracle_compare(args, load: PriorityLoad, fifo: float, waits) -> dict:
    """Matched simulation for the analytic table: class 1 maps to flagged
    exams (tpf=1, fpf=0, prevalence = class-1 share), common service mean."""
    mean_service = 1.0 / load.service_rate
    total = load.total_rate
    share = load.arrival_rates[0] / total if len(load.arrival_rates) == 2 else 1.0
    params = WorkflowParams(
        prevalence=share,
        mean_interarrival=1.0 / total,
        n_radiologists=load.servers,
        read_time_diseased=mean_service,
        read_time_nondiseased_effective=mean_service,
        device=DeviceOperatingPoint(tpf=1.0, fpf_adjusted=0.0),
    )
    stream = generate_stream(params, args.patients, trial_stream(args.seed, 0))
    fifo_out = replay_stream(stream, load.servers, QueueDiscipline.FIFO)
    if len(load.arrival_rates) == 1:
        prio_out = fifo_out
    else:
        prio_out = replay_stream(stream, load.servers, QueueDiscipline.AI_PRIORITY)
    masks = [prio_out.flagged, ~prio_out.flagged][: len(load.arrival_rates)]
    samples = {"fifo": (fifo_out.wait, fifo)}
    for k, (mask, wq) in enumerate(zip(masks, waits), start=1):
        samples[f"class{k}"] = (prio_out.wait[mask], wq)
    result = {}
    for name, (values, wq) in samples.items():
        if values.size < 2:
            raise ParameterError(
                f"simulated {name} sample has {values.size} exam(s), need >= 2 "
                "for a z-score: raise --patients"
            )
        se = batch_mean_se(values)
        result[name] = (float(values.mean()), float((values.mean() - wq) / se))
    return result


# --------------------------------------------------------------------------
# compare


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    if cfg.boundary_date is None:
        raise ParameterError(
            "config must supply boundary_date (first day of the post period)"
        )
    exam = ingest_exam_log(args.exam_log)
    day, block = cohort_blocks(exam.scan_wall_us, cfg)
    work = block == WORK_BLOCK
    after = day >= day_number(cfg.boundary_date)

    rows = []
    for in_cohort, key in ((exam.positive & work, "work"), (exam.positive & ~work, "off")):
        pre = exam.tat_minutes[in_cohort & ~after]
        post = exam.tat_minutes[in_cohort & after]
        if len(pre) < 2 or len(post) < 2:
            raise InsufficientDataError(
                f"cohort {key}: need >= 2 diseased exams in each period, got "
                f"{len(pre)} pre / {len(post)} post"
            )
        row = [key]
        for summary in (tat_summary(pre), tat_summary(post)):
            cells = (summary.mean, *summary.ci95, *summary.percentiles)
            row += [summary.n, *(_fmt(x) for x in cells)]
        welch = time_savings_test(pre, post)
        row += [_fmt(x) for x in (welch.diff_of_means, *welch.ci95, welch.p_one_sided)]
        rows.append(tuple(row))
    table = _emit(
        args,
        "compare",
        COMPARE_COLUMNS,
        rows,
        {
            "boundary_date": cfg.boundary_date.isoformat(),
            "exam_log": os.path.basename(args.exam_log),
            "n_rows": exam.n_rows,
            "n_excluded_negative_tat": exam.n_excluded_negative,
            "n_duplicate_exam_id": exam.n_duplicate_exam_id,
        },
    )
    print(f"wrote {table}")
    return EXIT_OK


COMPARE_COLUMNS = (
    "cohort",
    "n_pre",
    "pre_mean_tat",
    "pre_ci_low",
    "pre_ci_high",
    "pre_p2_5",
    "pre_p50",
    "pre_p97_5",
    "n_post",
    "post_mean_tat",
    "post_ci_low",
    "post_ci_high",
    "post_p2_5",
    "post_p50",
    "post_p97_5",
    "observed_savings",
    "savings_ci_low",
    "savings_ci_high",
    "p_one_sided",
)


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triagesim",
        description="Queueing simulation and estimation for AI-triage worklist prioritization",
    )
    parser.add_argument("--version", action="version", version=f"triagesim {__version__}")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", default=".", help="output directory")
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", help="YAML analysis configuration")
    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--seed", type=int, default=42, help="master random seed")
    sim.add_argument(
        "--quick", action="store_true", help="desk-scale protocol (20 trials x 20,000 patients)"
    )
    sim.add_argument("--trials", type=int, default=None, help="trials per grid point")
    sim.add_argument("--patients", type=int, default=None, help="patients per trial")
    sim.add_argument("--burn-in", type=int, default=0, help="exams excluded from statistics")
    sim.add_argument("--workers", type=int, default=1, help="parallel trial workers")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", parents=[shared, configured], help="estimate workflow parameters from logs")
    p.add_argument("--exam-log", required=True)
    p.add_argument("--closure-log", default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", parents=[shared, sim], help="time-savings over an inter-arrival x staffing grid")
    p.add_argument("--params", required=True, help="parameter file from estimate")
    p.add_argument("--interarrival", default=None, help="grid: comma list or start:stop:step")
    p.add_argument("--radiologists", default=None, help="grid: comma list or start:stop:step")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("roc-sweep", parents=[shared, configured, sim], help="time-savings along the device ROC curve")
    p.add_argument("--params", required=True)
    p.add_argument("--points", type=int, default=None, help="operating points along the curve")
    p.add_argument("--radiologists", type=int, default=3)
    p.add_argument("--interarrival", type=float, default=None, help="defaults to the work-hour estimate")
    p.set_defaults(func=cmd_roc_sweep)

    p = sub.add_parser("oracle", parents=[shared], help="closed-form waits, optionally checked by simulation")
    p.add_argument("--arrival-rates", required=True, help="per-class rates per minute, class 1 first")
    p.add_argument("--service-rate", type=float, required=True, help="common service rate per minute")
    p.add_argument("--servers", type=int, required=True)
    p.add_argument("--compare", action="store_true", help="run a matched simulation and report z-scores")
    p.add_argument("--patients", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42, help="master random seed")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare", parents=[shared, configured], help="observed pre/post TAT comparison")
    p.add_argument("--exam-log", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        log.error("cannot use --out %s as the output directory: %s", args.out, exc.strerror or exc)
        return EXIT_FORMAT
    try:
        return args.func(args)
    except FormatError as exc:
        log.error("input format error: %s", exc)
        return EXIT_FORMAT
    except InsufficientDataError as exc:
        log.error("insufficient data: %s", exc)
        return EXIT_INSUFFICIENT
    except (InfeasibleParametersError, ParameterError) as exc:
        log.error("infeasible or invalid parameters: %s", exc)
        return EXIT_INFEASIBLE
    except TriageSimError as exc:  # pragma: no cover - safety net
        log.error("%s", exc)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
