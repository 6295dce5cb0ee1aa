"""The scalar rules of triagesim.errors, tried on every argument they cover.

Each rule test feeds the same bad values to every record field and function
argument that the rule checks, and expects a ParameterError that names the
argument. Before the rules, many of these were accepted (True as 1, 2.0 as a
reader count, nan as an offered load) or failed with a TypeError from deep
inside numpy.
"""
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import triagesim
from triagesim import (
    BinormalRoc,
    DeviceOperatingPoint,
    ParameterError,
    PriorityLoad,
    QueueDiscipline,
    WorkflowParams,
    analytic_time_savings,
    erlang_c,
    fit_from_point,
    mmc_fifo_wait,
    roc_tpf,
    run_replications,
    sample_operating_points,
    trial_stream,
)
from triagesim.errors import ParameterTypeError, integer, non_negative, positive, share
from triagesim.estimation import (
    adjusted_fpf,
    effective_nondiseased_read_time,
    fit_exponential_histogram,
    queue_prevalence,
)
from triagesim.simulator import generate_stream, replay_stream
from triagesim.synthetic import SyntheticSpec

NAN, INF = math.nan, math.inf


def params(**overrides):
    fields = dict(
        prevalence=0.2,
        mean_interarrival=4.0,
        n_radiologists=2,
        read_time_diseased=6.0,
        read_time_nondiseased_effective=6.0,
        device=DeviceOperatingPoint(0.9, 0.05),
    )
    return WorkflowParams(**{**fields, **overrides})


def spec_field(name):
    return lambda v: SyntheticSpec(**{name: v})


STREAM = generate_stream(params(), 20, trial_stream(1))
CURVE = fit_from_point(0.9, 0.1)
FIFO = QueueDiscipline.FIFO

# argument -> a call that passes the value to it, all else valid
INTEGER_ARGUMENTS = {
    "n_radiologists": lambda v: params(n_radiologists=v),
    "master_seed": lambda v: trial_stream(v),
    "trial_index": lambda v: trial_stream(0, v),
    "generate_stream n_patients": lambda v: generate_stream(params(), v, trial_stream(0)),
    "n_servers": lambda v: replay_stream(STREAM, v, FIFO),
    "n_trials": lambda v: run_replications(params(), v, 100, 0),
    "run_replications n_patients": lambda v: run_replications(params(), 2, v, 0),
    "burn_in": lambda v: run_replications(params(), 2, 100, 0, burn_in=v),
    "workers": lambda v: run_replications(params(), 2, 100, 0, workers=v),
    "erlang_c c": lambda v: erlang_c(v, 0.5),
    "mmc_fifo_wait c": lambda v: mmc_fifo_wait(0.0, 1.0, v),
    "servers": lambda v: PriorityLoad((0.1,), 1.0, v),
    "n": lambda v: sample_operating_points(CURVE, v),
    "adjusted_fpf n_ncct": lambda v: adjusted_fpf(0.9, v, 10),
    "adjusted_fpf n_npp": lambda v: adjusted_fpf(0.9, 10, v),
    "n_diseased": lambda v: queue_prevalence(v, 10),
    "n_queue_total": lambda v: queue_prevalence(1, v),
    "effective_nondiseased_read_time n_npp": lambda v: effective_nondiseased_read_time(6.0, 5.0, v, 1),
    "effective_nondiseased_read_time n_ncct": lambda v: effective_nondiseased_read_time(6.0, 5.0, 1, v),
    **{
        f"SyntheticSpec {name}": spec_field(name)
        for name in (
            "seed", "n_days", "n_residents", "n_staff", "readers_per_day", "closures_per_reader_day",
            "n_negative_tat", "n_duplicate_closures", "n_thin_reader_days", "boundary_day",
        )
    },
}
SHARE_ARGUMENTS = {
    "tpf": lambda v: DeviceOperatingPoint(v, 0.1),
    "fpf_adjusted": lambda v: DeviceOperatingPoint(0.9, v),
    "prevalence": lambda v: params(prevalence=v),
    "roc_tpf fpf": lambda v: roc_tpf(CURVE, v),
    "fit_from_point tpf": lambda v: fit_from_point(v, 0.1),
    "fit_from_point fpf": lambda v: fit_from_point(0.9, v),
    "specificity": lambda v: adjusted_fpf(v, 10, 10),
    **{
        f"SyntheticSpec {name}": spec_field(name)
        for name in ("positive_rate", "indeterminate_rate", "break_probability")
    },
}
POSITIVE_ARGUMENTS = {
    "mean_interarrival": lambda v: params(mean_interarrival=v),
    "read_time_diseased": lambda v: params(read_time_diseased=v),
    "read_time_nondiseased_effective": lambda v: params(read_time_nondiseased_effective=v),
    "service_rate": lambda v: PriorityLoad((0.1,), v, 2),
    "mmc_fifo_wait mu": lambda v: mmc_fifo_wait(0.1, v, 2),
    "b": lambda v: BinormalRoc(1.0, v),
    "slope": lambda v: fit_from_point(0.9, 0.1, v),
    "bin_width": lambda v: fit_exponential_histogram([1.0, 2.0, 3.0], v),
    "equal_service_mean": lambda v: analytic_time_savings(params(), v),
    **{
        f"SyntheticSpec {name}": spec_field(name)
        for name in (
            "work_interarrival", "off_interarrival", "read_mean_pe", "read_mean_npp", "read_mean_ncct",
            "tat_mean_pre", "tat_mean_post",
        )
    },
}
NON_NEGATIVE_ARGUMENTS = {
    "offered_load": lambda v: erlang_c(2, v),
    "lam": lambda v: mmc_fifo_wait(v, 1.0, 2),
    "arrival_rates[1]": lambda v: PriorityLoad((0.1, v), 1.0, 2),
}
# The values each rule is tried on: for the two number rules, 2.5 and 2.0
# are valid and give way to values out of range.
BAD_VALUES = (2.5, 2.0, True, None, "2", NAN, INF)
BAD_NUMBERS = (True, None, "2", NAN, INF, -INF)


def rejects(call, argument, values):
    name = argument.rsplit(" ", 1)[-1]
    for value in values:
        with pytest.raises(ParameterError, match=f"^{re.escape(name)} must be"):
            call(value)


@pytest.mark.parametrize("argument", INTEGER_ARGUMENTS)
def test_integer_rule(argument):
    values = (*BAD_VALUES, np.float64(2.0), -1)
    if argument.endswith("boundary_day"):  # None means the middle day
        values = tuple(v for v in values if v is not None)
    rejects(INTEGER_ARGUMENTS[argument], argument, values)


@pytest.mark.parametrize("argument", SHARE_ARGUMENTS)
def test_share_rule(argument):
    rejects(SHARE_ARGUMENTS[argument], argument, (*BAD_VALUES, -0.1, "0.5"))


@pytest.mark.parametrize("argument", POSITIVE_ARGUMENTS)
def test_positive_rule(argument):
    rejects(POSITIVE_ARGUMENTS[argument], argument, (*BAD_NUMBERS, 0.0, -2.5))


@pytest.mark.parametrize("argument", NON_NEGATIVE_ARGUMENTS)
def test_non_negative_rule(argument):
    rejects(NON_NEGATIVE_ARGUMENTS[argument], argument, (*BAD_NUMBERS, -2.5))


def test_rules_return_the_value():
    assert type(integer("n", np.int64(3))) is int and integer("n", np.uint64(3)) == 3
    assert integer("burn_in", 9, high=9) == 9
    assert share("p", np.float64(0.5)) == 0.5 and share("p", 0) == 0 and share("p", 1) == 1
    assert positive("m", 1e-300) == 1e-300 and positive("m", 3) == 3
    assert non_negative("lam", 0.0) == 0.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: integer("workers", 0, low=1), "workers must be >= 1, got 0"),
        (lambda: integer("burn_in", 10, high=9), "burn_in must be in [0, 9], got 10"),
        (lambda: integer("n", 2.0), "n must be an integer, got 2.0"),
        (lambda: share("tpf", "0.5"), "tpf must be in [0, 1], got '0.5'"),
        (lambda: share("tpf", 1.0, interior=True), "tpf must be in (0, 1), got 1.0"),
        (lambda: positive("mean_interarrival", INF), "mean_interarrival must be finite and > 0, got inf"),
        (lambda: positive("roc_slope", 0), "roc_slope must be > 0, got 0"),
        (lambda: non_negative("lam", -1.0), "lam must be >= 0, got -1.0"),
    ],
)
def test_rule_messages(call, message):
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value) == message


def test_a_value_of_the_wrong_type_is_a_type_error():
    for call in (lambda: integer("n", "2"), lambda: share("p", None), lambda: positive("m", [1.0])):
        with pytest.raises(ParameterTypeError):
            call()
    with pytest.raises(ParameterError) as info:
        positive("m", NAN)
    assert not isinstance(info.value, TypeError)


def test_seed_and_trial_index_are_64_bit_words():
    # The key was masked to 64 bits, so seed 2**64 replayed seed 0's streams.
    top = 2**64 - 1
    assert trial_stream(top, top).random() != trial_stream(0, 0).random()
    for seed, index in ((2**64, 0), (0, 2**64), (-1, 0), (0, -1)):
        with pytest.raises(ParameterError, match=r"must be in \[0, 18446744073709551615\]|must be >= 0"):
            trial_stream(seed, index)


def test_scipy_stats_stays_off_the_import_path():
    # scipy.stats costs about half a second and 45 MB to import; the package
    # uses scipy.special's t distribution functions instead.
    code = "import sys, triagesim, triagesim.cli; print('scipy.stats' in sys.modules)"
    # The fresh interpreter imports the package this test imported.
    path = os.pathsep.join([str(Path(triagesim.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert result.stdout.strip() == "False"
