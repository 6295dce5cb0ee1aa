"""Run configuration: calendar, cleaning thresholds, and device inputs.

Everything the logs cannot tell us lives here: which dates are holidays,
where the working day starts and ends, the pre/post deployment boundary,
histogram bin widths, exclusion thresholds, the ROC slope convention, and
the device's reported operating point.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, fields
from datetime import date, datetime, time
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import yaml

from .errors import FormatError, ParameterError, check_fields, integer, positive, reading, share


def _parse_clock(value) -> time:
    """A time, an "H:MM" string, or an int: an hour in 0-23, or minutes
    after midnight in 60-1439, which is how YAML 1.1 reads an unquoted H:MM
    from 1:00 on (base 60)."""
    if isinstance(value, time):
        return value
    try:
        if isinstance(value, int) and not isinstance(value, bool):
            if 60 <= value < 24 * 60:
                return time(*divmod(value, 60))
            return time(value, 0)
        hours, minutes = str(value).split(":")
        return time(int(hours), int(minutes))
    except ValueError as exc:
        raise ValueError(f"cannot parse clock time {value!r}") from exc


def _parse_date(value) -> date:
    if isinstance(value, datetime):
        return value.date()
    if isinstance(value, date):
        return value
    match = re.fullmatch(r"([0-9]{4})-([0-9]{2})-([0-9]{2})", str(value))
    try:
        return date(*map(int, match.groups()))
    except (AttributeError, ValueError):  # no match, or no such date
        raise ValueError(f"cannot parse date {value!r}") from None


class _Loader(yaml.SafeLoader):
    """A SafeLoader that keeps an impossible date such as 2024-02-30 as its
    text, so that from_dict rejects it naming its key."""

    def construct_yaml_timestamp(self, node):
        try:
            return super().construct_yaml_timestamp(node)
        except ValueError:
            return self.construct_scalar(node)


_Loader.add_constructor("tag:yaml.org,2002:timestamp", _Loader.construct_yaml_timestamp)


def _is_instance(value, hint) -> bool:
    """isinstance against a field's annotation; a float field also takes an
    int, and a bool is neither."""
    accepted = get_args(hint) if get_origin(hint) is UnionType else (get_origin(hint) or hint,)
    if isinstance(value, bool):
        return bool in accepted
    return isinstance(value, accepted + ((int,) if float in accepted else ()))


@dataclass(frozen=True)
class AnalysisConfig:
    holidays: frozenset[date] = frozenset()
    work_start: time = time(8, 0)
    work_end: time = time(17, 0)
    boundary_date: date | None = None
    interarrival_bin_minutes: float = 1.0
    readtime_bin_minutes: float = 2.0
    max_read_gap_minutes: float = 60.0
    min_daily_closures: int = 30
    min_gaps_per_fit: int = 10
    min_daily_gaps: int = 5
    weighted_fits: bool = False
    roc_slope: float = 1.0
    device_tpf: float | None = None
    device_specificity: float | None = None

    @classmethod
    def from_yaml(cls, path) -> "AnalysisConfig":
        with reading(path), open(path, encoding="utf-8") as handle:
            try:
                raw = yaml.load(handle, Loader=_Loader) or {}
            except yaml.YAMLError as exc:
                raise FormatError(f"{path}: invalid YAML ({exc})") from exc
        return cls.from_dict(raw, source=str(path))

    @classmethod
    def from_dict(cls, raw: dict, source: str = "<config>") -> "AnalysisConfig":
        if not isinstance(raw, dict):
            raise FormatError(f"{source}: expected a mapping of config keys, found {raw!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise FormatError(f"{source}: unknown config keys {sorted(unknown)}")
        values = dict(raw)

        def parsed(key, parse, value):
            try:
                return parse(value)
            except ValueError as exc:
                raise FormatError(f"{source}: {key}: {exc}") from exc

        if "holidays" in values:
            holidays = values["holidays"] or []
            if not isinstance(holidays, list):
                raise FormatError(f"{source}: holidays must be a list of dates, got {holidays!r}")
            values["holidays"] = frozenset(parsed("holidays", _parse_date, d) for d in holidays)
        for key in ("work_start", "work_end"):
            if key in values:
                values[key] = parsed(key, _parse_clock, values[key])
        if values.get("boundary_date") is not None:
            values["boundary_date"] = parsed("boundary_date", _parse_date, values["boundary_date"])
        hints = get_type_hints(cls)
        for key, value in values.items():
            if not _is_instance(value, hints[key]):
                kind = getattr(hints[key], "__name__", hints[key])
                raise FormatError(f"{source}: {key} must be {kind}, got {value!r}")
        cfg = cls(**values)
        try:
            check_fields(cfg, positive, "interarrival_bin_minutes", "readtime_bin_minutes")
            check_fields(cfg, positive, "max_read_gap_minutes", "roc_slope")
            check_fields(cfg, integer, "min_daily_closures", "min_gaps_per_fit", "min_daily_gaps")
            shares = ("device_tpf", "device_specificity")
            check_fields(cfg, share, *(key for key in shares if getattr(cfg, key) is not None))
        except ParameterError as exc:
            raise FormatError(f"{source}: {exc}") from exc
        if not cfg.work_start < cfg.work_end:
            raise FormatError(
                f"{source}: work_start {cfg.work_start} must be before work_end {cfg.work_end}"
            )
        return cfg
