from datetime import time

import pytest

from triagesim import FormatError, cli
from triagesim.config import AnalysisConfig


@pytest.mark.parametrize(
    "text, expected",
    [
        # YAML 1.1 reads an unquoted 17:00 or 8:30 as the base-60 ints 1020
        # and 510; 08:00 stays a string.
        ("17:00", time(17, 0)),
        ("8:30", time(8, 30)),
        ("08:00", time(8, 0)),
        ('"16:45"', time(16, 45)),
        ("7", time(7, 0)),
        ("30", None),
        ("24:00", None),
        ('"8:75"', None),
        ("true", None),
        ("8.5", None),
    ],
)
def test_work_hours_from_yaml(tmp_path, text, expected):
    # A work_start of 0:00 keeps a 7:00 work_end after it.
    path = tmp_path / "config.yaml"
    path.write_text(f"work_start: 0\nwork_end: {text}\n")
    if expected is None:
        with pytest.raises(FormatError):
            AnalysisConfig.from_yaml(path)
    else:
        assert AnalysisConfig.from_yaml(path).work_end == expected


def test_bad_clock_exits_2(tmp_path):
    (tmp_path / "config.yaml").write_text("work_start: 30\n")
    argv = ["estimate", "--exam-log", str(tmp_path / "none.csv"), "--config", str(tmp_path / "config.yaml")]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "text, key",
    [
        ("5\n", "expected a mapping of config keys"),
        ("min_daily_gaps: x\n", "min_daily_gaps must be int"),
        ("interarrival_bin_minutes: abc\n", "interarrival_bin_minutes must be float"),
        ("interarrival_bin_minutes: .nan\n", "interarrival_bin_minutes must be finite"),
        ("holidays: 2024-01-03\n", "holidays must be a list of dates"),
        ("weighted_fits: maybe\n", "weighted_fits must be bool"),
        ("min_gaps_per_fit: true\n", "min_gaps_per_fit must be int"),
        ("device_tpf: 2.0\n", "device_tpf must be in [0, 1]"),
        ("work_start: 17:00\nwork_end: 08:00\n", "work_start 17:00:00 must be before work_end"),
        ("interarrival_bin_minutes: 0\n", "interarrival_bin_minutes must be > 0"),
        ("readtime_bin_minutes: -2\n", "readtime_bin_minutes must be > 0"),
        ("max_read_gap_minutes: 0\n", "max_read_gap_minutes must be > 0"),
        ("roc_slope: 0\n", "roc_slope must be > 0"),
        ("min_daily_closures: -1\n", "min_daily_closures must be >= 0"),
        ("min_gaps_per_fit: -1\n", "min_gaps_per_fit must be >= 0"),
        ("min_daily_gaps: -1\n", "min_daily_gaps must be >= 0"),
        ("work_start: 30\n", "work_start: cannot parse clock time 30"),
        ('work_end: "8:75"\n', "work_end: cannot parse clock time '8:75'"),
        ("boundary_date: 2024-02-30\n", "boundary_date: cannot parse date '2024-02-30'"),
        ("holidays: [2024-01-01, 2024-13-01]\n", "holidays: cannot parse date '2024-13-01'"),
    ],
)
def test_malformed_value_exits_2(tmp_path, caplog, text, key):
    (tmp_path / "config.yaml").write_text(text)
    argv = ["estimate", "--exam-log", str(tmp_path / "none.csv"), "--config", str(tmp_path / "config.yaml")]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 2
    assert key in caplog.text
    assert not (tmp_path / "params.json").exists()
