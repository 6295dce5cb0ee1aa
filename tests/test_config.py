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
    path = tmp_path / "config.yaml"
    path.write_text(f"work_end: {text}\n")
    if expected is None:
        with pytest.raises(FormatError):
            AnalysisConfig.from_yaml(path)
    else:
        assert AnalysisConfig.from_yaml(path).work_end == expected


def test_bad_clock_exits_2(tmp_path):
    (tmp_path / "config.yaml").write_text("work_start: 30\n")
    argv = ["estimate", "--exam-log", str(tmp_path / "none.csv"), "--config", str(tmp_path / "config.yaml")]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 2
