import csv
import filecmp
import json
import logging

import pytest

from triagesim import __version__, cli
from triagesim.synthetic import SyntheticSpec, generate_corpus

CONFIG_YAML = """\
boundary_date: 2024-01-06
device_tpf: 0.906
device_specificity: 0.899
"""


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    spec = SyntheticSpec(
        seed=5,
        n_days=10,
        readers_per_day=5,
        closures_per_reader_day=45,
        closure_mix=(0.15, 0.25, 0.60),
        boundary_day=5,
    )
    truth = generate_corpus(root, spec)
    (root / "config.yaml").write_text(CONFIG_YAML)
    return root, truth


@pytest.fixture(scope="module")
def params_file(corpus, tmp_path_factory):
    root, _ = corpus
    out = tmp_path_factory.mktemp("estimate")
    code = cli.main(
        [
            "estimate",
            "--exam-log",
            str(root / "exam_log.csv"),
            "--closure-log",
            str(root / "closure_log.csv"),
            "--config",
            str(root / "config.yaml"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out / "params.json"


def read_table(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestEstimate:
    def test_full_document(self, corpus, params_file):
        _, truth = corpus
        doc = json.loads(params_file.read_text())
        assert doc["missing"] == []
        assert doc["prevalence"] == pytest.approx(truth["expected"]["prevalence"], rel=1e-12)
        assert doc["device"]["tpf"] == 0.906
        assert doc["device"]["fpf_adjusted"] > 0
        assert doc["interarrival"]["work"]["mean"] == pytest.approx(2.17, rel=0.15)
        assert doc["read_time"]["pe_positive"]["n_readers"] >= 5
        assert doc["diagnostics"]["exam_log"]["n_excluded_negative_tat"] == 25

    def test_partial_without_closure_log(self, corpus, tmp_path):
        root, _ = corpus
        code = cli.main(
            ["estimate", "--exam-log", str(root / "exam_log.csv"), "--out", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads((tmp_path / "params.json").read_text())
        assert doc["prevalence"] is None
        assert doc["missing"] == [
            "counts",
            "device.fpf_adjusted",
            "device.specificity",
            "device.tpf",
            "effective_nondiseased_read_time",
            "prevalence",
            "read_time.non_chest_ct",
            "read_time.non_pe_positive",
            "read_time.pe_positive",
            "read_time_diseased",
        ]
        assert doc["interarrival"]["work"] is not None

    @pytest.mark.parametrize(
        "case, missing",
        [
            (
                "no closure log",
                [
                    "counts",
                    "device.fpf_adjusted",
                    "effective_nondiseased_read_time",
                    "prevalence",
                    "read_time.non_chest_ct",
                    "read_time.non_pe_positive",
                    "read_time.pe_positive",
                    "read_time_diseased",
                ],
            ),
            ("no config", ["device.fpf_adjusted", "device.specificity", "device.tpf"]),
            ("no pe_positive closures", ["read_time.pe_positive", "read_time_diseased"]),
        ],
    )
    def test_missing_fields_pinned(self, corpus, tmp_path, case, missing):
        root, _ = corpus
        closure_log = tmp_path / "closure_log.csv"
        lines = (root / "closure_log.csv").read_text().splitlines(keepends=True)
        if case == "no pe_positive closures":
            lines = [line for line in lines if not line.rstrip().endswith(",pe_positive")]
        closure_log.write_text("".join(lines))
        argv = ["estimate", "--exam-log", str(root / "exam_log.csv"), "--out", str(tmp_path)]
        if case != "no closure log":
            argv += ["--closure-log", str(closure_log)]
        if case != "no config":
            argv += ["--config", str(root / "config.yaml")]
        assert cli.main(argv) == 0
        doc = json.loads((tmp_path / "params.json").read_text())
        assert doc["missing"] == missing
        for dotted in missing:
            head, _, tail = dotted.partition(".")
            value = doc[head][tail] if tail else doc[head]
            assert value is None or all(v is None for v in value.values())

    def test_duplicate_exam_ids_reported(self, corpus, tmp_path):
        # The same exam logged twice: estimate and compare count the later
        # row as a duplicate and keep everything else as before.
        root, truth = corpus
        lines = (root / "exam_log.csv").read_text().splitlines(keepends=True)
        exam_log = tmp_path / "exam_log.csv"
        exam_log.write_text("".join(lines) + lines[7])
        config = str(root / "config.yaml")
        for command in ("estimate", "compare"):
            argv = [command, "--exam-log", str(exam_log), "--config", config, "--out", str(tmp_path)]
            assert cli.main(argv) == 0
        diagnostics = json.loads((tmp_path / "params.json").read_text())["diagnostics"]["exam_log"]
        assert diagnostics["n_duplicate_exam_id"] == 1
        assert diagnostics["n_rows"] == truth["exam_log"]["n_rows"] + 1
        assert diagnostics["n_retained"] == truth["exam_log"]["n_retained"]
        meta = json.loads((tmp_path / "compare_meta.json").read_text())
        assert meta["n_duplicate_exam_id"] == 1
        assert meta["n_rows"] == truth["exam_log"]["n_rows"] + 1

    def test_bad_header_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        assert cli.main(["estimate", "--exam-log", str(bad), "--out", str(tmp_path)]) == 2


def _unreadable_case(case, corpus, params_file, tmp_path):
    """The argv of one unreadable-input case and the path it must name."""
    root, _ = corpus
    exam_log, config = str(root / "exam_log.csv"), str(root / "config.yaml")
    absent = tmp_path / "absent"
    if case == "missing --exam-log":
        return ["estimate", "--exam-log", str(absent)], absent
    if case == "missing --closure-log":
        return ["estimate", "--exam-log", exam_log, "--closure-log", str(absent)], absent
    if case == "missing --config":
        return ["compare", "--exam-log", exam_log, "--config", str(absent)], absent
    if case == "missing --params":
        return ["sweep", "--params", str(absent)], absent
    if case == "directory as --exam-log":
        return ["estimate", "--exam-log", str(tmp_path)], tmp_path
    bad = tmp_path / "bad"
    if case == "0xff in an exam log row":
        lines = (root / "exam_log.csv").read_bytes().splitlines(keepends=True)
        lines[5] = lines[5].replace(b",", b"\xff,", 1)
        bad.write_bytes(b"".join(lines))
        return ["estimate", "--exam-log", str(bad)], bad
    if case.startswith("a quoted cell past csv's field limit"):
        # csv.reader refuses a cell longer than csv.field_size_limit().
        name = "exam_log.csv" if case.endswith("exam log") else "closure_log.csv"
        lines = (root / name).read_text().splitlines(keepends=True)
        cells = lines[5].split(",")
        cells[-1] = '"' + "x" * (csv.field_size_limit() + 10) + '"\n'
        lines[5] = ",".join(cells)
        bad.write_text("".join(lines))
        if name == "exam_log.csv":
            return ["estimate", "--exam-log", str(bad)], bad
        return ["estimate", "--exam-log", exam_log, "--closure-log", str(bad)], bad
    assert case == "0xff in the params file"
    bad.write_bytes(params_file.read_bytes().replace(b"schema_version", b"schema\xffversion"))
    return ["sweep", "--params", str(bad)], bad


@pytest.mark.parametrize(
    "case",
    [
        "missing --exam-log",
        "missing --closure-log",
        "missing --config",
        "missing --params",
        "directory as --exam-log",
        "0xff in an exam log row",
        "0xff in the params file",
        "a quoted cell past csv's field limit in the exam log",
        "a quoted cell past csv's field limit in the closure log",
    ],
)
def test_unreadable_input_exits_2(corpus, params_file, tmp_path, caplog, case):
    argv, path = _unreadable_case(case, corpus, params_file, tmp_path)
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and f"cannot read {path}" in errors[0]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["oracle", "estimate"])
def test_out_naming_a_file_exits_2(corpus, tmp_path, caplog, command):
    root, _ = corpus
    argv = {
        "oracle": ["oracle", "--arrival-rates", "0.1", "--service-rate", "0.2", "--servers", "1"],
        "estimate": ["estimate", "--exam-log", str(root / "exam_log.csv")],
    }[command]
    out = tmp_path / "taken"
    out.write_text("a file\n")
    assert cli.main([*argv, "--out", str(out)]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and f"--out {out} " in errors[0]
    assert list(tmp_path.iterdir()) == [out] and out.read_text() == "a file\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--exam-log", "exam.csv", "--seed", "1"],
        ["estimate", "--exam-log", "exam.csv", "--quick"],
        ["compare", "--exam-log", "exam.csv", "--seed", "1"],
        ["compare", "--exam-log", "exam.csv", "--quick"],
        ["oracle", "--arrival-rates", "0.1", "--service-rate", "0.2", "--servers", "1", "--quick"],
        ["sweep", "--params", "params.json", "--config", "config.yaml"],
        ["oracle", "--arrival-rates", "0.1", "--service-rate", "0.2", "--servers", "1", "--config", "config.yaml"],
    ],
    ids=" ".join,
)
def test_flag_the_command_never_reads_exits_2(tmp_path, capsys, argv):
    # Only sweep and roc-sweep read --seed and --quick; oracle reads --seed.
    # Only estimate, compare and roc-sweep read --config.
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*argv, "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, dotted, value",
    [
        ("sweep", "prevalence", "abc"),
        ("sweep", "prevalence", [0.003]),
        ("sweep", "prevalence", "0.003"),
        ("sweep", "prevalence", True),
        ("sweep", "device.tpf", {"value": 0.9}),
        ("sweep", "read_time_diseased", "12"),
        ("roc-sweep", "interarrival.work.mean", "x"),
        ("roc-sweep", "counts.n_non_chest_ct", 12.5),
    ],
)
def test_params_value_of_the_wrong_type_exits_2(params_file, tmp_path, caplog, command, dotted, value):
    # Such values once ended in a ValueError or TypeError traceback, or were
    # read as numbers: "0.003" as 0.003 and true as 1.0.
    doc = json.loads(params_file.read_text())
    *path, key = dotted.split(".")
    node = doc
    for part in path:
        node = node[part]
    node[key] = value
    bad = tmp_path / "params.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = [command, "--params", str(bad), "--trials", "2", "--patients", "500", "--out", str(out)]
    argv += ["--interarrival", "14"] if command == "sweep" else ["--points", "2"]
    argv += ["--radiologists", "6"]
    assert cli.main(argv) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and f"{dotted} must be" in errors[0], errors
    assert list(out.iterdir()) == []


class TestSweep:
    def run_sweep(self, params_file, out, extra=()):
        return cli.main(
            [
                "sweep",
                "--params",
                str(params_file),
                "--interarrival",
                "2.5,14",
                "--radiologists",
                "1,4",
                "--trials",
                "3",
                "--patients",
                "2000",
                "--out",
                str(out),
                *extra,
            ]
        )

    def test_rows_and_feasibility(self, params_file, tmp_path):
        assert self.run_sweep(params_file, tmp_path) == 0
        rows = read_table(tmp_path / "sweep.csv")
        assert len(rows) == 4
        by_key = {(r["interarrival"], r["n_radiologists"]): r for r in rows}
        infeasible = by_key[("2.5", "1")]
        assert infeasible["feasible"] == "false"
        assert infeasible["mean_savings"] == ""
        feasible = by_key[("14", "4")]
        assert feasible["feasible"] == "true"
        assert float(feasible["mean_savings"]) == float(feasible["mean_savings"])
        meta = json.loads((tmp_path / "sweep_meta.json").read_text())
        assert meta["seed"] == 42 and meta["n_trials"] == 3

    def test_byte_identical_reruns_and_workers(self, params_file, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert self.run_sweep(params_file, a) == 0
        assert self.run_sweep(params_file, b) == 0
        assert self.run_sweep(params_file, c, extra=("--workers", "3")) == 0
        assert filecmp.cmp(a / "sweep.csv", b / "sweep.csv", shallow=False)
        assert filecmp.cmp(a / "sweep.csv", c / "sweep.csv", shallow=False)

    @pytest.mark.parametrize(
        "flag, grid",
        [
            ("--radiologists", "2,x"),
            ("--radiologists", "2.5"),
            ("--interarrival", "1:2"),
            ("--radiologists", "2:5:0.5"),
            ("--interarrival", "1:inf:1"),
        ],
    )
    def test_unparseable_grid_exits_3(self, params_file, tmp_path, caplog, flag, grid):
        argv = ["sweep", "--params", str(params_file), flag, grid, "--trials", "2", "--patients", "500"]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 3
        assert f"cannot read grid {grid!r}" in caplog.text
        assert not (tmp_path / "sweep.csv").exists()

    def test_integer_range_grid(self):
        assert cli._parse_grid("2:4:1", int) == [2, 3, 4]

    def test_burn_in_past_the_stream_exits_3(self, params_file, tmp_path):
        assert self.run_sweep(params_file, tmp_path, extra=("--burn-in", "2000")) == 3
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_workers_below_one_exits_3(self, params_file, tmp_path, caplog, workers):
        assert self.run_sweep(params_file, tmp_path, extra=("--workers", workers)) == 3
        assert f"workers must be >= 1, got {workers}" in caplog.text
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("seed", [str(2**64), str(2**64 + 7), "-1"])
    def test_seed_outside_64_bits_exits_3(self, params_file, tmp_path, caplog, seed):
        # The seed was masked to 64 bits: --seed 2**64 replayed seed 0's
        # streams while sweep_meta.json recorded 2**64.
        assert self.run_sweep(params_file, tmp_path, extra=("--seed", seed)) == 3
        assert f"master_seed must be in [0, {2**64 - 1}], got {seed}" in caplog.text
        assert not (tmp_path / "sweep.csv").exists()

    def test_infinite_interarrival_exits_3(self, params_file, tmp_path, caplog):
        # An infinite mean gave utilisation 0 and then failed in replay_stream
        # with "arrival times must be finite and nondecreasing".
        argv = ["sweep", "--params", str(params_file), "--interarrival", "inf", "--trials", "2", "--patients", "500"]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 3
        assert "mean_interarrival must be finite and > 0, got inf" in caplog.text
        assert not (tmp_path / "sweep.csv").exists()

    def test_all_infeasible_exits_3(self, params_file, tmp_path):
        code = cli.main(
            [
                "sweep",
                "--params",
                str(params_file),
                "--interarrival",
                "1.0",
                "--radiologists",
                "1",
                "--trials",
                "2",
                "--patients",
                "500",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 3

    def test_missing_params_field_exits_3(self, corpus, tmp_path):
        root, _ = corpus
        out = tmp_path / "partial"
        assert (
            cli.main(
                ["estimate", "--exam-log", str(root / "exam_log.csv"), "--out", str(out)]
            )
            == 0
        )
        code = cli.main(
            [
                "sweep",
                "--params",
                str(out / "params.json"),
                "--trials",
                "2",
                "--patients",
                "500",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 3

    def test_trial_without_diseased_exam_exits_3(self, params_file, tmp_path, caplog):
        # With no diseased exam there is no saving to average: the command
        # fails instead of writing nan for a feasible point.
        doc = json.loads(params_file.read_text())
        doc["prevalence"] = 0.0
        params = tmp_path / "params.json"
        params.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert self.run_sweep(params, out) == 3
        assert "trial 0 has no diseased exam after burn-in" in caplog.text
        assert not (out / "sweep.csv").exists()


class TestRocSweep:
    def test_endpoints_and_determinism(self, params_file, tmp_path):
        args = [
            "roc-sweep",
            "--params",
            str(params_file),
            "--points",
            "3",
            "--radiologists",
            "3",
            "--interarrival",
            "12",
            "--trials",
            "3",
            "--patients",
            "2000",
        ]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
        assert filecmp.cmp(
            tmp_path / "a" / "roc_sweep.csv", tmp_path / "b" / "roc_sweep.csv", shallow=False
        )
        rows = read_table(tmp_path / "a" / "roc_sweep.csv")
        assert len(rows) == 3
        assert float(rows[0]["fpf_adjusted"]) == 0.0 and float(rows[0]["tpf"]) == 0.0
        assert float(rows[-1]["fpf_adjusted"]) == 1.0 and float(rows[-1]["tpf"]) == 1.0
        # Flagging nothing or everything leaves the order unchanged.
        assert float(rows[0]["mean_savings"]) == 0.0
        assert float(rows[-1]["mean_savings"]) == 0.0
        assert float(rows[1]["mean_savings"]) > 0.0


class TestOracle:
    def test_single_class_equals_fifo(self, tmp_path):
        code = cli.main(
            [
                "oracle",
                "--arrival-rates",
                "0.1",
                "--service-rate",
                "0.16666666666666666",
                "--servers",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_table(tmp_path / "oracle.csv")
        fifo = next(r for r in rows if r["class"] == "fifo")
        class1 = next(r for r in rows if r["class"] == "class1")
        assert fifo["wq_analytic"] == class1["wq_analytic"]
        assert float(fifo["wq_analytic"]) == pytest.approx(9.0, rel=1e-9)
        assert float(class1["savings_vs_fifo"]) == 0.0

    def test_compare_z_scores(self, tmp_path):
        code = cli.main(
            [
                "oracle",
                "--arrival-rates",
                "0.06,0.14",
                "--service-rate",
                "0.16666666666666666",
                "--servers",
                "2",
                "--compare",
                "--patients",
                "60000",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_table(tmp_path / "oracle.csv")
        assert set(r["class"] for r in rows) == {"fifo", "class1", "class2"}
        for row in rows:
            assert abs(float(row["z_score"])) <= 4.0

    def test_unstable_load_exits_3(self, tmp_path):
        code = cli.main(
            [
                "oracle",
                "--arrival-rates",
                "0.4",
                "--service-rate",
                "0.1",
                "--servers",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 3

    def test_compare_with_empty_class_exits_3(self, tmp_path, caplog):
        # Class 1 is so rare that 200 simulated patients hold none of it:
        # no z-score exists, so the command fails instead of writing nan.
        code = cli.main(
            [
                "oracle",
                "--arrival-rates",
                "0.00001,0.5",
                "--service-rate",
                "1",
                "--servers",
                "1",
                "--compare",
                "--patients",
                "200",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 3
        assert "class1 sample has 0 exam(s)" in caplog.text
        assert not (tmp_path / "oracle.csv").exists()

    @pytest.mark.parametrize(
        "rates, service_rate, extra",
        [("nan", "0.2", []), ("0.1", "nan", []), ("0", "0.2", ["--compare"])],
        ids=["nan-rate", "nan-service-rate", "zero-rate-compare"],
    )
    def test_unusable_rates_exit_3(self, tmp_path, rates, service_rate, extra):
        argv = ["oracle", "--arrival-rates", rates, "--service-rate", service_rate, "--servers", "2"]
        assert cli.main([*argv, *extra, "--out", str(tmp_path)]) == 3
        assert not (tmp_path / "oracle.csv").exists()


class TestCompare:
    def test_layout_and_shift_recovery(self, corpus, tmp_path):
        root, truth = corpus
        code = cli.main(
            [
                "compare",
                "--exam-log",
                str(root / "exam_log.csv"),
                "--config",
                str(root / "config.yaml"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        with open(tmp_path / "compare.csv", newline="") as handle:
            header = tuple(next(csv.reader(handle)))
        assert header == cli.COMPARE_COLUMNS
        rows = read_table(tmp_path / "compare.csv")
        assert [r["cohort"] for r in rows] == ["work", "off"]
        shift = truth["expected"]["tat_shift"]
        for row in rows:
            low, high = float(row["savings_ci_low"]), float(row["savings_ci_high"])
            assert low <= shift <= high

    def test_stats_called_through_cli_names(self, corpus, tmp_path, monkeypatch):
        # A caller that wraps cli.tat_summary or cli.time_savings_test, as
        # the benchmark's tracer does, sees every call.
        calls = []
        for name in ("tat_summary", "time_savings_test"):
            inner = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda *a, _fn=inner, _name=name: calls.append(_name) or _fn(*a)
            )
        root, _ = corpus
        config = str(root / "config.yaml")
        exam_log = str(root / "exam_log.csv")
        argv = ["compare", "--exam-log", exam_log, "--config", config, "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert sorted(calls) == ["tat_summary"] * 4 + ["time_savings_test"] * 2

    def test_missing_boundary_exits_3(self, corpus, tmp_path):
        root, _ = corpus
        (tmp_path / "cfg.yaml").write_text("device_tpf: 0.9\n")
        code = cli.main(
            [
                "compare",
                "--exam-log",
                str(root / "exam_log.csv"),
                "--config",
                str(tmp_path / "cfg.yaml"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 3

    def test_empty_period_exits_4(self, corpus, tmp_path):
        root, _ = corpus
        (tmp_path / "cfg.yaml").write_text("boundary_date: 2030-01-01\n")
        code = cli.main(
            [
                "compare",
                "--exam-log",
                str(root / "exam_log.csv"),
                "--config",
                str(tmp_path / "cfg.yaml"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 4


def _compare_counts(doc, compare):
    return [(row["cohort"], row["n_pre"], row["n_post"]) for row in compare]


def _read_time_means(doc, compare):
    return [doc["read_time"][c]["mean"] for c in ("pe_positive", "non_pe_positive", "non_chest_ct")]


# Each analysis key at a non-default value, and the output it governs.
SETTINGS = {
    "interarrival_bin_minutes: 0.5": lambda doc, compare: doc["interarrival"]["work"]["mean"],
    # Weekday off-hour fits have about 280 gaps and weekend ones about 450.
    "min_daily_gaps: 350": lambda doc, compare: doc["interarrival"]["off"]["n_days"],
    "max_read_gap_minutes: 20": lambda doc, compare: doc["diagnostics"]["closure_log"][
        "exclusions"
    ]["n_gaps_over_max"],
    "min_daily_closures: 100": lambda doc, compare: doc["diagnostics"]["closure_log"][
        "exclusions"
    ]["n_reader_days_dropped"],
    "min_gaps_per_fit: 1000000": lambda doc, compare: doc["read_time"]["pe_positive"],
    "readtime_bin_minutes: 1.0": _read_time_means,
    "weighted_fits: true": _read_time_means,
    "holidays: [2024-01-03]": _compare_counts,
    "work_start: 10:00": _compare_counts,
    "work_end: 15:00": _compare_counts,
}


class TestAnalysisSettings:
    """Every analysis key set in the YAML reaches estimate and compare."""

    def run(self, corpus, out, setting=""):
        root, _ = corpus
        (out / "config.yaml").write_text(CONFIG_YAML + setting + "\n")
        logs = ["--exam-log", str(root / "exam_log.csv"), "--config", str(out / "config.yaml")]
        closures = ["--closure-log", str(root / "closure_log.csv")]
        assert cli.main(["estimate", *logs, *closures, "--out", str(out)]) == 0
        assert cli.main(["compare", *logs, "--out", str(out)]) == 0
        return json.loads((out / "params.json").read_text()), read_table(out / "compare.csv")

    @pytest.fixture(scope="class")
    def baseline(self, corpus, tmp_path_factory):
        return self.run(corpus, tmp_path_factory.mktemp("baseline"))

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_setting_moves_its_output(self, corpus, baseline, tmp_path, setting):
        output = SETTINGS[setting]
        assert output(*self.run(corpus, tmp_path, setting)) != output(*baseline)


SIMULATION_META = {"seed", "n_trials", "n_patients", "burn_in", "params_file", "quick"}
ORACLE_META = {"seed", "arrival_rates", "service_rate", "servers", "compare", "n_patients"}
# Per case: the output stem and the metadata keys besides command and version.
META_KEYS = {
    "sweep": ("sweep", SIMULATION_META | {"interarrival_grid", "radiologist_grid"}),
    "roc-sweep": (
        "roc_sweep",
        SIMULATION_META | {"n_points", "n_radiologists", "interarrival", "roc_slope", "curve_a"},
    ),
    "oracle": ("oracle", ORACLE_META),
    "oracle --compare": ("oracle", ORACLE_META),
    "compare": (
        "compare",
        {"boundary_date", "exam_log", "n_rows", "n_excluded_negative_tat", "n_duplicate_exam_id"},
    ),
}


@pytest.mark.parametrize("case", META_KEYS)
def test_metadata_keys(corpus, params_file, tmp_path, case):
    root, _ = corpus
    simulation = ["--params", str(params_file), "--trials", "2", "--patients", "500"]
    oracle = ["oracle", "--arrival-rates", "0.06,0.14", "--service-rate", "0.2", "--servers", "2"]
    argv = {
        "sweep": ["sweep", *simulation, "--interarrival", "14", "--radiologists", "4"],
        "roc-sweep": ["roc-sweep", *simulation, "--points", "2", "--interarrival", "12"],
        "oracle": oracle,
        "oracle --compare": [*oracle, "--compare", "--patients", "2000"],
        "compare": ["compare", "--exam-log", str(root / "exam_log.csv"), "--config", str(root / "config.yaml")],
    }[case]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    stem, keys = META_KEYS[case]
    meta = json.loads((tmp_path / f"{stem}_meta.json").read_text())
    assert set(meta) == keys | {"command", "triagesim_version"}
    assert meta["command"] == argv[0]
    assert meta["triagesim_version"] == __version__
