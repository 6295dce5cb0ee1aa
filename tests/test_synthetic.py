import filecmp
import hashlib

import pytest

from triagesim import ParameterError
from triagesim.synthetic import SyntheticSpec, generate_corpus


def test_generation_is_deterministic(tmp_path):
    spec = SyntheticSpec(seed=9, n_days=6)
    truth_a = generate_corpus(tmp_path / "a", spec)
    truth_b = generate_corpus(tmp_path / "b", spec)
    assert truth_a == truth_b
    for name in ("exam_log.csv", "closure_log.csv", "truth.json"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)


def test_generated_bytes_are_pinned(tmp_path):
    # A change to the draw order or to any draw changes these digests.
    generate_corpus(tmp_path, SyntheticSpec(seed=9, n_days=6))
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("exam_log.csv", "closure_log.csv", "truth.json")
    }
    assert digests == {
        "exam_log.csv": "af1812ae1e7dfbd80dafcaeba64210bfbb7be7460d88b3a637de5cbf0799aee3",
        "closure_log.csv": "d120ef809f38f368cda3819e7c1532844cf1e8952b36447463a08c48cd999797",
        "truth.json": "27246bde15c433289161967674f5f5f38ca872b289ce3d96dfe882b1c9ff50aa",
    }


@pytest.mark.parametrize(
    "mix",
    [(-0.1, 0.5, 0.6), (0.0, 0.0, 0.0), (0.2, 0.8), (float("nan"), 0.5, 0.5), (float("inf"), 0.5, 0.5)],
    ids=["negative", "all-zero", "two-classes", "nan", "inf"],
)
def test_closure_mix_is_validated(mix):
    with pytest.raises(ParameterError):
        SyntheticSpec(closure_mix=mix)


def test_truth_counts_match_files(tmp_path):
    spec = SyntheticSpec(seed=3, n_days=5)
    truth = generate_corpus(tmp_path, spec)
    exam_lines = (tmp_path / "exam_log.csv").read_text().strip().splitlines()
    closure_lines = (tmp_path / "closure_log.csv").read_text().strip().splitlines()
    assert len(exam_lines) - 1 == truth["exam_log"]["n_rows"]
    assert len(closure_lines) - 1 == truth["closure_log"]["n_rows"]
    per_class = truth["closure_log"]["per_class"]
    assert sum(per_class.values()) == truth["closure_log"]["n_rows"]


def test_seed_changes_content(tmp_path):
    generate_corpus(tmp_path / "a", SyntheticSpec(seed=1, n_days=4))
    generate_corpus(tmp_path / "b", SyntheticSpec(seed=2, n_days=4))
    assert not filecmp.cmp(tmp_path / "a" / "exam_log.csv", tmp_path / "b" / "exam_log.csv", shallow=False)
