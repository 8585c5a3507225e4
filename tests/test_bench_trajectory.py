"""BENCH_trajectory.json parses, and every record has the keys the README names."""

import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "BENCH_trajectory.json"
METRICS = ("wall_s", "peak_rss_mb", "setup_s")
KEYS = {"kind", "pr", "commit", "workload", "seeds", "runs", "seconds", *METRICS, "trace",
        "src_lines"}


def _records():
    return json.loads(PATH.read_text())["records"]


def test_trajectory_has_records():
    records = _records()
    assert records
    # a record is one workload at one commit: no pair repeats
    ids = [(r["pr"], r["commit"], r["workload"]) for r in records]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("record", _records(),
                         ids=lambda r: f"pr{r.get('pr')}-{r.get('workload')}")
def test_record_has_every_key(record):
    assert KEYS <= record.keys()
    assert record["kind"] == "perfbench"
    assert isinstance(record["pr"], int)
    assert record["commit"] is None or isinstance(record["commit"], str)
    assert record["seeds"] and record["runs"] >= 1 and record["seconds"] > 0
    for name in METRICS:
        m = record[name]
        assert m["q1"] <= m["median"] <= m["q3"], name
    assert record["trace"] and all(isinstance(v, int) for v in record["trace"].values())
    assert 0 < record["src_lines"]["code"] < record["src_lines"]["total"]
