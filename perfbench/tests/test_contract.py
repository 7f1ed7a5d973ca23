"""The benchmark against its declaration in BENCHMARK.json."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.metrics import declared, result_line
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declaration():
    return declared(ROOT)


def test_declaration_is_well_formed(declaration):
    assert set(declaration) == {"command", "paths", "run_seconds",
                                "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in declaration["workloads"]] == list(WORKLOADS)
    for workload in declaration["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200
    names = [m["name"] for m in declaration["end_to_end"]
             + declaration["per_layer"]]
    assert len(names) == len(set(names))
    for metric in declaration["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declaration["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declaration["end_to_end"] + declaration["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in declaration["end_to_end"]
                 if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"]
                                 for m in declaration["end_to_end"])


def test_result_line_refuses_undeclared_or_missing_metrics(declaration):
    values = {m["name"]: 1.0 for m in declaration["end_to_end"]}
    line = result_line(declaration, False, correct=True, attempted=3,
                       failed=0, values=values)
    assert list(line["metrics"]) == list(values)
    with pytest.raises(KeyError):
        result_line(declaration, False, correct=True, attempted=3,
                    failed=0, values={**values, "extra": 1.0})
    with pytest.raises(KeyError):
        result_line(declaration, True, correct=True, attempted=3,
                    failed=0, values=values)


def test_every_per_layer_metric_is_mapped_in_the_readme(declaration):
    readme = (ROOT / "perfbench" / "README.md").read_text()
    for metric in declaration["per_layer"]:
        assert f"`{metric['name']}`" in readme, metric["name"]


def _run(cwd, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roi-burst",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_the_declaration(declaration, trace):
    done = _run(ROOT, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    kind = "per_layer" if trace else "end_to_end"
    assert list(line["metrics"]) == [m["name"] for m in declaration[kind]]
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] >= 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_the_same_seed_gives_the_same_frames():
    import numpy as np

    from perfbench.workloads import make_frames

    workload = WORKLOADS["roi-burst"]
    first, again = make_frames(workload, 5), make_frames(workload, 5)
    assert len(first) == len(workload.frame_mix)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not np.array_equal(first[0], make_frames(workload, 6)[0])
