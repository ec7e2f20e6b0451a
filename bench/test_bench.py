"""Self-test of the benchmark harness at tiny sizes.

Checks that every metric named in BENCHMARK.json is emitted with its unit,
and that a corrupted answer is caught by the checker and counted.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
# Every workload the harness can run, also those BENCHMARK.json leaves out.
WORKLOADS = sorted(run.BUILDERS)


def test_benchmark_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.fixture(scope="module")
def gd():
    return run.load_gamedim()


def _tiny(gd, workload, trace):
    return run.run_workload(workload, 7, 0, trace, tiny=True, gd=gd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(gd, workload, trace):
    result, details = _tiny(gd, workload, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert details["env"]["rational_backend"] in ("fractions.Fraction", "gmpy2.mpq")


def test_enum_io_solves_no_lp(gd):
    result, _ = _tiny(gd, "enum-io", 1)
    assert result["metrics"]["lp.solves"]["value"] == 0


@pytest.mark.parametrize("trace", [0, 1])
def test_corrupted_answer_counts_as_failure(gd, monkeypatch, trace):
    real = gd.dimension

    def off_by_one(game):
        witness = real(game)
        return dataclasses.replace(witness, value=witness.value + 1)

    monkeypatch.setattr(gd, "dimension", off_by_one)
    result, details = _tiny(gd, "solve-corpus", trace)
    assert not result["correct"] and result["failed"] > 0
    assert any(label.startswith("dim/") for label in details["failures"])
    if trace:
        assert result["metrics"]["failed_frac"]["value"] > 0
