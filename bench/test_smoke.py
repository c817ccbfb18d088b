"""Smoke test of the benchmark itself.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload at the tiny size with and without tracing, checks that
every metric named in BENCHMARK.json is printed with its unit and that no
operation fails, feeds deliberately corrupted outputs through the checker,
and checks that the benchmark refuses to run without the library.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import exact  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(workloads.DEFAULT_SEED), "--seconds", "5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _expected(trace):
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert record["fail_ratio"] == 0
    assert record["environment"]["STRUCTURA_MAX_SEARCH"] == os.environ.get(
        "STRUCTURA_MAX_SEARCH", "unset")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _expected(trace)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        # the layers a workload should bypass are never called
        with open(os.path.join(BENCH_DIR, "interactions.json")) as fh:
            mapped = json.load(fh)["map"]
        for key, entry in mapped.items():
            if workload in entry["no_change"] and f"{key}.calls" in got:
                assert result["metrics"][f"{key}.calls"]["value"] == 0, key


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_interaction_map_covers_every_layer_metric():
    with open(os.path.join(BENCH_DIR, "interactions.json")) as fh:
        mapped = json.load(fh)["map"]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["per_layer"]:
        name = m["name"]
        key = name if name in mapped else name.rsplit(".", 1)[0]
        assert key in mapped, name
        for move in mapped[key]["moves"]:
            assert move["metric"] in end_to_end
            assert move["workload"] in workloads.WORKLOADS
        assert set(mapped[key]["no_change"]) <= set(workloads.WORKLOADS)


def _first(workload, predicate=lambda item: True):
    items = workloads.corpus(workload, workloads.DEFAULT_SEED, 0, tiny=True)
    return next(it for it in items if predicate(it))


def _golden(workload):
    return run.load_golden(workload, workloads.DEFAULT_SEED)


@pytest.fixture(scope="module", autouse=True)
def library():
    run.load_library()


def test_clean_outputs_pass_the_checker():
    for workload in workloads.WORKLOADS:
        item = _first(workload)
        out = workloads.make_op(workload)(item.text)
        assert workloads.check(workload, item, out, _golden(workload)) == []


def test_wrong_invariant_factor_is_a_failure():
    item = _first("analyze", lambda it: it.stratum == "small-dense")
    rep = json.loads(workloads.make_op("analyze")(item.text))
    # multiply the last invariant factor by (s - 1): still monic, wrong value
    last = exact.from_json(rep["invariant_factors"][-1])
    rep["invariant_factors"][-1] = exact.to_json(exact.mul(last, exact.from_roots([1])))
    reasons = workloads.check("analyze", item, json.dumps(rep), _golden("analyze"))
    assert reasons
    # without the golden data the index-sum identity still catches it
    assert workloads.check("analyze", item, json.dumps(rep))


def test_nonzero_product_with_null_basis_is_a_failure():
    item = _first("analyze", lambda it: it.stratum == "small-lowrank")
    rep = json.loads(workloads.make_op("analyze")(item.text))
    basis = rep["right_null"]["basis"]
    assert basis["n"] >= 1
    basis["entries"][0] = ["1"] + basis["entries"][0]
    assert workloads.check("analyze", item, json.dumps(rep))


def test_failed_verification_is_a_failure():
    item = _first("roundtrip")
    out = json.loads(workloads.make_op("roundtrip")(item.text))
    out["verification"] = {"verdict": "fail", "mismatches": ["rank"]}
    assert workloads.check("roundtrip", item, json.dumps(out))


def test_minor_out_of_bounds_is_a_failure():
    item = _first("minors", lambda it: len(it.doc["Z"]) == 1)
    out = json.loads(workloads.make_op("minors")(item.text))
    out["J"] = [item.doc["Z"][0] + 1]
    assert workloads.check("minors", item, json.dumps(out))


def test_without_the_library_it_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("analyze", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
