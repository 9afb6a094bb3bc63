"""Self-tests of the benchmark, at smoke size.

    python3 -m pytest -q perfbench

Runs every workload end to end in smoke mode, checks the printed metric
names and units against BENCHMARK.json, trips the correctness gate with
deliberately wrong reference answers, and checks the reference oracles
against plain brute force.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from itertools import combinations, permutations

import pytest

import clibatch
import layers
import reference as ref
import run
import tasks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    code, lines, err = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace), "--smoke")
    assert code == 0, err
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for name in result["metrics"]:
        assert any(line.startswith(name + " ") for line in lines), name


def test_exact_counts_repeat_for_one_seed():
    runs = []
    for _ in range(2):
        code, lines, err = run_bench("--workload", "generic-inputs", "--seed", "5",
                                     "--trace", "1", "--smoke")
        assert code == 0, err
        runs.append(json.loads(lines[-1])["metrics"])
    for name in layers.EXACT_COUNTS:
        assert runs[0][name]["value"] == runs[1][name]["value"], name


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = run_bench("--workload", "paper-audit", "--seed", "1", "--seconds", "1",
                               "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


# ------------------------------------------------------------------ gate

def run_tasks(todo):
    failures = []
    for task in todo:
        problems = task.check(task.run())
        if problems:
            failures.append((task.kind, problems))
    return failures


def test_gate_passes_then_trips_on_wrong_turan_reference(monkeypatch):
    import expansions

    assert run_tasks(tasks.build(expansions, "paper-audit", 2, smoke=True)) == []
    table = ref.load_turan_table()
    wrong = {key: dict(row, value=row["value"] + 1) for key, row in table.items()}
    monkeypatch.setattr(ref, "load_turan_table", lambda: wrong)
    failures = run_tasks(tasks.build(expansions, "paper-audit", 2, smoke=True))
    kinds = {kind for kind, _ in failures}
    assert "search.turan_exact" in kinds
    assert any("!= reference" in p for _, problems in failures for p in problems)


def test_gate_trips_on_wrong_crosscut_reference(monkeypatch):
    import expansions

    true_key = ref.crosscut_key
    monkeypatch.setattr(ref, "crosscut_key", lambda n, e: (true_key(n, e)[0] + 1, 0))
    todo = [t for t in tasks.build(expansions, "generic-inputs", 2, smoke=True)
            if t.kind == "crosscut.best_pair_cyclic"]
    assert todo and len(run_tasks(todo)) == len(todo)


def test_cli_judge_flags_wrong_answers_and_known_defects():
    _, calls = clibatch.plan(4, 1, smoke=True)
    turan = next(c for c in calls if c.argv[:2] == ["turan", "--n"] and c.expect_code == 0)
    good = {"n": 7, "value": 5, "exact": True, "witness": [[0, 1, 2], [0, 3, 4], [0, 5, 6],
                                                           [1, 3, 5], [2, 4, 6]],
            "method": "branch-and-bound", "nodes": 1}
    verdict, problems = clibatch.judge(turan, 0, json.dumps(dict(good, value=6)), "")
    assert verdict == "fail"
    defect = next(c for c in calls if c.known_defect)
    assert clibatch.judge(defect, 1, "", "Traceback ...\nTypeError: x")[0] == "known"
    assert clibatch.judge(defect, 2, "", "error: bad input")[0] == "pass"
    assert clibatch.judge(defect, 0, "{}", "")[0] == "fail"


# ------------------------------------------------------------- oracles

def brute_key(n, edges):
    best = None
    for r in range(n + 1):
        for subset in combinations(range(n), r):
            inside = set(subset)
            if any(u in inside and v in inside for u, v in edges):
                continue
            weight = r + sum(1 for u, v in edges if u not in inside and v not in inside)
            key = (weight, -r)
            best = key if best is None or key < best else best
    return best[0], -best[1]


def test_crosscut_key_matches_subset_scan():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(2, 9)
        edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(1, 2 * n))}
        assert ref.crosscut_key(n, sorted(edges)) == brute_key(n, sorted(edges))


def test_contains_matches_permutation_scan():
    rng = random.Random(12)
    for _ in range(150):
        n = rng.randint(5, 7)
        host = rng.sample(list(combinations(range(n), 3)), rng.randint(1, 10))
        pat_n = rng.randint(4, 5)
        pattern = rng.sample(list(combinations(range(pat_n), 3)), rng.randint(1, 3))
        want = any(all(tuple(sorted(image[v] for v in e)) in set(host) for e in pattern)
                   for image in permutations(range(n), pat_n))
        assert ref.contains(n, host, pat_n, pattern) == want


def test_manifest_parameters_match_the_code():
    with open(os.path.join(HERE, "manifest.json")) as fh:
        manifest = json.load(fh)
    params = dict(paper_audit=tasks.PARAMS["paper-audit"]["full"],
                  generic_inputs=tasks.PARAMS["generic-inputs"]["full"],
                  cli_batch=clibatch.PARAMS["full"])
    for name, table in params.items():
        got = manifest["workloads"][name.replace("_", "-")]["parameters"]
        assert got == json.loads(json.dumps(table)), name
    assert manifest["passes"]["nominal_pass_s"] == run.NOMINAL_PASS_S
    assert {w["name"] for w in SPEC["workloads"]} == set(manifest["workloads"])
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _, _ in layers.END_TO_END]
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _, _ in layers.PER_LAYER]
