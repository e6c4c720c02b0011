"""Self-tests of the benchmark: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import filecmp
import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("train-joint", "train-mono")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        return json.load(stream)


def smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def world(tmp_path, name, seed):
    out = tmp_path / name
    gen.generate(seed, out, **run.SMOKE_SIZE)
    gen.write_models(out)
    return out


def test_generator_is_deterministic(tmp_path):
    first, again, other = (world(tmp_path, "first", 5), world(tmp_path, "again", 5),
                           world(tmp_path, "other", 6))
    names = sorted(os.listdir(first))
    assert "target_joint.model" in names and "aligned.tsv" in names
    match, mismatch, errors = filecmp.cmpfiles(first, again, names, shallow=False)
    assert match == names and not mismatch and not errors
    _, mismatch, _ = filecmp.cmpfiles(first, other, names, shallow=False)
    assert mismatch == names


def test_aligned_pairs_hold_noise_that_extraction_drops(tmp_path):
    from cogseg.cognates import extract, read_pairs_tsv

    rows = read_pairs_tsv(world(tmp_path, "w", 7) / "aligned.tsv")
    kept = extract(rows)
    assert 0 < len(kept) < len(rows)
    assert any(not w.isalpha() for r in rows for w in (r.word_a, r.word_b))
    assert any(r.count < 2 for r in rows)
    assert all(w.isalpha() for p in kept for w in (p.word_a, p.word_b))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_checks_and_prints_declared_metrics(workload):
    declared = spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = smoke(workload, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        metrics = result["metrics"]
        assert sorted(metrics) == sorted(m["name"] for m in declared[key])
        for m in declared[key]:
            assert metrics[m["name"]]["unit"] == m["unit"]
        if trace:
            spans_fit_inside_parents()
        else:
            assert all(v["value"] > 0 for v in metrics.values())


def spans_fit_inside_parents():
    files = glob.glob(os.path.join(ROOT, ".perfbench_work", "*", "trace", "*.spans"))
    assert files
    for path in files:
        spans = child.read_spans(path)
        assert spans and spans[0][0].startswith("cli.") and spans[0][3] == -1
        for name, start, end, parent in spans:
            assert start <= end
            if parent >= 0:
                _, p_start, p_end, _ = spans[parent]
                assert p_start <= start and end <= p_end, (name, spans[parent][0])


def test_names_follow_the_benchmark_rules():
    declared = spec()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in declared[key]]
    assert len(names) == len(set(names))
    assert [m["name"] for m in declared["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(run.SIZES)


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-mono", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
