"""Self-test of the benchmark: each workload at a tiny size, untraced and
traced, emits every named metric with its unit, and the checks that guard
the result (missing sources, a changed digest) fail the run.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's default pytest collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import source  # noqa: E402
from run import WORKLOAD_NAMES as WORKLOADS  # noqa: E402


def run_bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600)


def result_of(out) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--tiny")
    result = result_of(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [s[0] for s in spec]
    for name, unit, *_ in spec:
        m = result["metrics"][name]
        assert m["unit"] == unit
        assert isinstance(m["value"], (int, float))
        assert f"# {name} = {m['value']} {unit}" in out.stdout
    meta = json.loads(next(line[len("# meta "):]
                           for line in out.stdout.splitlines()
                           if line.startswith("# meta ")))
    for key in ("python", "git_sha", "nproc", "seed", "items", "passes"):
        assert key in meta
    if trace:
        assert result["metrics"]["src.lines"]["value"] == sum(
            source.source_lines().values())
    else:
        assert "# failed_share = " in out.stdout


def test_benchmark_json_lists_the_emitted_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert bench["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in metrics.END_TO_END]
    assert bench["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in metrics.PER_LAYER]


def _copy_benchmark(dest: Path, with_sources: bool):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src" / "localfields",
                        dest / "src" / "localfields",
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_without_sources_exits_nonzero_without_result(tmp_path):
    _copy_benchmark(tmp_path, with_sources=False)
    out = run_bench("--workload", "charp", "--seed", "0", "--seconds", "1",
                    "--trace", "0", root=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_changed_digest_fails_the_run(tmp_path):
    _copy_benchmark(tmp_path, with_sources=True)
    digests = tmp_path / "perfbench" / "digests.json"
    stored = json.loads(digests.read_text())
    stored["mahler-deep"] = {"0": "0" * 64}
    digests.write_text(json.dumps(stored))
    result = result_of(run_bench("--workload", "mahler-deep", "--seed", "0",
                                 "--seconds", "1", "--trace", "0",
                                 root=tmp_path))
    assert result["failed"] == 0
    assert not result["correct"]
