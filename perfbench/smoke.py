"""Smoke test of the benchmark itself: every workload, both modes, tiny ops.

    python3 perfbench/smoke.py            # or: python3 -m pytest perfbench/smoke.py

Each run uses --smoke (a schedule of two tiny ops), so the whole
file takes well under a minute.  It checks the result contract of
BENCHMARK.json, that inputs follow the seed, and that the benchmark refuses
to run in a directory that holds no apspec sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 170


def run_bench(workload: str, trace: int, cwd: Path = ROOT, run: Path = RUN) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(run), "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S, cwd=cwd)


def test_every_workload_reports_its_metrics():
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0, proc.stdout
            assert result["attempted"] >= 2
            wanted = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
            assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def _scratch() -> tempfile.TemporaryDirectory:
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=ROOT / ".bench_out")


def test_inputs_follow_the_seed():
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    with _scratch() as tmp:
        def inputs(cls, seed: int, sub: str):
            work = Path(tmp) / sub
            work.mkdir()
            ops = cls(seed, work, smoke=True).schedule()
            argv = [[a.replace(str(work), "") for a in req] for op in ops for req in op.requests]
            return argv, sorted(p.read_bytes() for p in work.iterdir())

        for cls in WORKLOADS.values():
            first, again, other = (inputs(cls, seed, f"{cls.name}-{i}") for i, seed in enumerate((5, 5, 6)))
            assert first == again
            assert first != other


def test_refuses_without_sources():
    with _scratch() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("roots", 0, cwd=bare, run=bare / "perfbench" / "run.py")
        assert proc.returncode != 0
        assert not proc.stdout.strip()


if __name__ == "__main__":
    for test in (test_every_workload_reports_its_metrics, test_inputs_follow_the_seed, test_refuses_without_sources):
        test()
        print(f"ok {test.__name__}")
