"""Checks of the workload definitions and a known program defect.

    python3 -m pytest -q bench/test_workloads.py
"""

import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402

import workloads  # noqa: E402
from evoinc import suites  # noqa: E402
from evoinc.geometry import ProjectionDidNotConverge  # noqa: E402

WORK = BENCH / "out" / "test-workloads"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    def build(seed, name):
        work = WORK / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        commands = workloads.build_commands(workload, seed, ROOT, work)
        argvs = [[a.replace(str(work), "<work>") for a in c.argv]
                 for c in commands]
        files = {p.relative_to(work): p.read_bytes()
                 for p in sorted(work.rglob("*")) if p.is_file()}
        return argvs, files

    assert build(3, "a") == build(3, "b")
    shutil.rmtree(WORK)


@pytest.mark.xfail(raises=ProjectionDidNotConverge, strict=True,
                   reason="the hull projector's exact fallback misses its "
                          "certificate on a polytope with repeated vertices")
def test_projection_difference_on_known_failing_seed():
    result = suites.projection_difference_battery(
        workloads.KNOWN_FAILING_PD_SEED, 1000)
    assert result.passed
