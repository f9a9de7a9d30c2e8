"""Self-test of the outside-in tracer, on the bundled heat_debye solve.

    python3 -m pytest -q bench/test_tracer.py
"""

import contextlib
import io
import json
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

from evoinc import cli, geometry, selection, semigroup, solver  # noqa: E402
from evoinc.config import preset_path  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

WORK = BENCH / "out" / "selftest"


@pytest.fixture()
def work():
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    yield WORK
    shutil.rmtree(WORK, ignore_errors=True)


def _solve_heat(out: Path) -> dict:
    argv = ["solve", "--config", str(preset_path("heat_debye")),
            "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return {name: (out / name).read_bytes()
            for name in ("report.json", "trajectory.csv")}


def test_traced_heat_debye_counts_and_identical_outputs(work):
    plain = _solve_heat(work / "plain")
    tracer = Tracer()
    with tracer:
        traced = _solve_heat(work / "traced")
    assert traced == plain
    assert tracer.missing == []
    m = tracer.pass_metrics()
    assert m["solver.solve_window.calls"] == 2
    assert tracer.window_iterations == [2, 1]
    assert m["solver.relaxed_iters"] == 3
    assert m["monotone.prox_step.calls"] == 320
    assert m["geometry.HullProjector.project.calls"] == 12
    assert m["selection.nearest_point_selection.calls"] == 10
    assert m["cli.main.calls"] == 1
    # every span closed, and every span but the command's sits under one
    assert all(end >= start for _, start, end, _, _ in tracer.spans)
    assert [s[0] for s in tracer.spans if s[3] == -1] == ["cli.main"]


def test_rebinds_names_imported_from_other_modules():
    originals = (semigroup.duhamel_solve, geometry.dykstra,
                 geometry.HullProjector.project)
    with Tracer():
        assert solver.duhamel_solve is semigroup.duhamel_solve
        assert solver.duhamel_solve is not originals[0]
        assert selection.dykstra is geometry.dykstra
        assert selection.dykstra is not originals[1]
        assert selection.nearest_point_selection \
            is solver.nearest_point_selection
    assert (semigroup.duhamel_solve, geometry.dykstra,
            geometry.HullProjector.project) == originals
    assert solver.duhamel_solve is originals[0]
    assert selection.dykstra is originals[1]


def test_counts_from_arguments_and_raised_calls():
    import numpy as np
    verts = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]] * 4)
    tracer = Tracer()
    with tracer:
        projector = geometry.HullProjector(verts)
        projector.project(np.ones((4, 2)))
        with pytest.raises(geometry.DimensionMismatch):
            projector.project(np.ones((3, 2)))
        geometry.dykstra(
            np.full((4, 2), 2.0),
            lambda z: geometry.project_balls(z, np.zeros((4, 2)), 1.0),
            lambda z: projector.project(z)[0])
    m = tracer.pass_metrics()
    name = "geometry.HullProjector.project"
    # 2 direct calls, then one per Dykstra cycle plus the final residual
    assert m[f"{name}.calls"] == 3 + m["geometry.dykstra.cycles"]
    assert m[f"{name}.raised"] == 1
    assert m[f"{name}.rows"] == 4 + 3 + 4 * (m["geometry.dykstra.cycles"] + 1)
    assert m[f"{name}.vertex_slots"] == 12 * m[f"{name}.calls"]
    assert m["geometry.dykstra.calls"] == 1
    assert m["geometry.dykstra.cycles"] >= 1


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
