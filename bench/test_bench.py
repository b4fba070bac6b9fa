"""Self-tests of the benchmark: exact counts, failing checks, and a bare directory.

Run from the repository root with ``python3 -m pytest bench -q`` (about a
minute: two traced passes of every workload).  The counts are derived here
from the workload inputs and the experiment defaults, independently of the
tracer, and must also repeat exactly across two passes with the same seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.require_source()

import workloads  # noqa: E402  (needs the source path set up by run)
from finslerfields.conformal_solver import torus_fourier_modes  # noqa: E402
from finslerfields.experiments import ExperimentConfig  # noqa: E402
from tracing import Tracer  # noqa: E402

COUNT_METRICS = [name for name, unit in run.PER_LAYER_UNITS.items() if unit == "count"]


def traced_counts(workload, seed, workdir, passes=2):
    work = workloads.WORKLOADS[workload](seed, workdir)
    tracer = Tracer()
    per_pass = []
    for pass_id in range(passes):
        tracer.begin_pass(pass_id)
        with tracer.installed():
            raw = work.run_pass()
        failed = [o for o in work.check_pass(raw) if not o.ok]
        assert not failed, failed
        metrics, _ = tracer.pass_metrics(pass_id)
        per_pass.append({name: metrics.get(name, 0) for name in COUNT_METRICS})
    return work, per_pass


def torus_sizes(cfg, density):
    modes = len(torus_fourier_modes(cfg.degree))
    rows = density**2 * (cfg.n_directions + cfg.n_extra_directions)
    return rows, 2 + 4 * modes, 1 + 2 * modes   # rows, fields, rho functions


def test_torus_rigidity_counts(tmp_path):
    _, (first, second) = traced_counts("torus-rigidity", 3, tmp_path)
    assert first == second
    cfg = ExperimentConfig()
    rows, fields, rho = torus_sizes(cfg, cfg.x_density)
    rows2, _, _ = torus_sizes(cfg, 2 * cfg.x_density)
    # randers-torus: conformal solves at x_density and 2*x_density (killing,
    # conformal, and both verification assemblies each); riemannian-torus: one
    # conformal solve; each rescaled experiment: two killing solves.
    conformal_cells = 4 * fields + 2 * rho   # killing, conformal and their verifications
    assert first["conformal_solver.assemble_system.rows"] == 4 * rows2 + 8 * rows + 8 * rows
    assert first["conformal_solver.assemble_system.cells"] == (
        rows2 * conformal_cells + 2 * rows * conformal_cells + 8 * rows * fields)
    assert first["conformal_solver.assemble_system.calls"] == 20
    assert first["conformal_solver.solve_fields.calls"] == 7
    assert first["conformal_solver.null_space.calls"] == 10
    assert first["conformal_solver.null_space.cells"] == (
        rows2 * (2 * fields + rho) + 2 * rows * (2 * fields + rho) + 4 * rows * fields)
    # every collocation row takes one scalar gradient of the constant norm
    assert first["norm_core.scalar_grad.calls"] == first["conformal_solver.assemble_system.rows"]
    assert first["norm_core.batch.rows"] == 0
    # one rescaled Killing field plus two control fields, on a 16x16 grid, per experiment
    assert first["conformal_solver.transitivity_check.points"] == 2 * 2 * 16**2
    assert first["manifold.combination_eval.calls"] == 2 * 3 * 16**2
    assert first["averaging.average.calls"] == 0
    assert first["lie_algebra.calls"] == 0


def test_sphere_algebra_counts(tmp_path):
    _, (first, second) = traced_counts("sphere-algebra", 3, tmp_path)
    assert first == second
    cfg = ExperimentConfig()
    dirs = cfg.n_directions + cfg.n_extra_directions
    fields, rho = 12, 9
    s2 = (cfg.sphere_points, cfg.sphere_points + 37)
    points = max(100, cfg.sphere_points // 2)
    algebra = (points, points + 37)
    torus_rows, torus_fields, _ = torus_sizes(cfg, cfg.x_density)
    rows = 2 * dirs * (sum(s2) + sum(algebra)) + 2 * torus_rows
    assert first["conformal_solver.assemble_system.rows"] == rows
    assert first["conformal_solver.assemble_system.cells"] == (
        dirs * (sum(s2) + sum(algebra)) * (2 * fields + rho) + 2 * torus_rows * torus_fields)
    assert first["conformal_solver.solve_fields.calls"] == 3
    # brackets of the 3 Killing and 6 conformal sphere fields and the 2 torus Killing fields
    assert first["conformal_solver.extract_structure_constants.bracket_pairs"] == 3 + 15 + 1
    assert first["averaging.average.calls"] == 0
    assert first["lie_algebra.calls"] > 0


def test_indicatrix_counts(tmp_path):
    work, (first, second) = traced_counts("indicatrix", 3, tmp_path)
    assert first == second
    res = ExperimentConfig().resolution
    samples = work.grid_per_axis**2 * work.directions_per_point
    # per norm: averages at 1024 and 4096, two inside verify_equivariance, the
    # GenericNorm average, and one per averaged-field evaluation
    per_norm_averages = 5 + samples
    per_norm_nodes = 1024 * (1 + 4 + 2 + 1 + samples)
    n_theta = round((4096 / 2) ** 0.5)
    experiment_nodes = 2 * res + 2 * (2 * res) + 2 * res
    assert first["averaging.average.calls"] == work.n_norms * per_norm_averages + 1 + 6
    assert first["averaging.nodes"] == (
        work.n_norms * per_norm_nodes + n_theta * 2 * n_theta + experiment_nodes)
    assert first["manifold.averaged_field.averages"] == work.n_norms * samples
    assert first["norm_core.scalar_grad.calls"] == work.n_norms * 1024
    assert first["norm_core.batch.rows"] == first["averaging.nodes"] - work.n_norms * 1024
    assert first["conformal_solver.solve_fields.calls"] == 0
    assert first["manifold.basis_eval.calls"] == 0


def test_failed_reference_check_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "REFINEMENT_TOL", -1.0)
    code = run.main(["--workload", "indicatrix", "--seed", "0", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "indicatrix", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("samples,expected", [(list(range(10)), None),
                                              (list(range(20)), {"percentile": 50, "value": 9,
                                                                 "samples": 20})])
def test_tail_percentile(samples, expected):
    assert run.tail(samples) == expected
