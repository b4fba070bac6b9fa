"""Benchmark of finslerfields: closed-loop passes of one workload, with checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload torus-rigidity --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --seconds 30          # every workload, one table

One client runs passes back to back, each starting when the previous one
ends, for ``--seconds`` seconds.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the object carries the
per-layer metrics instead.  A fuller record (environment, every sample,
failures, per-span table) goes to ``bench/results/``.  The exit code is 0
only when every reference check passed.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread (at most nproc): a single closed-loop client, and numbers
# that do not depend on how many idle cores the host happens to have.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORKLOAD_NAMES = ("torus-rigidity", "sphere-algebra", "indicatrix")
SETUP_PROBES = 11
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
SUBPROCESS_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "conformal_solver.solve_fields.s": "s",
    "conformal_solver.solve_fields.calls": "count",
    "conformal_solver.build_collocation.s": "s",
    "conformal_solver.assemble_system.s": "s",
    "conformal_solver.assemble_system.self_s": "s",
    "conformal_solver.assemble_system.calls": "count",
    "conformal_solver.assemble_system.rows": "count",
    "conformal_solver.assemble_system.cells": "count",
    "conformal_solver.null_space.s": "s",
    "conformal_solver.null_space.calls": "count",
    "conformal_solver.null_space.cells": "count",
    "conformal_solver.extract_structure_constants.s": "s",
    "conformal_solver.extract_structure_constants.bracket_pairs": "count",
    "conformal_solver.transitivity_check.s": "s",
    "conformal_solver.transitivity_check.points": "count",
    "manifold.field_eval.s": "s",
    "manifold.field_eval.calls": "count",
    "manifold.basis_eval.s": "s",
    "manifold.basis_eval.calls": "count",
    "manifold.combination_eval.s": "s",
    "manifold.combination_eval.calls": "count",
    "manifold.averaged_field.s": "s",
    "manifold.averaged_field.averages": "count",
    "norm_core.grad.s": "s",
    "norm_core.tensor.s": "s",
    "norm_core.scalar_grad.calls": "count",
    "norm_core.batch.rows": "count",
    "norm_core.batched_share": "ratio",
    "norm_core.batched_share.base": "count",
    "norm_core.check_axioms.s": "s",
    "norm_core.reversibility_sup.s": "s",
    "averaging.sample_indicatrix.s": "s",
    "averaging.averaged_norm.s": "s",
    "averaging.average.calls": "count",
    "averaging.nodes": "count",
    "averaging.verify_equivariance.s": "s",
    "lie_algebra.s": "s",
    "lie_algebra.calls": "count",
    **{f"experiments.{name}.s": "s" for name in (
        "randers-torus", "riemannian-torus", "rescaled-randers-torus",
        "rescaled-riemannian-torus", "s2-round", "conformal-algebra-signature",
        "averaging-equivariance", "circle-lambda")},
    **{f"{layer}.self_s": "s" for layer in (
        "norm_core", "averaging", "manifold", "conformal_solver", "lie_algebra",
        "experiments", "cli")},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="workload to run (default: every workload, one table)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def require_source():
    if not (SRC / "finslerfields" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'finslerfields'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))


def workdir_for(workload, seed):
    return RESULTS / "work" / f"{workload}-seed{seed}"


def setup_probe(workload, seed):
    """Fresh-process set-up: import, then build inputs, fields, bases and norms."""
    start = time.perf_counter()
    import finslerfields  # noqa: F401  (the import is what is being timed)
    from workloads import WORKLOADS
    WORKLOADS[workload](seed, workdir_for(workload, seed) / "probe")
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def setup_once(workload, seed):
    """Seconds of one fresh-process set-up (see ``setup_probe``)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except OSError:
        commit = "unknown (git not available)"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None below 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100 * (n - 10) // n, "value": sorted(samples)[n - 11], "samples": n}


def timed_pass(work):
    t0, c0 = time.perf_counter(), time.process_time()
    raw = work.run_pass()
    return raw, time.perf_counter() - t0, time.process_time() - c0


def run_passes(work, seconds, tracer=None, setup=None):
    """Closed loop: passes back to back until the next step would overrun ``seconds``.

    A step is one untraced pass, followed by one traced pass when tracing.
    ``setup``, when given, is called ``SETUP_PROBES`` times at even intervals
    between steps, so set-up samples span the same host conditions as the
    passes; its time is left out of the measuring window.
    """
    walls, cpus, traced_walls, outcomes, setups = [], [], [], [], []
    min_steps = MIN_TRACED_PAIRS if tracer else MIN_PASSES
    begin = time.perf_counter()
    paused = 0.0
    while True:
        elapsed = time.perf_counter() - begin - paused
        if setup and len(setups) < SETUP_PROBES and elapsed >= len(setups) * seconds / SETUP_PROBES:
            t0 = time.perf_counter()
            setups.append(setup())
            paused += time.perf_counter() - t0
        step = statistics.median(walls) if walls else 0.0
        if traced_walls:
            step += statistics.median(traced_walls)
        if len(walls) >= min_steps and elapsed + step > seconds:
            break
        raw, wall, cpu = timed_pass(work)
        walls.append(wall)
        cpus.append(cpu)
        outcomes.extend(work.check_pass(raw))
        if tracer:
            tracer.begin_pass(len(traced_walls))
            with tracer.installed():
                raw, wall, _ = timed_pass(work)
            traced_walls.append(wall)
            outcomes.extend(work.check_pass(raw))
    while setup and len(setups) < SETUP_PROBES:
        setups.append(setup())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return walls, cpus, traced_walls, outcomes, setups, peak_mb


def layer_metrics(tracer, untraced_walls, traced_walls):
    """Median over traced passes of each per-layer metric, and any count that did not repeat.

    Also returns the per-span-name table of the first traced pass.
    """
    per_pass, tables = [], []
    for pass_id in range(len(traced_walls)):
        metrics, table = tracer.pass_metrics(pass_id)
        rows = metrics.get("norm_core.batch.rows", 0)
        base = rows + metrics.get("norm_core.scalar_grad.calls", 0)
        metrics["norm_core.batch.rows"] = rows
        metrics["norm_core.batched_share.base"] = base
        metrics["norm_core.batched_share"] = rows / base if base else 0.0
        per_pass.append(metrics)
        tables.append(table)
    out, unsteady = {}, []
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace.overhead_s":
            value = statistics.median(traced_walls) - statistics.median(untraced_walls)
        else:
            values = [m.get(name, 0) for m in per_pass]
            if unit == "count" and len(set(values)) > 1:
                unsteady.append(f"{name} differs between passes: {values}")
            value = values[0] if unit == "count" else statistics.median(values)
        out[name] = value
    return out, tables[0], unsteady


def run_workload(args):
    from workloads import WORKLOADS, Outcome

    RESULTS.mkdir(parents=True, exist_ok=True)
    work = WORKLOADS[args.workload](args.seed, workdir_for(args.workload, args.seed))

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    setup = None if args.trace else (lambda: setup_once(args.workload, args.seed))
    walls, cpus, traced_walls, outcomes, setup_samples, peak_mb = run_passes(
        work, args.seconds, tracer, setup)

    if tracer is None:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_mb,
        }
        units, extra = END_TO_END_UNITS, {"wall_s_tail": tail(walls)}
    else:
        metrics, table, unsteady = layer_metrics(tracer, walls, traced_walls)
        outcomes.append(Outcome("trace counts repeat", not unsteady, "; ".join(unsteady)))
        units, extra = PER_LAYER_UNITS, {"spans_by_name": table}
        tracer.save(RESULTS / f"{args.workload}-seed{args.seed}-spans.npz")
    failures = [f"{o.name}: {o.detail}" for o in outcomes if not o.ok]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "load": "closed loop, one client, passes back to back",
        "attempted": len(outcomes), "failed": len(failures),
        "fail_frac": len(failures) / len(outcomes), "failures": failures,
        "samples": {"wall_s": walls, "cpu_s": cpus, "setup_s": setup_samples,
                    "traced_wall_s": traced_walls},
        **extra,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for name, entry in record["metrics"].items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"{args.workload} fail_frac = {record['failed']}/{record['attempted']}"
          f" = {record['failed'] / record['attempted']:.4g}")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process (fresh peak RSS), then one table."""
    rows, status = [], 0
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
        lines = proc.stdout.strip().splitlines()
        if not lines:
            rows.append(f"{workload}: no result (exit code {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        cells = [f"{name}={m['value']:.4g} {m['unit']}" for name, m in result["metrics"].items()]
        if not args.trace:
            cells.append(f"fail_frac={result['failed']}/{result['attempted']}")
        rows.append(f"{workload}: " + "  ".join(cells))
    print("\n".join(rows))
    return status


def main(argv=None):
    args = parse_args(argv)
    require_source()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
