"""Command-line driver: run experiments, average norms, solve fields, audit algebras."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import averaging, conformal_solver as solver, lie_algebra
from .errors import InadmissibleNorm, InvalidSettings
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    csv_summary,
    emit_report,
    report_to_dict,
    run_experiment,
)
from .norm_core import norm_from_dict, record_keys


def build_parser():
    parser = argparse.ArgumentParser(
        prog="finslerfields",
        description="Conformal/Killing field experiments on model Finsler manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run named experiments and emit reports")
    run_p.add_argument("names", nargs="*", help="experiment names (default: all)")
    run_p.add_argument("--config", type=Path, help="JSON config file")
    run_p.add_argument("--out", type=Path, default=Path("reports"))
    run_p.add_argument("--resolution", type=int)
    run_p.add_argument("--degree", type=int)
    run_p.add_argument("--seed", type=int)

    avg_p = sub.add_parser("average", help="averaged norm of a serialized Minkowski norm")
    avg_p.add_argument("--config", type=Path, required=True,
                       help="JSON file with a norm record {family, dim, ...}")
    avg_p.add_argument("--resolution", type=int, default=1024)
    avg_p.add_argument("--table", type=Path,
                       help="also dump the quadrature nodes and weights as CSV")

    solve_p = sub.add_parser("solve-fields", help="solve one field/basis configuration")
    solve_p.add_argument("--config", type=Path, required=True)
    solve_p.add_argument("--mode", choices=["killing", "conformal"], default="conformal")
    solve_p.add_argument("--out", type=Path)

    lie_p = sub.add_parser("lie-report", help="diagnostics for serialized structure constants")
    lie_p.add_argument("--constants", type=Path, required=True)
    lie_p.add_argument("--out", type=Path)
    return parser


def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# the keys of a ``run --config`` file: the experiment settings other than the name, and the experiments
RUN_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"name"} | {"experiments"}


def _experiment_config(name, file_cfg, args):
    """The config of one experiment: the file's settings, overridden by the flags given."""
    settings = {key: value for key, value in file_cfg.items() if key != "experiments"}
    settings.update((key, getattr(args, key)) for key in ("resolution", "degree", "seed")
                    if getattr(args, key) is not None)
    return ExperimentConfig(**settings, name=name)


def cmd_run(args):
    # settings are rejected when the file is read, when a config is built or when a solve
    # meets them, and either way before the output directory is made
    file_cfg = record_keys(_load_json(args.config) if args.config else {}, "the config", RUN_KEYS)
    names = args.names or file_cfg.get("experiments") or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        return 2
    configs = [_experiment_config(name, file_cfg, args) for name in names]
    reports = [run_experiment(config.name, config) for config in configs]
    args.out.mkdir(parents=True, exist_ok=True)
    for report in reports:
        emit_report(report, args.out / f"{report.name}.json")
        status = "pass" if report.passed else "FAIL"
        dims = ""
        if report.killing_dim is not None:
            dims = f" killing={report.killing_dim} conformal={report.conformal_dim}"
        print(f"{report.name}: {status}{dims} ({report.wall_time_s:.2f}s)")
    csv_summary(reports, args.out / "summary.csv")
    return 0 if all(r.passed for r in reports) else 1


def cmd_average(args):
    norm = norm_from_dict(_load_json(args.config))
    quadrature = averaging.sample_indicatrix(norm, args.resolution)
    coarse = averaging.averaged_norm(norm, quadrature).matrix
    fine = averaging.average(norm, 2 * args.resolution).matrix
    diff = float(np.max(np.abs(fine - coarse)))
    print("averaged matrix at resolution", args.resolution)
    for row in coarse:
        print("  " + "  ".join(f"{v: .12e}" for v in row))
    print(f"refinement difference vs resolution {2 * args.resolution}: {diff:.3e}")
    if args.table:
        header = ",".join([f"y{i + 1}" for i in range(norm.dim)] + ["weight"])
        rows = [",".join(f"{v:.12e}" for v in row) for row in quadrature.to_table()]
        args.table.write_text("\n".join([header] + rows) + "\n")
        print(f"quadrature table written to {args.table}")
    return 0


def cmd_solve_fields(args):
    cfg = _load_json(args.config)
    field, basis, config = solver.field_from_spec(cfg)
    report = solver.solve_fields(field, basis, mode=args.mode, config=config)
    doc = {
        "experiment": cfg.get("name", "solve-fields"),
        "manifold": cfg["manifold"],
        "metric": cfg["metric"],
        "basis_degree": basis.degree,
        "killing_dim": report.killing_dim,
        "conformal_dim": report.conformal_dim,
        "singular_values": [float(s) for s in report.singular_values],
        "residuals": report.residuals,
        "gap": None if np.isinf(report.gap) else report.gap,
        "flags": report.flags,
        "system": report.system,
    }
    text = json.dumps(doc, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


def cmd_lie_report(args):
    algebra = lie_algebra.LieAlgebraSC.from_dict(_load_json(args.constants))
    gram = lie_algebra.killing_gram(algebra)
    pos, neg, zero = lie_algebra.killing_signature(algebra)
    decomposition = lie_algebra.compact_decomposition_check(algebra)
    doc = {
        "dim": algebra.dim,
        "derived_series": lie_algebra.derived_series(algebra),
        "solvable_derived_series": lie_algebra.is_solvable(algebra),
        "solvable_cartan": lie_algebra.cartan_solvability(algebra),
        "killing_gram_eigenvalues": np.linalg.eigvalsh(gram).tolist(),
        "killing_signature": [pos, neg, zero],
        "radical_dim": int(lie_algebra.killing_radical(algebra).shape[0]),
        "compact_type": decomposition.compact_type,
        "derived_dim": decomposition.derived_dim,
        "center_dim": decomposition.center_dim,
        "direct_sum": decomposition.direct_sum,
    }
    text = json.dumps(doc, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "average": cmd_average,
        "solve-fields": cmd_solve_fields,
        "lie-report": cmd_lie_report,
    }
    # a setting that no run can honour, wherever a command meets it, is one line on stderr
    # and exit code 2; code 1 means a check failed, and any other error propagates
    try:
        return handlers[args.command](args)
    except (InvalidSettings, InadmissibleNorm) as exc:
        print(f"invalid settings: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
