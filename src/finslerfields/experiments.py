"""Named experiments reproducing the conformal-rigidity dichotomy at desk scale.

Each solver experiment solves a field spec (``field_from_spec``), kept in ``extra.spec``,
and every experiment records pass/fail checks against expectations that live
here (not in the config), so a config cannot silently weaken acceptance.
Every experiment returns (checks, solve_report, extra, algebra); the solve
report and the structure-constant algebra are None where it has none.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field as dataclass_field, fields, replace
from pathlib import Path

import numpy as np

from . import averaging, conformal_solver as solver, lie_algebra, manifold as mf
from .errors import ClosureFailure, InvalidSettings
from .norm_core import RandersNorm, record_keys, scale_norm

ROUNDOFF_FLOOR = 1e-12


@dataclass
class ExperimentConfig(solver.SolverConfig):
    """The solver settings plus what selects and sizes an experiment."""

    name: str = ""
    degree: int = 2
    resolution: int = 1024
    metric_params: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        if self.resolution < 16:
            raise InvalidSettings("resolution must be >= 16")
        record_keys(self.metric_params, "metric_params", ("b", "radius"))


@dataclass
class Check:
    name: str
    value: float
    threshold: float
    comparison: str
    passed: bool


@dataclass
class ExperimentReport:
    name: str
    config: dict
    checks: list
    killing_dim: int | None = None
    conformal_dim: int | None = None
    max_residual: float = 0.0
    gap: float = float("inf")
    singular_values: list = dataclass_field(default_factory=list)
    structure_constants: dict | None = None
    extra: dict = dataclass_field(default_factory=dict)
    wall_time_s: float = 0.0

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


_COMPARATORS = {
    "<=": lambda v, t: v <= t,
    ">=": lambda v, t: v >= t,
    "==": lambda v, t: v == t,
    ">": lambda v, t: v > t,
}


def _check(checks, name, value, comparison, threshold):
    passed = bool(_COMPARATORS[comparison](value, threshold))
    checks.append(Check(name=name, value=float(value), threshold=float(threshold),
                        comparison=comparison, passed=passed))


def _torus(norm, **metric):
    return {"kind": "flat_torus"}, {"kind": "constant_norm", "norm": norm, **metric}


def _sphere(config):
    return {"kind": "sphere", "radius": config.metric_params.get("radius", 1.0)}, {"kind": "round"}


def _randers(config):
    return {"family": "randers", "dim": 2, "a": np.eye(2).tolist(),
            "b": config.metric_params.get("b", [0.5, 0.0])}


EUCLIDEAN = {"family": "euclidean", "dim": 2, "q": np.eye(2).tolist()}
# rho = 2 + cos 2 pi x1 of the rescaled tori
RESCALE = {"const": 2.0, "terms": [[[1, 0], 1.0, 0.0]]}


def _solve(config, manifold, metric, mode, **settings):
    """(spec, field, basis, report) of a solve, spec being its complete ``solve-fields`` config."""
    settings = {**{f.name: getattr(config, f.name) for f in fields(solver.SolverConfig)}, **settings}
    spec = {"manifold": manifold, "metric": metric, "degree": config.degree, "solver": settings}
    field, basis, solver_config = solver.field_from_spec(spec)
    return spec, field, basis, solver.solve_fields(field, basis, mode, solver_config)


# ---------------------------------------------------------------------------
# experiments


def exp_s2_round(config):
    spec, _, _, report = _solve(config, *_sphere(config), "conformal")

    checks = []
    _check(checks, "killing_dim", report.killing_dim, "==", 3)
    _check(checks, "conformal_dim", report.conformal_dim, "==", 6)
    _check(checks, "conformal spectral gap", report.conformal_gap, ">=", 1e4)
    _check(checks, "verification residual", report.max_residual, "<=", report.verification_bound)
    return checks, report, {"spec": spec}, None


def _mode_spectrum(basis, report):
    """Each block's smallest singular value, of the system ``singular_values`` reports, for a
    field solved block by block: the constant fields' at mode (0, 0), then each Fourier pair's."""
    modes = [(0, 0)] + solver.torus_fourier_modes(basis.degree)
    return {"modes": [list(k) for k in modes],
            "sigma_min": [float(s[-1]) for s in report.block_singular_values]}


def exp_riemannian_torus(config):
    spec, _, basis, report = _solve(config, *_torus(EUCLIDEAN), "conformal")

    checks = []
    _check(checks, "killing_dim", report.killing_dim, "==", 2)
    _check(checks, "conformal_dim", report.conformal_dim, "==", 2)
    _check(checks, "verification residual", report.max_residual, "<=", report.verification_bound)
    return checks, report, {"spec": spec, "mode_spectrum": _mode_spectrum(basis, report)}, None


def exp_randers_torus(config):
    spec, field, basis, report = _solve(config, *_torus(_randers(config)), "conformal")
    doubled = solver.solve_fields(field, basis, "conformal", replace(config, x_density=2 * config.x_density))

    checks = []
    _check(checks, "killing_dim", report.killing_dim, "==", 2)
    _check(checks, "conformal_dim", report.conformal_dim, "==", 2)
    # the largest |factor| of a conformal field at the verification points
    factor = float(np.max(np.abs(report.conformal_factors), initial=0.0))
    _check(checks, "max conformal-factor norm", factor, "<=", 1e-6)
    stable = int(
        doubled.killing_dim == report.killing_dim
        and doubled.conformal_dim == report.conformal_dim
    )
    _check(checks, "dims stable under density doubling", stable, "==", 1)
    _check(checks, "verification residual", report.max_residual, "<=", report.verification_bound)
    return checks, report, {"doubled_killing_dim": doubled.killing_dim,
                            "doubled_conformal_dim": doubled.conformal_dim, "spec": spec,
                            "mode_spectrum": _mode_spectrum(basis, report)}, None


def _rescaled_torus_experiment(config, norm):
    spec, field, basis, report = _solve(config, *_torus(norm, rescale=RESCALE), "killing")

    sample = basis.manifold.grid_points(16, offset=(0.23, 0.61))
    if report.killing_dim > 0:
        killing_fields = [basis.combination(c) for c in report.killing_basis]
        transitive = solver.transitivity_check(killing_fields, sample)
        nontransitive_fraction = 1.0 - sum(transitive) / len(transitive)
    else:
        nontransitive_fraction = 1.0

    # the control: the same base field times the constant 2, on the same basis
    control_field = mf.ConformalRescaleField(field.base, mf.TorusFourierScalar(basis.manifold, const=2.0))
    control = solver.solve_fields(field=control_field, basis=basis, mode="killing", config=config)
    control_fields = [basis.combination(c) for c in control.killing_basis]
    control_transitive = solver.transitivity_check(control_fields, sample)
    control_fraction = sum(control_transitive) / len(control_transitive)

    checks = []
    _check(checks, "killing_dim of rescaled field", report.killing_dim, "==", 1)
    _check(checks, "non-transitive fraction", nontransitive_fraction, ">=", 0.9)
    _check(checks, "control killing_dim (constant factor)", control.killing_dim, "==", 2)
    _check(checks, "control transitive fraction", control_fraction, "==", 1.0)
    _check(checks, "verification residual", report.max_residual, "<=", report.verification_bound)
    extra = {
        "nontransitive_fraction": nontransitive_fraction,
        "control_killing_dim": control.killing_dim,
        "control_transitive_fraction": control_fraction,
        "spec": spec,
    }
    return checks, report, extra, None


def exp_rescaled_randers_torus(config):
    return _rescaled_torus_experiment(config, _randers(config))


def exp_rescaled_riemannian_torus(config):
    return _rescaled_torus_experiment(config, EUCLIDEAN)


def exp_circle_lambda(config):
    circle = mf.FlatTorus([[2.0 * np.pi]])
    varying = mf.CircleNormField(
        circle,
        forward=mf.TorusFourierScalar(circle, const=2.0, terms=[((1,), 0.0, 1.0)]),
        backward=mf.TorusFourierScalar(circle, const=1.0),
    )
    constant = mf.CircleNormField(
        circle,
        forward=mf.TorusFourierScalar(circle, const=1.4),
        backward=mf.TorusFourierScalar(circle, const=0.7),
    )
    profile_varying = mf.circle_lambda_profile(varying)
    profile_constant = mf.circle_lambda_profile(constant)

    checks = []
    _check(checks, "varying-ratio spread", profile_varying.spread, ">", 1.9)
    _check(checks, "varying flagged non-constant", int(not profile_varying.constant), "==", 1)
    _check(checks, "constant-ratio spread", profile_constant.spread, "<=", 1e-10)
    _check(checks, "constant flagged constant", int(profile_constant.constant), "==", 1)
    extra = {
        "varying_spread": profile_varying.spread,
        "constant_spread": profile_constant.spread,
    }
    return checks, None, extra, None


def exp_averaging_equivariance(config):
    base = RandersNorm(np.eye(2), np.array([0.3, 0.0]))
    angle = np.pi / 6.0
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    composed = RandersNorm(rot.T @ base.a @ rot, rot.T @ base.b)

    res = config.resolution
    rot_res = averaging.verify_equivariance(composed, base, rot, 1.0, resolution=res)
    rot_res_fine = averaging.verify_equivariance(composed, base, rot, 1.0, resolution=2 * res)
    scaled = scale_norm(base, 2.0)
    scale_res = averaging.verify_equivariance(scaled, base, np.eye(2), 2.0, resolution=res)

    checks = []
    _check(checks, "rotation residual", rot_res, "<=", 1e-6)
    halved = int(rot_res_fine <= 0.5 * rot_res or rot_res_fine <= ROUNDOFF_FLOOR)
    _check(checks, "rotation residual halves or hits round-off floor", halved, "==", 1)
    _check(checks, "scaling residual", scale_res, "<=", 1e-8)
    extra = {
        "rotation_residual": rot_res,
        "rotation_residual_refined": rot_res_fine,
        "scaling_residual": scale_res,
    }
    return checks, None, extra, None


def _algebra(checks, label, fields):
    """The structure constants of fields, or None after a failed check where there are none
    or their brackets leave their span (the three gradient fields of sphere degree 0)."""
    try:
        if fields:
            return solver.extract_structure_constants(fields)[0]
    except ClosureFailure:
        pass
    _check(checks, f"{label} fields give structure constants", 0, "==", 1)
    return None


def exp_conformal_algebra_signature(config):
    spec, _, basis, report = _solve(config, *_sphere(config), "conformal",
                                    sphere_points=max(100, config.sphere_points // 2))
    checks = []
    killing_algebra = _algebra(checks, "sphere killing", [basis.combination(c) for c in report.killing_basis])
    conformal_algebra = _algebra(checks, "sphere conformal",
                                 [basis.combination(c) for c in report.conformal_basis])

    _, _, torus_basis, torus_report = _solve(config, *_torus(_randers(config)), "killing")
    torus_algebra = _algebra(checks, "torus killing",
                             [torus_basis.combination(c) for c in torus_report.killing_basis])

    for label, algebra in (("sphere", killing_algebra), ("torus", torus_algebra)):
        if algebra is None:
            continue
        worst_b = max(lie_algebra.killing_form(algebra, e, e) for e in np.eye(algebra.dim))
        _check(checks, f"{label} killing basis max B(U,U)", worst_b, "<=", 1e-8)
        all_semisimple = int(all(lie_algebra.ad_semisimple(algebra, e) for e in np.eye(algebra.dim)))
        _check(checks, f"{label} killing basis ad semisimple", all_semisimple, "==", 1)
    signature = None if conformal_algebra is None else list(lie_algebra.killing_signature(conformal_algebra))
    if signature is not None:
        _check(checks, "conformal algebra positive eigenvalues", signature[0], "==", 3)
        _check(checks, "conformal algebra negative eigenvalues", signature[1], "==", 3)
    extra = {"conformal_signature": signature, "torus_killing_dim": torus_report.killing_dim, "spec": spec}
    return checks, report, extra, conformal_algebra


EXPERIMENTS = {
    "s2-round": exp_s2_round,
    "riemannian-torus": exp_riemannian_torus,
    "randers-torus": exp_randers_torus,
    "rescaled-randers-torus": exp_rescaled_randers_torus,
    "rescaled-riemannian-torus": exp_rescaled_riemannian_torus,
    "circle-lambda": exp_circle_lambda,
    "averaging-equivariance": exp_averaging_equivariance,
    "conformal-algebra-signature": exp_conformal_algebra_signature,
}


def run_experiment(name, config=None):
    """Run one named experiment and return its report."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    config = config or ExperimentConfig(name=name)
    start = time.perf_counter()
    checks, solve_report, extra, algebra = EXPERIMENTS[name](config)
    elapsed = time.perf_counter() - start
    report = ExperimentReport(
        name=name,
        config={**asdict(config), "name": name},
        checks=checks,
        extra=extra,
        wall_time_s=elapsed,
    )
    if solve_report is not None:
        report.killing_dim = solve_report.killing_dim
        report.conformal_dim = solve_report.conformal_dim
        report.max_residual = solve_report.max_residual
        report.gap = solve_report.gap
        report.singular_values = [float(s) for s in solve_report.singular_values]
        report.extra.setdefault("flags", list(solve_report.flags))
        report.extra.setdefault("system", solve_report.system)
    if algebra is not None:
        report.structure_constants = algebra.to_dict()
    return report


# ---------------------------------------------------------------------------
# serialization


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        if np.isinf(value):
            return "inf"
        return f"{value:.6e}"
    return str(value)


def report_to_dict(report):
    return {
        "experiment": report.name,
        "config": report.config,
        "checks": [asdict(c) for c in report.checks],
        "killing_dim": report.killing_dim,
        "conformal_dim": report.conformal_dim,
        "max_residual": report.max_residual,
        "gap": None if np.isinf(report.gap) else report.gap,
        "singular_values": report.singular_values,
        "structure_constants": report.structure_constants,
        "extra": report.extra,
        "passed": report.passed,
        "wall_time_s": report.wall_time_s,
    }


def csv_summary(reports, path=None):
    """Deterministic one-row-per-experiment summary; header-only when empty."""
    lines = ["experiment,killing_dim,conformal_dim,max_residual,gap,pass"]
    for report in reports:
        lines.append(
            ",".join(
                [
                    report.name,
                    _fmt(report.killing_dim),
                    _fmt(report.conformal_dim),
                    _fmt(float(report.max_residual)),
                    _fmt(float(report.gap)),
                    "pass" if report.passed else "fail",
                ]
            )
        )
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def emit_report(report, path):
    """Write one report as a JSON document on one line, which the C encoder writes."""
    path = Path(path)
    path.write_text(json.dumps(report_to_dict(report)) + "\n")
    return path
