"""The three benchmark workloads: seeded inputs, one pass of work, and reference checks.

A workload object is built once (its construction is the set-up that
``setup_s`` times) and then runs passes.  ``run_pass`` does only the work a
user waits for; ``check_pass`` compares what the pass produced with
references pinned here and returns one ``Outcome`` per operation.

Inputs come from ``random.Random(seed)`` only, so the same seed gives the
same configs, norms, fields and sample points in every process.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from finslerfields import averaging, cli, manifold, norm_core

# Pinned references: dimensions the paper's dichotomy predicts, and tolerances
# for the averaging identities (measured values are far below these).
EXPECTED_DIMS = {
    "randers-torus": (2, 2),
    "riemannian-torus": (2, 2),
    "rescaled-randers-torus": (1, None),
    "rescaled-riemannian-torus": (1, None),
    "s2-round": (3, 6),
    "conformal-algebra-signature": (3, 6),
}
EXPECTED_SIGNATURE = [3, 3, 0]
GENERIC_VS_CLOSED_TOL = 1e-5
RESCALE_LAW_TOL = 1e-10
REFINEMENT_TOL = 1e-9
EQUIVARIANCE_TOL = 1e-6
REVERSIBILITY_TOL = 1e-9
AXIS_SYMMETRY_TOL = 1e-4


@dataclass
class Outcome:
    """One attempted operation and whether it met every check."""

    name: str
    ok: bool
    detail: str = ""


def _unit(angle):
    return [math.cos(angle), math.sin(angle)]


def _drift(rnd):
    """Randers drift with |b| in [0.2, 0.7] and a random direction."""
    size = rnd.uniform(0.2, 0.7)
    return [size * c for c in _unit(rnd.uniform(0.0, 2.0 * math.pi))]


class ExperimentRun:
    """Runs named experiments through ``cli.main`` and checks their reports."""

    def __init__(self, experiments, config, workdir):
        self.experiments = tuple(experiments)
        self.outdir = Path(workdir) / "reports"
        self.outdir.mkdir(parents=True, exist_ok=True)
        config_path = Path(workdir) / "config.json"
        config_path.write_text(json.dumps(config, indent=2) + "\n")
        self.argv = ["run", *self.experiments, "--seed", str(config["seed"]),
                     "--config", str(config_path), "--out", str(self.outdir)]
        self.first_summary = None

    def run_pass(self):
        """One closed-loop pass; returns the exit code or the exception raised."""
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(self.argv)
        except Exception as exc:  # a failed pass is counted, not fatal
            return exc

    def check_pass(self, result):
        if isinstance(result, Exception):
            return [Outcome(name, False, f"pass raised {result!r}") for name in self.experiments]
        rows = self._summary_rows()
        if self.first_summary is None:
            self.first_summary = rows
        return [self._check_experiment(name, rows, result) for name in self.experiments]

    def _summary_rows(self):
        lines = (self.outdir / "summary.csv").read_text().splitlines()[1:]
        return {line.split(",", 1)[0]: line for line in lines}

    def _check_experiment(self, name, rows, exit_code):
        report = json.loads((self.outdir / f"{name}.json").read_text())
        problems = []
        if not report["passed"]:
            failed = [c["name"] for c in report["checks"] if not c["passed"]]
            problems.append(f"experiment checks failed: {failed}")
        expected = EXPECTED_DIMS.get(name)
        if expected is not None and (report["killing_dim"], report["conformal_dim"]) != expected:
            problems.append(f"dims {report['killing_dim']}/{report['conformal_dim']}, "
                            f"expected {expected[0]}/{expected[1]}")
        if name == "conformal-algebra-signature":
            signature = report["extra"]["conformal_signature"]
            if signature != EXPECTED_SIGNATURE:
                problems.append(f"signature {signature}, expected {EXPECTED_SIGNATURE}")
        if rows.get(name) != self.first_summary.get(name):
            problems.append("summary.csv row differs from the first pass with this seed")
        if exit_code != 0 and not problems:
            problems.append(f"exit code {exit_code}")
        return Outcome(name, not problems, "; ".join(problems))


class TorusRigidity(ExperimentRun):
    """The four torus experiments: the largest collocation systems."""

    def __init__(self, seed, workdir):
        rnd = random.Random(seed)
        config = {"seed": rnd.randrange(10_000), "metric_params": {"b": _drift(rnd)}}
        super().__init__(("randers-torus", "riemannian-torus",
                          "rescaled-randers-torus", "rescaled-riemannian-torus"), config, workdir)


class SphereAlgebra(ExperimentRun):
    """Round S^2 and the conformal-algebra signature: chart switching and brackets."""

    def __init__(self, seed, workdir):
        rnd = random.Random(seed)
        config = {"seed": rnd.randrange(10_000),
                  "metric_params": {"radius": rnd.uniform(0.5, 2.0), "b": _drift(rnd)}}
        super().__init__(("s2-round", "conformal-algebra-signature"), config, workdir)


def _rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _randers_2d(rnd):
    """Randers norm with a seeded SPD ``a`` and a-dual drift norm in [0.2, 0.7]."""
    rot = _rotation(rnd.uniform(0.0, math.pi))
    lams = np.array([rnd.uniform(0.5, 2.0), rnd.uniform(0.5, 2.0)])
    a = rot @ np.diag(lams) @ rot.T
    sqrt_a = rot @ np.diag(np.sqrt(lams)) @ rot.T
    dual = rnd.uniform(0.2, 0.7)
    b = dual * sqrt_a @ np.array(_unit(rnd.uniform(0.0, 2.0 * math.pi)))
    return norm_core.RandersNorm(0.5 * (a + a.T), b), dual


def _randers_3d(rnd):
    """Randers norm on R^3 with a = I, so its average is symmetric about b."""
    direction = np.array([rnd.gauss(0.0, 1.0) for _ in range(3)])
    b = rnd.uniform(0.2, 0.7) * direction / np.linalg.norm(direction)
    return norm_core.RandersNorm(np.eye(3), b)


class Indicatrix:
    """Averaging and norm diagnostics; never enters the conformal solver.

    Each pass runs the two averaging/circle experiments through ``cli.main``
    and then, for each seeded 2-D norm, closed-form averages at two
    resolutions, an equivariance check, the axiom and reversibility
    diagnostics, a derivative-free ``GenericNorm`` average, and a pointwise
    averaged rescaled field evaluated on a seeded torus grid.
    """

    n_norms = 3
    grid_per_axis = 4
    directions_per_point = 2

    def __init__(self, seed, workdir):
        rnd = random.Random(seed)
        config = {"seed": rnd.randrange(10_000), "metric_params": {}}
        self.experiments = ExperimentRun(("averaging-equivariance", "circle-lambda"), config, workdir)
        torus = manifold.FlatTorus()
        self.cases = []
        for _ in range(self.n_norms):
            norm, dual = _randers_2d(rnd)
            rot = _rotation(rnd.uniform(0.0, 2.0 * math.pi))
            composed = norm_core.RandersNorm(rot.T @ norm.a @ rot, rot.T @ norm.b)
            k = rnd.choice([(1, 0), (0, 1), (1, 1)])
            rho = manifold.TorusFourierScalar(
                torus, const=2.0, terms=[(k, rnd.uniform(-0.5, 0.5), rnd.uniform(-0.5, 0.5))])
            field = manifold.PointwiseAveragedField(
                manifold.ConformalRescaleField(manifold.ConstantNormField(torus, norm), rho), 1024)
            offset = (rnd.random(), rnd.random())
            samples = [
                (pt, np.array(_unit(rnd.uniform(0.0, 2.0 * math.pi))))
                for pt in torus.grid_points(self.grid_per_axis, offset=offset)
                for _ in range(self.directions_per_point)
            ]
            self.cases.append({
                "norm": norm, "dual": dual, "rot": rot, "composed": composed,
                "generic": norm_core.GenericNorm(2, norm), "rho": rho,
                "field": field, "samples": samples,
            })
        self.norm3 = _randers_3d(rnd)

    def run_pass(self):
        results = {"experiments": self.experiments.run_pass()}

        def attempt(key, fn, *args, **kwargs):
            try:
                results[key] = fn(*args, **kwargs)
            except Exception as exc:  # a failed operation is counted, not fatal
                results[key] = exc

        for i, case in enumerate(self.cases):
            norm = case["norm"]
            attempt(f"average-1024[{i}]", averaging.average, norm, 1024)
            attempt(f"average-4096[{i}]", averaging.average, norm, 4096)
            attempt(f"verify-equivariance[{i}]", averaging.verify_equivariance,
                    case["composed"], norm, case["rot"], 1.0, resolution=1024)
            attempt(f"check-axioms[{i}]", norm_core.check_axioms, norm)
            attempt(f"reversibility-sup[{i}]", norm_core.reversibility_sup, norm)
            attempt(f"generic-average-1024[{i}]", averaging.average, case["generic"], 1024)
            field = case["field"]
            for j, (pt, y) in enumerate(case["samples"]):
                attempt(f"averaged-field-eval[{i}][{j}]", field.eval, pt, y)
        attempt("average-3d-4096", averaging.average, self.norm3, 4096)
        return results

    def check_pass(self, results):
        outcomes = self.experiments.check_pass(results.pop("experiments"))
        checks = {}
        for i, case in enumerate(self.cases):
            checks.update(self._case_checks(i, case, results))
        checks["average-3d-4096"] = lambda m: _axis_symmetry(m.matrix, self.norm3.b)
        for key, value in results.items():
            if isinstance(value, Exception):
                outcomes.append(Outcome(key, False, f"raised {value!r}"))
            else:
                problem = checks[key](value)
                outcomes.append(Outcome(key, problem is None, problem or ""))
        return outcomes

    def _case_checks(self, i, case, results):
        closed = results[f"average-1024[{i}]"]
        closed = None if isinstance(closed, Exception) else closed.matrix
        dual = case["dual"]
        exact_rev = (1.0 + dual) / (1.0 - dual)
        checks = {
            f"average-1024[{i}]": lambda m: _spd(m.matrix),
            f"average-4096[{i}]": lambda m: _within(
                "refinement 1024 -> 4096", _max_abs(m.matrix, closed), REFINEMENT_TOL),
            f"verify-equivariance[{i}]": lambda r: _within(
                "rotation residual", r, EQUIVARIANCE_TOL),
            f"check-axioms[{i}]": lambda rep: None if rep.passed else f"axioms: {rep.failures}",
            f"reversibility-sup[{i}]": lambda r: _within(
                "reversibility vs (1+d)/(1-d)", abs(r - exact_rev) / exact_rev, REVERSIBILITY_TOL),
            f"generic-average-1024[{i}]": lambda m: _within(
                "GenericNorm vs closed form", _max_abs(m.matrix, closed), GENERIC_VS_CLOSED_TOL),
        }
        for j, (pt, y) in enumerate(case["samples"]):
            def rescale_law(value, pt=pt, y=y):
                if closed is None:
                    return "no closed-form average to compare with"
                expected = case["rho"].value(pt) * math.sqrt(float(y @ closed @ y))
                return _within("averaged rho*F vs rho * averaged F",
                               abs(value - expected) / expected, RESCALE_LAW_TOL)
            checks[f"averaged-field-eval[{i}][{j}]"] = rescale_law
        return checks


def _max_abs(matrix, reference):
    if reference is None:
        return math.inf
    return float(np.max(np.abs(matrix - reference)))


def _within(label, value, tol):
    return None if value <= tol else f"{label}: {value:.3e} > {tol:.0e}"


def _spd(matrix):
    if np.max(np.abs(matrix - matrix.T)) > 0.0 or np.linalg.eigvalsh(matrix)[0] <= 0.0:
        return "averaged matrix is not symmetric positive definite"
    return None


def _axis_symmetry(matrix, b):
    """With a = I the average commutes with rotations about b: M b ∥ b, equal eigenvalues across b."""
    unit = b / np.linalg.norm(b)
    along = float(unit @ matrix @ unit)
    residual = np.max(np.abs(matrix @ unit - along * unit))
    across = np.linalg.eigvalsh(matrix - along * np.outer(unit, unit))
    spread = abs(across[-1] - across[-2])
    problem = _spd(matrix)
    return problem or _within("3-D axis symmetry", max(residual, spread), AXIS_SYMMETRY_TOL)


WORKLOADS = {
    "torus-rigidity": TorusRigidity,
    "sphere-algebra": SphereAlgebra,
    "indicatrix": Indicatrix,
}
