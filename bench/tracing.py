"""Span tracing of finslerfields from outside the package, for the traced benchmark run.

``Tracer.installed()`` replaces public functions and methods with timing
wrappers, each at the place its callers look it up (a module global such as
``conformal_solver.assemble_system``, a name imported into another module
such as ``cli.run_experiment`` or ``manifold.average``, a class attribute, or
an entry of ``experiments.EXPERIMENTS``), and restores the originals on exit.
Nothing under ``src/`` is edited.

Each call becomes a span (name, start, end, parent, pass id) kept in flat
arrays; self time and the per-layer metrics are computed from the spans at
the end.  Every span name belongs to one metric key; a key's inclusive time
and call count take only the outermost span of nested same-key spans (for
example ``ConformalRescaleField.grad_y`` calling the base field's
``grad_y``), so nothing is counted twice.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter

import numpy as np

from finslerfields import (
    averaging,
    cli,
    conformal_solver,
    experiments,
    lie_algebra,
    manifold,
    norm_core,
)

LAYERS = ("norm_core", "averaging", "manifold", "conformal_solver",
          "lie_algebra", "experiments", "cli")

LIE_DIAGNOSTICS = (
    "ad_matrix", "killing_form", "killing_gram", "derived_series", "is_solvable",
    "derived_subspace", "cartan_solvability", "killing_radical", "subalgebra_constants",
    "ad_semisimple", "ad_nilpotent", "center_basis", "compact_decomposition_check",
    "killing_signature",
)
# Metric keys whose time is the union of several keys' outermost spans.
GROUPS = {"norm_core.grad": ("norm_core.scalar_grad", "norm_core.batch_grad", "norm_core.loop_grad")}
FIELD_CLASSES = ("ConstantNormField", "RoundSphereField", "ConformalRescaleField",
                 "CircleNormField", "PullbackField", "PointwiseAveragedField")
BASIS_CLASSES = ("TorusFourierVectorField", "SpherePolyVectorField")


def _rows(args, kwargs, result):
    return {"conformal_solver.assemble_system.rows": result.shape[0],
            "conformal_solver.assemble_system.cells": result.size}


def _null_space_cells(args, kwargs, result):
    return {"conformal_solver.null_space.cells": np.asarray(args[0]).size}


def _bracket_pairs(args, kwargs, result):
    n = len(args[0])
    return {"conformal_solver.extract_structure_constants.bracket_pairs": n * (n - 1) // 2}


def _transitivity_points(args, kwargs, result):
    return {"conformal_solver.transitivity_check.points": len(args[1])}


def _nodes(args, kwargs, result):
    return {"averaging.nodes": len(result.weights)}


def _field_average(args, kwargs, result):
    return {"manifold.averaged_field.averages": 1}


def _batch_rows(args, kwargs, result):
    return {"norm_core.batch.rows": len(args[1])}


def targets():
    """(owner, attribute, span name, metric key, count hook) for every wrapped callable."""
    out = []

    def add(owner, attr, name, key=None, count=None):
        out.append((owner, attr, name, key or name, count))

    cs = "conformal_solver."
    add(conformal_solver, "solve_fields", cs + "solve_fields")
    add(conformal_solver, "build_collocation", cs + "build_collocation")
    add(conformal_solver, "assemble_system", cs + "assemble_system", count=_rows)
    add(conformal_solver, "null_space", cs + "null_space", count=_null_space_cells)
    add(conformal_solver, "extract_structure_constants", cs + "extract_structure_constants",
        count=_bracket_pairs)
    add(conformal_solver, "transitivity_check", cs + "transitivity_check",
        count=_transitivity_points)

    for cls_name in FIELD_CLASSES:
        cls = getattr(manifold, cls_name)
        for meth in ("eval", "grad_x", "grad_y"):
            if meth in vars(cls):
                add(cls, meth, f"manifold.{cls_name}.{meth}", "manifold.field_eval")
    for cls_name in BASIS_CLASSES:
        for meth in ("value", "jacobian"):
            add(getattr(manifold, cls_name), meth, f"manifold.{cls_name}.{meth}",
                "manifold.basis_eval")
    for meth in ("value", "jacobian"):
        add(manifold.CombinationVectorField, meth, f"manifold.CombinationVectorField.{meth}",
            "manifold.combination_eval")
    add(manifold.PointwiseAveragedField, "matrix_at", "manifold.PointwiseAveragedField.matrix_at",
        "manifold.averaged_field")
    add(manifold, "average", "averaging.average[manifold]", "averaging.average",
        count=_field_average)

    for cls in (norm_core.MinkowskiNorm, norm_core.EuclideanNorm, norm_core.RandersNorm,
                norm_core.GenericNorm):
        if "gradient" in vars(cls):
            add(cls, "gradient", f"norm_core.{cls.__name__}.gradient", "norm_core.scalar_grad")
    add(norm_core.MinkowskiNorm, "gradient_batch", "norm_core.MinkowskiNorm.gradient_batch",
        "norm_core.loop_grad")
    for cls in (norm_core.EuclideanNorm, norm_core.RandersNorm):
        add(cls, "gradient_batch", f"norm_core.{cls.__name__}.gradient_batch",
            "norm_core.batch_grad", count=_batch_rows)
    for cls in (norm_core.MinkowskiNorm, norm_core.EuclideanNorm, norm_core.RandersNorm):
        add(cls, "tensor_batch", f"norm_core.{cls.__name__}.tensor_batch", "norm_core.tensor")
    add(norm_core.MinkowskiNorm, "_tensor_matrix_any", "norm_core.MinkowskiNorm._tensor_matrix_any",
        "norm_core.tensor")
    add(norm_core.MinkowskiNorm, "fundamental_tensor", "norm_core.MinkowskiNorm.fundamental_tensor",
        "norm_core.tensor")
    add(norm_core, "check_axioms", "norm_core.check_axioms")
    add(norm_core, "reversibility_sup", "norm_core.reversibility_sup")

    add(averaging, "sample_indicatrix", "averaging.sample_indicatrix", count=_nodes)
    add(averaging, "averaged_norm", "averaging.averaged_norm")
    add(averaging, "average", "averaging.average")
    add(averaging, "verify_equivariance", "averaging.verify_equivariance")

    for fn in LIE_DIAGNOSTICS:
        add(lie_algebra, fn, f"lie_algebra.{fn}", "lie_algebra")
    add(lie_algebra.LieAlgebraSC, "__init__", "lie_algebra.LieAlgebraSC", "lie_algebra")

    for name in experiments.EXPERIMENTS:
        add(experiments.EXPERIMENTS, name, f"experiments.{name}")
    add(cli, "run_experiment", "experiments.run_experiment")
    add(cli, "emit_report", "experiments.emit_report")
    add(cli, "csv_summary", "experiments.csv_summary")
    add(cli, "main", "cli.main")
    return out


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names = []          # span name per name id
        self.keys = []           # metric key per name id
        self.span_name = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}         # pass id -> Counter of count-hook values
        self.current_pass = -1
        self._stack = []

    def begin_pass(self, pass_id):
        self.current_pass = pass_id
        self.counts[pass_id] = Counter()

    def _wrap(self, fn, name_id, count):
        names, parents, passes = self.span_name, self.parent, self.pass_id
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            passes.append(self.current_pass)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if count is not None:
                self.counts[self.current_pass].update(count(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the original callables on exit."""
        saved = []
        try:
            for owner, attr, name, key, count in targets():
                original = _get(owner, attr)
                if name not in self.names:
                    self.names.append(name)
                    self.keys.append(key)
                saved.append((owner, attr, original))
                _set(owner, attr, self._wrap(original, self.names.index(name), count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                _set(owner, attr, original)

    def arrays(self):
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "pass_id": np.frombuffer(self.pass_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path):
        """Write all spans (times relative to the first span) as a compressed .npz."""
        spans = self.arrays()
        origin = spans["start"].min() if len(spans["start"]) else 0.0
        np.savez_compressed(path, names=np.array(self.names), keys=np.array(self.keys),
                            **{k: (v - origin if k in ("start", "end") else v)
                               for k, v in spans.items()})

    def pass_metrics(self, pass_id):
        """Per-layer metrics of one traced pass, computed from its spans."""
        s = self.arrays()
        n = len(s["name"])
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        in_pass = s["pass_id"] == pass_id

        def ids_where(test):
            return [i for i, key in enumerate(self.keys) if test(key)]

        metrics = {}
        groups = {key: (key,) for key in self.keys}
        groups.update(GROUPS)
        for key, members in groups.items():
            mine = np.isin(s["name"], ids_where(lambda k: k in members))
            outer = mine & ~self._has_ancestor(s["parent"], mine)
            sel = outer & in_pass
            metrics[f"{key}.s"] = float(dur[sel].sum())
            metrics[f"{key}.calls"] = int(sel.sum())
            metrics[f"{key}.self_s"] = float(self_time[mine & in_pass].sum())
        for layer in LAYERS:
            mine = np.isin(s["name"], ids_where(lambda k: k.split(".", 1)[0] == layer))
            metrics[f"{layer}.self_s"] = float(self_time[mine & in_pass].sum())
        metrics.update(self.counts.get(pass_id, {}))
        metrics["trace.spans"] = int(in_pass.sum())

        names = s["name"][in_pass]
        size = len(self.names)
        calls = np.bincount(names, minlength=size)
        incl = np.bincount(names, weights=dur[in_pass], minlength=size)
        excl = np.bincount(names, weights=self_time[in_pass], minlength=size)
        by_name = {name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(excl[i])}
                   for i, name in enumerate(self.names) if calls[i]}
        return metrics, by_name

    @staticmethod
    def _has_ancestor(parent, mine):
        """Mask of spans that have an ancestor inside ``mine``."""
        flagged = np.zeros(len(parent), dtype=bool)
        idx = np.flatnonzero(mine)
        anc = parent[idx]
        hit = np.zeros(len(idx), dtype=bool)
        while True:
            alive = anc >= 0
            if not alive.any():
                break
            hit[alive] |= mine[anc[alive]]
            anc = np.where(alive, parent[np.maximum(anc, 0)], -1)
        flagged[idx] = hit
        return flagged
