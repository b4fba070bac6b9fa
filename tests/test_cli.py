import json
import warnings

import numpy as np
import pytest

from finslerfields.cli import main
from finslerfields.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    csv_summary,
    emit_report,
    report_to_dict,
    run_experiment,
)
from finslerfields.lie_algebra import rotation_algebra


FAST_EXPERIMENTS = ["circle-lambda", "averaging-equivariance"]


def test_run_fast_experiments_and_exit_code(tmp_path, capsys):
    code = main(["run", *FAST_EXPERIMENTS, "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    for name in FAST_EXPERIMENTS:
        assert f"{name}: pass" in out
        assert (tmp_path / f"{name}.json").exists()
    summary = (tmp_path / "summary.csv").read_text()
    assert summary.splitlines()[0] == "experiment,killing_dim,conformal_dim,max_residual,gap,pass"
    assert len(summary.splitlines()) == 1 + len(FAST_EXPERIMENTS)


def test_same_seed_gives_byte_identical_summary(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", *FAST_EXPERIMENTS, "--seed", "7", "--out", str(out1)])
    main(["run", *FAST_EXPERIMENTS, "--seed", "7", "--out", str(out2)])
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


def test_unknown_experiment_rejected(tmp_path):
    assert main(["run", "nonexistent", "--out", str(tmp_path)]) == 2


def test_config_file_selects_experiments(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"experiments": ["circle-lambda"], "seed": 3}))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "circle-lambda.json").exists()


def test_average_subcommand(tmp_path, capsys):
    cfg = tmp_path / "norm.json"
    cfg.write_text(json.dumps({"family": "euclidean", "dim": 2, "q": [[1.0, 0.0], [0.0, 4.0]]}))
    table = tmp_path / "quad.csv"
    code = main(["average", "--config", str(cfg), "--resolution", "256",
                 "--table", str(table)])
    assert code == 0
    out = capsys.readouterr().out
    assert "averaged matrix" in out
    assert "refinement difference" in out
    lines = table.read_text().splitlines()
    assert lines[0] == "y1,y2,weight"
    assert len(lines) == 257


def test_solve_fields_subcommand(tmp_path, capsys):
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({
        "manifold": {"kind": "flat_torus"},
        "metric": {"kind": "constant_norm",
                   "norm": {"family": "randers", "dim": 2,
                            "a": [[1.0, 0.0], [0.0, 1.0]], "b": [0.5, 0.0]}},
        "degree": 1,
        "solver": {"x_density": 6},
    }))
    out_file = tmp_path / "report.json"
    code = main(["solve-fields", "--config", str(cfg), "--out", str(out_file)])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["killing_dim"] == 2
    assert doc["conformal_dim"] == 2
    # 6 x 6 points, 10 directions each, 2 + 4 * 4 degree-1 fields in 1 + 4 blocks, read from
    # one point's 6 factor rows
    assert doc["system"] == {"rows": 360, "factor_rows": 6, "unknowns": 18, "blocks": 5}


def test_solve_fields_rescaled_torus(tmp_path):
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({
        "manifold": {"kind": "flat_torus"},
        "metric": {"kind": "constant_norm",
                   "norm": {"family": "randers", "dim": 2,
                            "a": [[1.0, 0.0], [0.0, 1.0]], "b": [0.5, 0.0]},
                   "rescale": {"const": 2.0, "terms": [[[1, 0], 1.0, 0.0]]}},
        "degree": 2,
        "solver": {"x_density": 8},
    }))
    out_file = tmp_path / "report.json"
    code = main(["solve-fields", "--config", str(cfg), "--mode", "killing",
                 "--out", str(out_file)])
    assert code == 0
    assert json.loads(out_file.read_text())["killing_dim"] == 1


def test_solve_fields_rejects_invalid_solver_settings(tmp_path, capsys):
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({
        "manifold": {"kind": "flat_torus"},
        "metric": {"kind": "constant_norm",
                   "norm": {"family": "randers", "dim": 2,
                            "a": [[1.0, 0.0], [0.0, 1.0]], "b": [0.5, 0.0]}},
        "solver": {"x_density": 1},
    }))
    assert main(["solve-fields", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "x_density" in captured.err


EUCLIDEAN_TORUS = {"manifold": {"kind": "flat_torus"},
                   "metric": {"kind": "constant_norm",
                              "norm": {"family": "euclidean", "dim": 2,
                                       "q": [[1.0, 0.0], [0.0, 1.0]]}}}


@pytest.mark.parametrize("command", ["run", "solve-fields"])
@pytest.mark.parametrize("key", ["tol_ratio", "n_extra_directions", "x_densty"])
def test_unknown_settings_keys_are_invalid_settings(tmp_path, capsys, command, key):
    # the retired kernel threshold and extra directions, and a typo, are named, neither
    # crashed on nor ignored
    config = {"experiments": ["circle-lambda"], key: 1e-8}
    if command == "solve-fields":
        config = {**EUCLIDEAN_TORUS, "degree": 1, "solver": {key: 1e-8}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"invalid settings: unknown settings ['{key}']; known: [")
    assert not out.exists()


@pytest.mark.parametrize("config,message", [
    ({"manifold": {"kind": "sphere"}, "metric": {"kind": "round"}, "degree": 3,
      "solver": {"sphere_points": 24}}, "sphere_points 24 < (degree 3 + 2)^2"),
    ({**EUCLIDEAN_TORUS, "degree": 4}, "x_density 8 < 2 * degree 4 + 1"),
    ({**EUCLIDEAN_TORUS, "manifold": {"kind": "flat_torus", "lattice": [[1.0, 2.0], [0.5, 1.0]]}},
     "lattice basis is degenerate"),
    ({"manifold": {"kind": "sphere", "radius": 0.0}, "metric": {"kind": "round"}},
     "radius must be positive"),
    ({**EUCLIDEAN_TORUS, "manifold": {"kind": "flat_torus", "lattice": [[2.0]]}},
     "the norm has dimension 2 and the manifold 1"),
    ({"manifold": {"kind": "flat_torus", "lattice": [[2.0]]},
      "metric": {"kind": "constant_norm", "norm": {"family": "euclidean", "dim": 1, "q": [[1.0]]}}},
     "torus_basis takes a 2-torus, got a 1-torus"),
    ({**EUCLIDEAN_TORUS, "manifold": {"kind": "flat_torus", "lattice": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}},
     "lattice must be a finite (n, n) matrix, got [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]"),
    ({**EUCLIDEAN_TORUS, "metric": {"kind": "constant_norm",
                                    "norm": {"family": "euclidean", "dim": 3, "q": np.eye(3).tolist()}}},
     "the norm has dimension 3 and the manifold 2"),
    ({**EUCLIDEAN_TORUS, "manifold": {"kind": "cube"}},
     "unsupported manifold kind 'cube'; known: ['flat_torus', 'sphere']"),
    ({"manifold": {"kind": "sphere"}, "metric": {"kind": "constant_norm"}},
     "unsupported metric kind 'constant_norm'; known: ['round']"),
    ({"metric": EUCLIDEAN_TORUS["metric"]},
     "unsupported manifold kind None; known: ['flat_torus', 'sphere']"),
    ({**EUCLIDEAN_TORUS, "manifold": {"kind": "flat_torus", "lattice": [[1.0, 2.0], [3.0]]}},
     "the torus needs a numeric array 'lattice'"),
    ({**EUCLIDEAN_TORUS, "metric": {**EUCLIDEAN_TORUS["metric"], "rescale": {"terms": [[1, 0]]}}},
     "a rescale term is [k, a, b], got [[1, 0]]"),
    ({**EUCLIDEAN_TORUS, "metric": {**EUCLIDEAN_TORUS["metric"], "rescale": {"terms": [[[1, 0, 0], 1, 0]]}}},
     "a rescale term [k, a, b] needs a numeric array 'k' of shape (2,)"),
    ({**EUCLIDEAN_TORUS, "metric": {**EUCLIDEAN_TORUS["metric"],
                                    "rescale": {"const": 2.0, "terms": [[[0.5, 0], 1.0, 0.0]]}}},
     "a mode on a 2-torus has 2 entries, each an integer"),
    ({**EUCLIDEAN_TORUS, "degree": "2"}, "degree must be a non-negative int, got '2'"),
    ({"manifold": {"kind": "sphere"}, "metric": {"kind": "round"}, "degree": 2.0},
     "degree must be a non-negative int, got 2.0"),
    ({**EUCLIDEAN_TORUS, "degree": -1}, "degree must be a non-negative int, got -1"),
    ({"manifold": {"kind": "sphere", "radius": "2"}, "metric": {"kind": "round"}},
     "the sphere needs a numeric array 'radius' of shape ()"),
    ([EUCLIDEAN_TORUS], "the config must be an object, got list"),
    # misspelt lattice, rescale and degree keys are named, not read as their defaults
    ({"manifold": {"kind": "flat_torus", "latice": [[2.0, 0.0], [0.0, 1.0]]},
      "metric": {**EUCLIDEAN_TORUS["metric"], "rescal": {"const": 2.0}}, "degre": 1},
     "unknown settings ['degre']; known: ['degree', 'manifold', 'metric', 'name', 'solver']"),
    ({"manifold": {"kind": "flat_torus", "latice": [[2.0, 0.0], [0.0, 1.0]]},
      "metric": EUCLIDEAN_TORUS["metric"]}, "unknown settings ['latice']; known: ['kind', 'lattice']"),
    ({**EUCLIDEAN_TORUS, "metric": {**EUCLIDEAN_TORUS["metric"], "rescal": {"const": 2.0}}},
     "unknown settings ['rescal']; known: ['kind', 'norm', 'rescale']"),
    ({**EUCLIDEAN_TORUS, "metric": {**EUCLIDEAN_TORUS["metric"], "rescale": [2.0]}},
     "rescale must be an object, got list"),
    ({**EUCLIDEAN_TORUS, "solver": {"seed": -5}}, "seed must be >= 0, got -5"),
], ids=["sphere-degree-3-at-24-points", "torus-degree-4", "degenerate-lattice", "sphere-radius-0",
        "circle-lattice", "circle-basis", "lattice-2x3", "norm-dim-3", "cube", "sphere-constant-norm",
        "no-manifold", "ragged-lattice", "short-rescale-term", "rescale-k-of-length-3",
        "rescale-k-fractional", "degree-string", "sphere-degree-float", "degree-negative",
        "radius-string", "top-level-list", "misspelt-keys", "misspelt-lattice", "misspelt-rescale",
        "rescale-list", "seed-negative"])
def test_solve_fields_rejects_settings_that_the_basis_or_solve_meets(tmp_path, capsys, config,
                                                                     message):
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert main(["solve-fields", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"invalid settings: {message}"]
    assert not out.exists()


RHO_TERMS = {"negative-constant": {"const": -1.0},
             "sign-changing": {"const": 0.5, "terms": [[[1, 0], 1.0, 0.0]]}}


@pytest.mark.parametrize("rescale", list(RHO_TERMS.values()), ids=list(RHO_TERMS))
def test_solve_fields_rejects_a_field_that_is_not_positive(tmp_path, capsys, rescale):
    # F = rho F0 with rho = -1 or 0.5 + cos 2 pi x1: a collocation row has F <= 0
    config = {**EUCLIDEAN_TORUS, "metric": {**EUCLIDEAN_TORUS["metric"], "rescale": rescale}}
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps(config))
    assert main(["solve-fields", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("invalid settings: the field is not positive: min F = -")


@pytest.mark.parametrize("value", ["8", 8.5, True], ids=["string", "float", "bool"])
def test_integer_settings_take_integers_only(tmp_path, capsys, value):
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({**EUCLIDEAN_TORUS, "degree": 1, "solver": {"x_density": value}}))
    assert main(["solve-fields", "--config", str(cfg)]) == 2
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps({"experiments": ["circle-lambda"], "x_density": value}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(run_cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines() == ["invalid settings: settings ['x_density'] must be integers"] * 2


BAD_NORMS = {
    "randers-drift-1.5": ({"family": "randers", "dim": 2, "a": [[1, 0], [0, 1]], "b": [1.5, 0]},
                          "a-dual norm of b is 1.500000 >= 1"),
    "unknown-family": ({"family": "finsler", "dim": 2},
                       "unsupported norm record family 'finsler'; known: ['euclidean', 'randers']"),
    "indefinite-q": ({"family": "euclidean", "dim": 2, "q": [[1, 0], [0, -1]]},
                     "Q must be positive definite"),
    "euclidean-without-q": ({"family": "euclidean", "dim": 2}, "norm record needs a numeric array 'q'"),
    "randers-b-length-3": ({"family": "randers", "dim": 2, "a": [[1, 0], [0, 1]], "b": [0.1, 0, 0]},
                           "b must match the dimension of a"),
    "randers-b-nan": ({"family": "randers", "dim": 2, "a": [[1, 0], [0, 1]], "b": [float("nan"), 0]},
                      "norm record needs a numeric array 'b'"),
    "misspelt-q": ({"family": "euclidean", "dim": 2, "q": [[1, 0], [0, 1]], "qq": 1},
                   "unknown settings ['qq']; known: ['dim', 'family', 'q']"),
    "dim-3-of-a-2x2-q": ({"family": "euclidean", "dim": 3, "q": [[1, 0], [0, 1]]},
                         "the norm record has dim 3 and matrices of dimension 2"),
    "dim-string": ({"family": "randers", "dim": "2", "a": [[1, 0], [0, 1]], "b": [0.1, 0]},
                   "the norm record has dim '2' and matrices of dimension 2"),
}


@pytest.mark.parametrize("command", ["average", "solve-fields"])
@pytest.mark.parametrize("record,message", list(BAD_NORMS.values()), ids=list(BAD_NORMS))
def test_bad_norm_record_is_invalid_settings(tmp_path, capsys, command, record, message):
    # exit code 2 and one line, as for bad solver settings: 1 means a check failed
    config = record if command == "average" else {
        **EUCLIDEAN_TORUS, "metric": {"kind": "constant_norm", "norm": record}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"invalid settings: {message}"]


@pytest.mark.parametrize("flag,value,message", [
    ("--resolution", "8", "resolution must be >= 16"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
    ("--seed", str(2**53), f"seed must be below 2**53, got {2**53}"),
], ids=["resolution-8", "seed-negative", "seed-2-to-the-53"])
def test_run_rejects_invalid_settings(tmp_path, capsys, flag, value, message):
    # exit code 2, as for an unknown experiment: 1 means a check failed
    assert main(["run", "circle-lambda", flag, value, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"invalid settings: {message}"]
    assert not (tmp_path / "out").exists()


EUCLIDEAN_PLANE = {"family": "euclidean", "dim": 2, "q": [[1.0, 0.0], [0.0, 1.0]]}
RANDERS_LINE = {"family": "randers", "dim": 1, "a": [[1.1025]], "b": [0.35]}


@pytest.mark.parametrize("record,resolution,message", [
    (RANDERS_LINE, "-3", "resolution must be >= 1 for n = 1"),
    (RANDERS_LINE, "0", "resolution must be >= 1 for n = 1"),
    (EUCLIDEAN_PLANE, "8", "resolution must be >= 16 for n = 2"),
    (EUCLIDEAN_PLANE, "-3", "resolution must be >= 16 for n = 2"),
    ({"family": "euclidean", "dim": 3, "q": np.eye(3).tolist()}, "128", "resolution must be >= 256 for n = 3"),
    ({"family": "euclidean", "dim": 4, "q": np.eye(4).tolist()}, "1024",
     "indicatrix sampling is implemented for n = 1, 2 and 3, got n = 4"),
], ids=["1d-resolution-negative", "1d-resolution-0", "resolution-8", "resolution-negative",
        "3d-resolution-128", "dim-4"])
def test_average_rejects_settings_it_cannot_sample(tmp_path, capsys, record, resolution, message):
    cfg = tmp_path / "norm.json"
    cfg.write_text(json.dumps(record))
    table = tmp_path / "quad.csv"
    assert main(["average", "--config", str(cfg), "--resolution", resolution, "--table", str(table)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"invalid settings: {message}"]
    assert not table.exists()


@pytest.mark.parametrize("name,degree,message", [
    ("randers-torus", "4", "x_density 8 < 2 * degree 4 + 1"),
    ("s2-round", "11", "sphere_points 150 < (degree 11 + 2)^2"),
    ("randers-torus", "200", "x_density 8 < 2 * degree 200 + 1"),
    ("s2-round", "200", "sphere_points 150 < (degree 200 + 2)^2"),
])
def test_run_rejects_settings_that_the_solve_meets(tmp_path, capsys, name, degree, message):
    # met only when the basis is built or the solve starts, yet answered as a bad flag is
    out = tmp_path / "out"
    assert main(["run", name, "--degree", degree, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"invalid settings: {message}"]
    assert not out.exists()


def test_run_lets_other_errors_through(tmp_path, monkeypatch):
    def broken(config):
        raise ValueError("not a settings error")

    monkeypatch.setitem(EXPERIMENTS, "s2-round", broken)
    with pytest.raises(ValueError, match="not a settings error"):
        main(["run", "s2-round", "--out", str(tmp_path / "out")])


def test_lie_report_subcommand(tmp_path, capsys):
    cfg = tmp_path / "constants.json"
    cfg.write_text(json.dumps(rotation_algebra().to_dict()))
    code = main(["lie-report", "--constants", str(cfg)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 3
    assert doc["killing_signature"] == [0, 3, 0]
    assert not doc["solvable_cartan"]


def test_lie_report_of_the_zero_algebra(tmp_path, capsys):
    cfg = tmp_path / "constants.json"
    cfg.write_text(json.dumps({"dim": 0, "entries": []}))
    assert main(["lie-report", "--constants", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["dim"], doc["compact_type"], doc["direct_sum"]) == (0, True, True)
    assert doc["killing_gram_eigenvalues"] == [] and doc["killing_signature"] == [0, 0, 0]


BAD_CONSTANTS = {
    "index-out-of-range": {"dim": 2, "entries": [[0, 1, 5, 1.0]]},
    "negative-index": {"dim": 2, "entries": [[0, 1, -1, 1.0]]},
    "bracket-of-itself": {"dim": 2, "entries": [[1, 1, 0, 1.0]]},
    "value-string": {"dim": 2, "entries": [[0, 1, 0, "1"]]},
    "dim-string": {"dim": "x", "entries": []},
    "no-entries": {"dim": 0},
    "list": [],
}


@pytest.mark.parametrize("record", list(BAD_CONSTANTS.values()), ids=list(BAD_CONSTANTS))
def test_lie_report_rejects_a_record_that_is_not_an_algebra(tmp_path, capsys, record):
    cfg = tmp_path / "constants.json"
    cfg.write_text(json.dumps(record))
    assert main(["lie-report", "--constants", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "invalid settings: constants are {'dim': n, 'entries': [[i, j, k, value], ...]} with n >= 0, "
        f"i, j, k in range(n), i != j and finite values; got {record!r}"]


def test_lie_report_rejects_constants_that_fail_jacobi(tmp_path, capsys):
    cfg = tmp_path / "constants.json"
    cfg.write_text(json.dumps({"dim": 3, "entries": [[0, 1, 0, 1.0], [1, 2, 1, 1.0], [0, 2, 2, 1.0]]}))
    assert main(["lie-report", "--constants", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "invalid settings: the constants are not a Lie algebra: Jacobi residual 1.000e+00 exceeds 1e-08 s^2"]


def test_average_of_a_one_dimensional_randers_norm(tmp_path, capsys):
    # sqrt(1.1025) |y| + 0.35 y is 1.4 y forwards and 0.7 |y| backwards: (1.4^2 + 0.7^2) / 2
    cfg = tmp_path / "norm.json"
    cfg.write_text(json.dumps(RANDERS_LINE))
    table = tmp_path / "quad.csv"
    assert main(["average", "--config", str(cfg), "--table", str(table)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert float(out[1]) == pytest.approx(1.225, abs=1e-12)
    lines = table.read_text().splitlines()
    assert lines[0] == "y1,weight" and len(lines) == 3
    nodes = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_allclose(nodes, [[1 / 1.4, 1.0], [-1 / 0.7, 1.0]], rtol=1e-12)   # 13 digits


def test_emit_report_writes_json_and_the_summary_one_row(tmp_path):
    report = run_experiment("circle-lambda", ExperimentConfig(name="circle-lambda"))
    json_path = emit_report(report, tmp_path / "r.json")
    doc = json.loads(json_path.read_text())
    assert doc["experiment"] == "circle-lambda"
    assert doc["passed"] is True
    assert all({"name", "value", "threshold", "comparison", "passed"} <= set(c) for c in doc["checks"])
    lines = csv_summary([report]).splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("circle-lambda,")


@pytest.mark.parametrize("name", ["randers-torus", "conformal-algebra-signature"])
def test_emitted_report_equals_its_dict_as_data(tmp_path, name):
    report = run_experiment(name, ExperimentConfig(name=name))
    text = emit_report(report, tmp_path / "r.json").read_text()
    assert json.loads(text) == report_to_dict(report)
    assert text.count("\n") == 1


@pytest.mark.parametrize("name,system", [
    ("riemannian-torus", {"rows": 640, "factor_rows": 6, "unknowns": 50, "blocks": 13}),
    ("s2-round", {"rows": 1500, "factor_rows": 6, "unknowns": 23, "blocks": 15}),
])
def test_experiment_json_records_the_system_sizes(tmp_path, name, system):
    report = run_experiment(name, ExperimentConfig(name=name))
    doc = json.loads(emit_report(report, tmp_path / "r.json").read_text())
    assert doc["extra"]["system"] == system
    header = csv_summary([report]).splitlines()[0]
    assert header == "experiment,killing_dim,conformal_dim,max_residual,gap,pass"


def test_empty_summary_is_header_only(tmp_path):
    text = csv_summary([], tmp_path / "empty.csv")
    assert text == "experiment,killing_dim,conformal_dim,max_residual,gap,pass\n"


def test_failing_experiment_yields_exit_one(tmp_path, monkeypatch):
    import finslerfields.experiments as experiments_mod

    def always_failing(config):
        checks = []
        experiments_mod._check(checks, "forced failure", 1.0, "<=", 0.0)
        return checks, None, {}, None

    monkeypatch.setitem(experiments_mod.EXPERIMENTS, "circle-lambda", always_failing)
    code = main(["run", "circle-lambda", "--out", str(tmp_path)])
    assert code == 1
    summary = (tmp_path / "summary.csv").read_text()
    assert summary.splitlines()[1].endswith(",fail")
    doc = json.loads((tmp_path / "circle-lambda.json").read_text())
    assert doc["passed"] is False


def test_invalid_experiment_config_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(name="x", resolution=8)
    with pytest.raises(ValueError):
        ExperimentConfig(name="x", x_density=1)


def test_flag_overrides_reach_the_solver(tmp_path):
    # a flag overrides the default and is echoed in the config section of the report
    code = main(["run", "circle-lambda", "--resolution", "512", "--seed", "5",
                 "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "circle-lambda.json").read_text())
    assert doc["config"]["resolution"] == 512
    assert doc["config"]["seed"] == 5


@pytest.mark.parametrize("radius", [0.5, 2.0, 1e3])
def test_algebra_signature_uses_the_configured_radius(tmp_path, radius):
    name = "conformal-algebra-signature"
    # an ambiguous ad_semisimple clustering would warn, and a warning fails the run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_experiment(name, ExperimentConfig(name=name, metric_params={"radius": radius}))
    assert report.passed
    assert (report.killing_dim, report.conformal_dim) == (3, 6)
    assert report.extra["conformal_signature"] == [3, 3, 0]
    doc = json.loads(emit_report(report, tmp_path / "r.json").read_text())
    assert doc["extra"]["spec"]["manifold"] == {"kind": "sphere", "radius": radius}
    assert doc["config"]["metric_params"]["radius"] == radius


SOLVER_EXPERIMENTS = ["s2-round", "riemannian-torus", "randers-torus", "rescaled-randers-torus",
                      "rescaled-riemannian-torus", "conformal-algebra-signature"]


@pytest.mark.parametrize("name", SOLVER_EXPERIMENTS)
def test_experiment_spec_solves_to_the_same_report(tmp_path, capsys, name):
    # extra.spec is the solve-fields config of the experiment's reported solve
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"metric_params": {"b": [0.3, 0.2], "radius": 1.7}}))
    assert main(["run", name, "--config", str(cfg), "--seed", "3", "--out", str(tmp_path / "run")]) == 0
    doc = json.loads((tmp_path / "run" / f"{name}.json").read_text())
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc["extra"]["spec"]))
    mode = "killing" if doc["conformal_dim"] is None else "conformal"
    assert main(["solve-fields", "--config", str(spec), "--mode", mode,
                 "--out", str(tmp_path / "solve.json")]) == 0
    solved = json.loads((tmp_path / "solve.json").read_text())
    assert solved["killing_dim"] == doc["killing_dim"]
    assert solved["conformal_dim"] == doc["conformal_dim"]
    assert solved["singular_values"] == doc["singular_values"]


METRIC_PARAMS = {
    "b-string": ("randers-torus", {"b": "x"}, "norm record needs a numeric array 'b'"),
    "radius-string": ("s2-round", {"radius": "2"},
                      "the sphere needs a numeric array 'radius' of shape ()"),
    "inadmissible-b": ("randers-torus", {"b": [1.5, 0.0]}, "a-dual norm of b is 1.500000 >= 1"),
    "misspelt-b": ("randers-torus", {"bee": [0.1, 0.0]}, "unknown settings ['bee']; known: ['b', 'radius']"),
}


@pytest.mark.parametrize("name,params,message", list(METRIC_PARAMS.values()), ids=list(METRIC_PARAMS))
def test_run_rejects_bad_metric_params(tmp_path, capsys, name, params, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"metric_params": params}))
    out = tmp_path / "out"
    assert main(["run", name, "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"invalid settings: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("config,kind", [([EUCLIDEAN_TORUS], "list"), ("s2-round", "str"), (2, "int")],
                         ids=["list", "string", "number"])
def test_run_rejects_a_config_file_that_is_not_an_object(tmp_path, capsys, config, kind):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"invalid settings: the config must be an object, got {kind}"]
    assert not out.exists()


@pytest.mark.parametrize("experiments", [5, "randers-torus", ["circle-lambda", 2]],
                         ids=["number", "string", "list-with-a-number"])
def test_run_rejects_experiments_that_are_not_a_list_of_names(tmp_path, capsys, experiments):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"experiments": experiments}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"invalid settings: experiments must be a list of experiment names, got {experiments!r}"]
    assert not out.exists()


def test_sphere_degree_zero_reports_failed_checks(tmp_path, capsys):
    # the three gradient fields: none is Killing, and their brackets, rotations, leave their span
    out = tmp_path / "out"
    assert main(["run", "s2-round", "conformal-algebra-signature", "--degree", "0",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    doc = json.loads((out / "conformal-algebra-signature.json").read_text())
    assert (doc["killing_dim"], doc["conformal_dim"], doc["passed"]) == (0, 3, False)
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == [
        "sphere killing fields give structure constants",
        "sphere conformal fields give structure constants"]
    assert doc["extra"]["conformal_signature"] is None and doc["structure_constants"] is None
    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[1].startswith("s2-round,0,3,") and rows[1].endswith(",fail")
