"""What a run shares between solves: one ansatz per spec value, and the collocations and
element tables kept read-only in ``manifold.RESULTS``; no result depends on what it holds."""

import dataclasses
import json
import sys
import threading

import numpy as np
import pytest

from finslerfields import cli, manifold
from finslerfields.conformal_solver import (
    build_collocation,
    extract_structure_constants,
    field_from_spec,
    solve_fields,
)
from finslerfields.manifold import RESULTS, field_tables

RANDERS = {"family": "randers", "dim": 2, "a": [[1.0, 0.0], [0.0, 1.0]], "b": [0.4, 0.1]}
RESCALED_TORUS = {"manifold": {"kind": "flat_torus", "lattice": [[1.0, 0.3], [0.0, 1.2]]},
                  "metric": {"kind": "constant_norm", "norm": RANDERS,
                             "rescale": {"const": 2.0, "terms": [[[1, 0], 1.0, 0.0]]}}}
SPHERE = {"manifold": {"kind": "sphere", "radius": 1.3}, "metric": {"kind": "round"}}


def _torus(lattice=None, degree=2):
    section = {"kind": "flat_torus"} if lattice is None else {"kind": "flat_torus", "lattice": lattice}
    return {"manifold": section, "metric": {"kind": "constant_norm", "norm": RANDERS}, "degree": degree}


def _assert_reports_equal(warm, cold):
    for f in dataclasses.fields(cold):
        a, b = getattr(warm, f.name), getattr(cold, f.name)
        if isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        elif isinstance(b, list):
            np.testing.assert_equal(a, b, err_msg=f.name)
        else:
            assert a == b, f.name


@pytest.mark.parametrize("spec,mode", [(RESCALED_TORUS, "killing"), (RESCALED_TORUS, "conformal"),
                                       (SPHERE, "conformal")], ids=["torus-killing", "torus", "sphere"])
def test_a_solve_on_a_warm_cache_equals_the_cold_solve(spec, mode):
    field, basis, config = field_from_spec(spec)
    RESULTS.clear()
    cold = solve_fields(field, basis, mode, config)
    assert RESULTS.entries
    warm = solve_fields(field, basis, mode, config)
    _assert_reports_equal(warm, cold)
    # the combinations of the solved fields, contracted after the lookup, whichever way it went
    fields = [basis.combination(c) for c in cold.killing_basis]
    warm_constants = extract_structure_constants(fields)[0].constants
    RESULTS.clear()
    np.testing.assert_array_equal(extract_structure_constants(fields)[0].constants, warm_constants)


def test_cached_tables_and_collocations_are_read_only():
    _, basis, config = field_from_spec(_torus())
    points, fan = build_collocation(basis.manifold, config)
    table = field_tables(basis.elements, points)
    for array in (points, fan, table):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] += 1.0
    assert build_collocation(basis.manifold, config)[0] is points
    assert field_tables(basis.elements, points.copy()) is table
    # a combination's table is contracted from the cached one into a new array
    combined = field_tables([basis.combination(np.ones(basis.n_fields))], points)
    combined[0, 0] = 0.0


def test_equal_specs_share_one_basis_and_one_manifold():
    field, basis, _ = field_from_spec(_torus())
    same_field, same_basis, _ = field_from_spec(_torus([[1.0, 0.0], [0.0, 1.0]]))
    assert same_basis is basis and same_field.manifold is field.manifold is basis.manifold
    assert isinstance(basis.elements, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        basis.degree = 3
    rescaled, rescaled_basis, _ = field_from_spec(RESCALED_TORUS)
    assert rescaled.rho.torus is rescaled.manifold is rescaled_basis.manifold
    for other in (_torus([[1.0, 0.0], [0.0, 1.1]]), _torus(degree=3)):
        assert field_from_spec(other)[1] is not basis
    assert field_from_spec(_torus(degree=3))[1].manifold is basis.manifold
    sphere = field_from_spec(SPHERE)[1]
    assert field_from_spec(SPHERE)[1] is sphere
    assert field_from_spec({**SPHERE, "manifold": {"kind": "sphere", "radius": 1.2}})[1] is not sphere
    assert field_from_spec({**SPHERE, "manifold": {"kind": "sphere"}})[1].manifold.radius == 1.0


def test_a_degree_sweep_keeps_the_cache_within_its_budget(monkeypatch):
    RESULTS.clear()
    for degree in range(1, 7):
        # a field that varies along the torus, so that its solves read the element tables
        # at every fit and verification point
        spec = {**RESCALED_TORUS, "degree": degree, "solver": {"x_density": 2 * degree + 1}}
        field, basis, config = field_from_spec(spec)
        assert solve_fields(field, basis, "killing", config).killing_dim == 1
        assert RESULTS.nbytes <= RESULTS.budget == manifold.CACHE_BYTES
        assert RESULTS.nbytes == sum(size for _, size in RESULTS.entries.values())
    # the degree-6 fit and verification tables, 2.7 MB each, are kept, and older entries were
    # evicted for them: without eviction each degree would leave four (two collocations and
    # two tables)
    sizes = [entry[1] for entry in RESULTS.entries.values()]
    assert sorted(sizes)[-2] > 2.7e6 and len(sizes) < 6 * 4
    # a table larger than the budget is computed, read-only, and not kept
    points = basis.manifold.grid_points(9)
    monkeypatch.setattr(RESULTS, "budget", 1 << 20)
    before = dict(RESULTS.entries)
    table = field_tables(basis.elements, points)
    assert table.nbytes > RESULTS.budget and not table.flags.writeable
    assert RESULTS.entries == before


def test_two_runs_in_one_process_write_the_same_reports(tmp_path, capsys):
    RESULTS.clear()
    outs = [tmp_path / "cold", tmp_path / "warm"]
    for out in outs:
        assert cli.main(["run", "--seed", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (outs[0] / "summary.csv").read_bytes() == (outs[1] / "summary.csv").read_bytes()
    names = sorted(path.name for path in outs[0].glob("*.json"))
    assert len(names) == 8 and names == sorted(path.name for path in outs[1].glob("*.json"))
    for name in names:
        cold, warm = (json.loads((out / name).read_text()) for out in outs)
        assert cold.pop("wall_time_s") >= 0 and warm.pop("wall_time_s") >= 0
        assert cold == warm, name


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_concurrent_lookups_keep_the_byte_count():
    cache = manifold.ResultCache(40 * (manifold.ENTRY_BYTES + 800))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work(seed):
            rng = np.random.default_rng(seed)
            for key in rng.integers(0, 60, size=400):
                value = cache.get(int(key), lambda key=key: np.full(100, float(key)))
                assert value[0] == key and not value.flags.writeable

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch)
    assert cache.nbytes == sum(size for _, size in cache.entries.values()) <= cache.budget
    assert len(cache.entries) == 40
