"""Golden records: short seeded runs pinned to ``tests/golden_records.json``.

Each cell runs one method on one problem with a fixed seed and a small
budget.  Its JSON record (estimate, termination, iterations, cost, fitted
proposal and the whole trace) must match the stored one: integers, flags and
strings exactly, floats to 1e-12 relative.  Any refactor of the run loop has
to keep these records; a change that alters the numerics on purpose
regenerates the cells it moves with

    PYTHONPATH=src python tests/test_golden.py CELL [CELL ...]

which reruns only the named cells and merges them into the stored file, so
that no other cell picks up rounding-level differences of the host; with
no names it reruns every cell.  A rerun cell keeps the stored value of
every field that did not move under these rules (see :func:`merged`), so
its diff shows only the fields that moved.  For each cell it reruns it
prints how many fields moved against the stored record and the first few
of them, so the change can name the records that moved and why.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from cbree.bench import METHODS
from cbree.problems import get_problem

GOLDEN = Path(__file__).with_name("golden_records.json")
REL_TOL = 1e-12

# (name, method, problem, seed, config overrides)
CELLS = (
    ("cbree-linear", "cbree", "linear", 11, dict(n_particles=500, max_iter=30)),
    ("cbree-convex", "cbree", "convex", 12, dict(n_particles=500, max_iter=30)),
    ("cbree-oscillator", "cbree", "oscillator", 13, dict(n_particles=1000, max_iter=30)),
    # the cell above stops at the divergence check before any step with
    # exp(-h) == 0; with the check off this one converges, and its proposals
    # from iteration 9 on are the exact laws of their points
    (
        "cbree-oscillator-exact",
        "cbree",
        "oscillator",
        13,
        dict(n_particles=1000, n_obs=0, max_iter=30),
    ),
    (
        "cbree-linear50",
        "cbree",
        "linear-50",
        14,
        dict(n_particles=400, delta_target=2.0, eps_target=0.5, n_obs=0, max_iter=12),
    ),
    # the cell above never takes a step with exp(-h) == 0; this one does
    # from iteration 8 on, so its proposals from iteration 9 on are the
    # exact laws of their points
    (
        "cbree-linear50-exact",
        "cbree",
        "linear-50",
        20,
        dict(n_particles=1000, n_obs=0, max_iter=20),
    ),
    (
        "cbree-vmfn-linear50",
        "cbree-vmfn",
        "linear-50",
        15,
        dict(n_particles=400, delta_target=4.0, eps_target=0.5, n_obs=0, max_iter=12),
    ),
    # the cell above sees at most one failing point per batch, so it pins
    # the steps but hardly the weights; with J=4000, 11 of this cell's 13
    # batches have a finite CV, and all 13 a nonzero estimate
    (
        "cbree-vmfn-linear50-weights",
        "cbree-vmfn",
        "linear-50",
        18,
        dict(n_particles=4000, delta_target=4.0, eps_target=0.5, n_obs=0, max_iter=12),
    ),
    ("enkf-linear", "enkf", "linear", 16, dict(n_particles=500, max_iter=30)),
    ("enkf-vmfn-linear", "enkf-vmfn", "linear-4", 19, dict(n_particles=500, max_iter=6)),
    ("mc-linear", "mc", "linear", 17, dict(n_particles=50_000)),
)


def run_cell(method, problem_name, seed, overrides) -> dict:
    problem = get_problem(problem_name)
    config_class, runner = METHODS[method]
    record = runner(problem, config_class(seed=seed, **overrides))
    assert record.cost == problem.evaluations
    return record.to_json_dict()


def mismatches(expected, actual, path="") -> list[str]:
    """Paths where ``actual`` departs from ``expected`` under the record rules."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [m for k in expected for m in mismatches(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [
            m for i, (e, a) in enumerate(zip(expected, actual))
            for m in mismatches(e, a, f"{path}[{i}]")
        ]
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=0.0):
            return []
        return [f"{path}: {expected!r} != {actual!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: {expected!r} != {actual!r}"]
    return []


def merged(stored, fresh):
    """``fresh`` with the ``stored`` value kept wherever :func:`mismatches`
    finds no move; a field that moved, a dict whose keys changed and a list
    whose length changed take the fresh value."""
    if isinstance(stored, dict) and isinstance(fresh, dict) and stored.keys() == fresh.keys():
        return {k: merged(stored[k], fresh[k]) for k in fresh}
    if isinstance(stored, list) and isinstance(fresh, list) and len(stored) == len(fresh):
        return [merged(e, a) for e, a in zip(stored, fresh)]
    return fresh if mismatches(stored, fresh) else stored


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_cells_cover_the_golden_file(golden):
    assert sorted(golden) == sorted(name for name, *_ in CELLS)


@pytest.mark.parametrize("name,method,problem,seed,overrides", CELLS, ids=[c[0] for c in CELLS])
def test_record_matches_golden(golden, name, method, problem, seed, overrides):
    # JSON turns every float of the record into a Python float, so compare
    # the round-tripped record with the stored one
    actual = json.loads(json.dumps(run_cell(method, problem, seed, overrides)))
    found = mismatches(golden[name], actual)
    assert not found, f"{name}: {len(found)} fields moved, first: {found[:5]}"


def test_mismatches_rules():
    assert mismatches({"a": 1.0, "b": [2, "x"]}, {"a": 1.0 + 1e-15, "b": [2, "x"]}) == []
    assert mismatches({"a": 1.0}, {"a": 1.0 + 1e-9}) != []
    assert mismatches({"cost": 10}, {"cost": 11}) != []
    assert mismatches({"t": "converged"}, {"t": "max_iter"}) != []
    assert mismatches({"x": None}, {"x": 0.0}) != []
    assert mismatches([1.0, 2.0], [1.0]) != []


def test_merged_keeps_every_unmoved_stored_value():
    stored = {"a": 1.0, "b": [2.0, 3.0], "c": {"n": 1}, "d": [1.0], "e": {"x": 1.0}, "f": None}
    fresh = {
        "a": 1.0 + 1e-15,
        "b": [2.0 + 1e-15, 3.5],
        "c": {"n": 2},
        "d": [1.0 + 1e-15, 2.0],
        "e": {"y": 1.0},
        "f": 0.0,
    }
    out = merged(stored, fresh)
    assert out == {
        "a": 1.0,
        "b": [2.0, 3.5],
        "c": {"n": 2},
        "d": [1.0 + 1e-15, 2.0],
        "e": {"y": 1.0},
        "f": 0.0,
    }
    assert mismatches(fresh, out) == []
    assert merged(stored, stored) == stored


if __name__ == "__main__":
    names = set(sys.argv[1:])
    unknown = names - {name for name, *_ in CELLS}
    if unknown:
        sys.exit(f"unknown cells: {' '.join(sorted(unknown))}")
    stored = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    records = dict(stored) if names else {}
    for name, *cell in CELLS:
        if not names or name in names:
            fresh = json.loads(json.dumps(run_cell(*cell)))
            if name not in stored:
                records[name] = fresh
                print(f"{name}: new record")
                continue
            records[name] = merged(stored[name], fresh)
            moved = mismatches(stored[name], fresh)
            print(f"{name}: {len(moved)} fields moved")
            for line in moved[:5]:
                print(f"  {line}")
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(names) or len(records)} of {len(records)} records to {GOLDEN}")
