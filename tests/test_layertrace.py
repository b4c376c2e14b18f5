"""The benchmark's per-layer tracer wraps names the package must keep.

``perfbench/layertrace.py`` swaps each of its ``TARGETS`` for a timing
wrapper and lists a name that no longer resolves as unmeasured, without
failing the run.  This test reads ``TARGETS`` only, and resolves them the
way the tracer does, so that dropping a traced name fails the suite.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"

# the driver no longer calls it; the benchmark's own change must drop it
STALE = {"cbree.driver.ensemble_coefficients"}


def load_targets():
    spec = importlib.util.spec_from_file_location("_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def resolves(module_name: str, path: str) -> bool:
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None:
        return False
    found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return callable(found)


def test_every_traced_name_resolves_but_the_stale_one():
    # cbree.driver.moments_of_ensemble is among them: the driver calls it no
    # more but keeps the import until the tracer wraps names where they are
    # defined (ROADMAP item 4)
    unresolved = {
        f"{module}.{path}" for _layer, module, path in load_targets() if not resolves(module, path)
    }
    assert unresolved == STALE
