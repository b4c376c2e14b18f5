"""The environment recorded with every result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas(module) -> dict:
    """Name, version and thread count of the BLAS a package was built with."""
    info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in _THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                threads = int(fn())
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _commit(repo: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(repo.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_sha256(src: Path) -> str:
    """Digest of the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((src / "cbree").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(repo: Path, src: Path, seed: int) -> dict:
    import numpy
    import scipy

    blas = {"numpy": _blas(numpy), "scipy": _blas(scipy)}
    counts = [b["threads"] for b in blas.values() if b["threads"] is not None]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": max(counts) if counts else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": _commit(repo),
        "source_sha256": source_sha256(src),
        "seed": seed,
    }
