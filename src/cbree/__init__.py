"""Rare event probability estimation via consensus-driven adaptive importance sampling.

The main entry points are :func:`run_cbree` / :func:`run_cbree_vmfn` for the
adaptive particle method, :func:`run_enkf` / :func:`run_enkf_vmfn` for the
ensemble Kalman baseline, :func:`get_problem` for the benchmark registry and
:func:`run_benchmark` for repeated seeded comparisons against crude Monte
Carlo.
"""

from .bench import BenchmarkResult, McConfig, rel_eff, run_benchmark, run_mc
from .driver import CbreeConfig, RunRecord, run_cbree, run_cbree_vmfn
from .enkf import EnkfConfig, run_enkf, run_enkf_vmfn
from .problems import get_problem, list_problems

__version__ = "0.1.0"

__all__ = [
    "BenchmarkResult",
    "CbreeConfig",
    "EnkfConfig",
    "McConfig",
    "RunRecord",
    "get_problem",
    "list_problems",
    "rel_eff",
    "run_benchmark",
    "run_cbree",
    "run_cbree_vmfn",
    "run_enkf",
    "run_enkf_vmfn",
    "run_mc",
    "__version__",
]
