"""Environment block recorded with every result."""

import ctypes
import glob
import os
import platform
from pathlib import Path

import numpy
import scipy

# numpy and scipy each bundle their own OpenBLAS; the symbol prefix
# depends on the build (64-bit integer builds add a suffix).
_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def _blas(pkg) -> dict:
    """BLAS name and version as the package reports them, plus the live thread count."""
    try:
        info = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        info = {}
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    pkg_dir = Path(pkg.__file__).resolve().parent
    for path in sorted(set(glob.glob(str(pkg_dir.parent / f"{pkg.__name__}.libs" / "*openblas*")))):
        lib = ctypes.CDLL(path)
        out["library"] = Path(path).name
        out["threads"] = _call(lib, _THREAD_SYMBOLS, ctypes.c_int)
        config = _call(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
        out["config"] = config.decode() if config else info.get("openblas configuration")
        break
    return out


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def read_loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def environment(root: Path, seed: int, loadavg: str | None) -> dict:
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "blas_numpy": _blas(numpy),
        "blas_scipy": _blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "seed": seed,
        "loadavg_at_start": loadavg,
    }

