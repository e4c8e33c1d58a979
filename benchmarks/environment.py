"""The environment stamp attached to every benchmark result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

#: Thread cap for the BLAS and OpenMP pools of the benchmark and its children.
BLAS_THREAD_CAP = 1
BLAS_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def cap_threads(environ) -> None:
    """Set the BLAS thread cap; must run before numpy is first imported."""
    for name in BLAS_THREAD_VARIABLES:
        environ[name] = str(BLAS_THREAD_CAP)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    """Cache sizes of CPU 0, e.g. {"L1d": "48K", "L2": "2048K", "L3": "107520K"}."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[f"L{level}{suffix}"] = size
    return caches


def _git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest(root: Path) -> str:
    """sha256 over the package sources, which identifies the code in a checkout
    that is not a git repository."""
    digest = hashlib.sha256()
    package = root / "src" / "mwphoton"
    for path in sorted(package.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamp(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "blas": blas.get("name"),
        "blas_thread_cap": BLAS_THREAD_CAP,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(root),
        "seed": seed,
    }
