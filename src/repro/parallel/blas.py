"""A detection process's threads: BLAS pinned to one, and its core share.

The detector's one BLAS call — the scorer's partial-score GEMM —
has an inner dimension of 36, so OpenBLAS can only split its output
among threads, and a second thread costs more than it saves: its
helper busy-waits after every call and takes a core that another
process (a pool sibling, the HTTP server, its load) needs.  Detection
processes therefore run BLAS on one thread.  Their parallelism comes
from the process pool, and inside each worker from the HOG extractor's
bands (:class:`repro.hog.HogExtractor`), one per core of the worker's
:func:`core_share`, the way the paper gives each stage its own unit.

``OPENBLAS_NUM_THREADS`` cannot do this job: OpenBLAS reads it once,
when NumPy is imported, so it is too late for a forked worker and it
would leak into the caller's environment.  :func:`limit_blas_threads`
instead calls the setter each loaded build exports.
"""

from __future__ import annotations

import ctypes
import os
from collections.abc import Callable, Collection, Iterable

from repro.errors import ParameterError

#: Setter/getter pairs, tried in order; the first pair a build exports
#: wins.  NumPy >= 2 wheels ship ``scipy_openblas64_`` (ILP64 symbol
#: suffix); system and older builds export the plain names.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_",
     "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def openblas_paths(maps_lines: Iterable[str]) -> list[str]:
    """OpenBLAS shared-object paths named in ``/proc/<pid>/maps`` lines.

    The path is everything after the fifth field (address, perms,
    offset, dev, inode), so a path containing spaces stays whole.
    """
    paths: set[str] = set()
    for line in maps_lines:
        fields = line.split(maxsplit=5)
        if len(fields) == 6 and "openblas" in fields[5]:
            paths.add(fields[5].rstrip("\n"))
    return sorted(p for p in paths if p.startswith("/") and ".so" in p)


def loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    try:
        # surrogateescape: a mapped path need not be valid UTF-8.
        with open("/proc/self/maps", encoding="utf-8",
                  errors="surrogateescape") as maps:
            return openblas_paths(maps)
    except OSError:  # no procfs: nothing to find
        return []


def openblas_controls(
    libraries: Iterable[str] | None = None,
) -> list[tuple[Callable[[int], None], Callable[[], int]]]:
    """``(set_num_threads, get_num_threads)`` of each loaded build.

    ``libraries`` overrides the scan of ``/proc/self/maps`` (tests
    inject it); paths that do not load or export no known setter are
    skipped.
    """
    controls: list[tuple[Callable[[int], None], Callable[[], int]]] = []
    for path in loaded_openblas() if libraries is None else libraries:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter = getattr(lib, set_name)
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                getter = getattr(lib, get_name)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


def limit_blas_threads(
    n: int, libraries: Iterable[str] | None = None
) -> int | None:
    """Set every loaded OpenBLAS build to ``n`` threads.

    Returns the largest thread count read back from the builds, or
    ``None`` — changing nothing — when no OpenBLAS build is loaded.
    ``libraries`` is passed to :func:`openblas_controls`.
    """
    if n < 1:
        raise ParameterError(f"thread count must be >= 1, got {n}")
    counts: list[int] = []
    for set_threads, get_threads in openblas_controls(libraries):
        set_threads(n)
        counts.append(int(get_threads()))
    return max(counts) if counts else None


def core_share(workers: int, cpus: Collection[int] | None = None) -> int:
    """Cores each of ``workers`` pool processes may use: at least one.

    ``cpus`` is the set of usable CPUs, by default this process's
    affinity mask (``os.sched_getaffinity``; ``os.cpu_count`` where
    there is none); tests inject it.
    """
    if workers < 1:
        raise ParameterError(f"worker count must be >= 1, got {workers}")
    if cpus is None:
        try:
            cpus = os.sched_getaffinity(0)
        except AttributeError:  # no affinity API (macOS, Windows)
            cpus = range(os.cpu_count() or 1)
    return max(1, len(cpus) // workers)
