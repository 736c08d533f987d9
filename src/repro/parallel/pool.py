"""Chunked process-pool mapping with a transparent serial fallback.

``parallel_map(func, items)`` is the single execution primitive behind
forest training, grid search and corpus generation.  Guarantees:

- **Order**: results come back in item order, never completion order.
- **Determinism**: the function sees identical inputs at every
  ``n_jobs``; tasks carry pre-spawned seeds (:mod:`repro.parallel.seeding`)
  instead of drawing from shared RNGs, so outputs are bitwise equal
  for ``n_jobs=1`` and ``n_jobs=8``.
- **Serial fallback**: one worker (or one item, or a call made from
  inside another pool's worker) runs in-process with the caller's
  arrays -- no fork, no shared memory, fully debuggable and covered.
- **Failure surfacing**: an exception raised by ``func`` propagates
  unchanged; a worker that *dies* (segfault, ``os._exit``, OOM kill)
  raises :class:`WorkerCrashError` instead of hanging the parent.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro import obs
from repro.parallel.jobs import _WORKER_ENV, in_worker, resolve_n_jobs
from repro.parallel.shm import ArraySpec, SharedArrays, attach_arrays

__all__ = ["parallel_map", "WorkerCrashError"]


class WorkerCrashError(RuntimeError):
    """A pool worker terminated abnormally (it did not raise -- it died)."""


# ---------------------------------------------------------------------------
# Worker side.  Module-level state is per worker process: the initializer
# runs once per worker and maps the parent's shared segments.
# ---------------------------------------------------------------------------
_worker_arrays: dict[str, np.ndarray] = {}
_worker_blocks: list = []


def _worker_init(specs: list[ArraySpec], untrack: bool) -> None:
    os.environ[_WORKER_ENV] = "1"
    arrays, blocks = attach_arrays(specs, untrack=untrack)
    _worker_arrays.update(arrays)
    _worker_blocks.extend(blocks)


def _run_chunk_timed(
    func: Callable[[Any, dict], Any], chunk: Sequence[Any], submitted: float
) -> tuple[list, float, float]:
    """Run one chunk in a worker; return its results and two timings.

    The timings are the chunk's queue wait (submit in the parent until
    a worker picks it up; ``perf_counter`` is the system-wide
    CLOCK_MONOTONIC under the fork start method, so the parent/worker
    timestamps are comparable) and its execute time.  The parent
    records both when observability is on -- worker-side registries are
    process-local and die with the pool.
    """
    started = time.perf_counter()
    results = [func(item, _worker_arrays) for item in chunk]
    return results, max(0.0, started - submitted), time.perf_counter() - started


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------
def _pool_context():
    # fork is markedly cheaper and inherits the warmed-up interpreter;
    # fall back to spawn where fork does not exist (Windows, macOS
    # guarded builds).
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def parallel_map(
    func: Callable[[Any, dict[str, np.ndarray]], Any],
    items: Iterable[Any],
    *,
    n_jobs: int | None = None,
    shared: dict[str, np.ndarray] | None = None,
    chunk_size: int | None = None,
    on_crash: str = "raise",
) -> list:
    """Apply ``func(item, arrays)`` to every item; results in item order.

    Parameters
    ----------
    func:
        A *module-level* callable (it is pickled by name).  Receives the
        item and the dict of shared arrays; must treat the arrays as
        read-only and take all randomness from seeds carried by the item.
    items:
        Task payloads.  Keep them small; put large read-only arrays in
        ``shared`` instead.
    n_jobs:
        Worker count per the :func:`repro.parallel.jobs.resolve_n_jobs`
        convention.  ``None``/1 executes in-process.
    shared:
        Named ndarrays passed to every call.  Serial execution hands
        them to ``func`` as-is; parallel execution copies each once
        into shared memory and maps it zero-copy in every worker.
    chunk_size:
        Items per dispatched task, ``None`` or an int >= 1 (anything
        else raises ``ValueError`` at every ``n_jobs``).  Defaults to
        roughly four chunks per worker, which amortizes IPC while
        keeping heterogeneous task durations balanced.  Chunking never
        affects results, only scheduling.
    on_crash:
        What to do when a *worker dies* (it did not raise -- it was
        killed, segfaulted, or exited).  ``"raise"`` (the default,
        historical behavior) raises :class:`WorkerCrashError`;
        ``"serial"`` re-runs every chunk the broken pool failed to
        deliver in the parent process, against the caller's original
        arrays, so the call still returns the complete, deterministic
        result list.  Exceptions *raised by* ``func`` propagate
        unchanged in both modes.
    """
    if on_crash not in ("raise", "serial"):
        raise ValueError('on_crash must be "raise" or "serial".')
    if chunk_size is not None and (
        not isinstance(chunk_size, int)
        or isinstance(chunk_size, bool)
        or chunk_size < 1
    ):
        raise ValueError(
            f"chunk_size must be None or an int >= 1, got {chunk_size!r}."
        )
    items = list(items)
    shared = dict(shared or {})
    jobs = min(resolve_n_jobs(n_jobs), len(items)) if items else 1
    if jobs <= 1 or in_worker():
        with obs.trace("parallel.serial"):
            started = time.perf_counter()
            results = [func(item, shared) for item in items]
        obs.inc("parallel.items", len(items))
        obs.observe("parallel.execute_seconds", time.perf_counter() - started)
        return results

    if chunk_size is None:
        chunk_size = max(1, math.ceil(len(items) / (jobs * 4)))
    chunks = [
        items[start:start + chunk_size]
        for start in range(0, len(items), chunk_size)
    ]

    context = _pool_context()
    obs.set_gauge("parallel.workers", jobs)
    obs.inc("parallel.pool_runs")
    obs.inc("parallel.items", len(items))
    with SharedArrays(shared) as segments:
        executor = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=context,
            initializer=_worker_init,
            initargs=(segments.specs, context.get_start_method() != "fork"),
        )
        try:
            futures = [
                executor.submit(_run_chunk_timed, func, chunk, time.perf_counter())
                for chunk in chunks
            ]
            results: list = []
            try:
                for index, future in enumerate(futures):
                    try:
                        chunk_results, queue_wait, execute = future.result()
                        obs.inc("parallel.chunks")
                        obs.observe("parallel.queue_wait_seconds", queue_wait)
                        obs.observe("parallel.execute_seconds", execute)
                    except BrokenProcessPool as error:
                        if on_crash != "serial":
                            raise WorkerCrashError(
                                "A parallel worker died without raising "
                                "(killed, segfaulted, or exited); the pool "
                                "has been torn down.  Re-run with n_jobs=1 "
                                "to debug the failing task in-process, or "
                                'pass on_crash="serial" to fall back.'
                            ) from error
                        # Once the pool breaks every undelivered chunk
                        # lands here; re-run each in the parent against
                        # the caller's original arrays.  Same items,
                        # same order -> same results.
                        obs.inc("parallel.chunks_rescued")
                        chunk_results = [
                            func(item, shared) for item in chunks[index]
                        ]
                    results.extend(chunk_results)
            finally:
                for future in futures:
                    future.cancel()
        finally:
            executor.shutdown(wait=True, cancel_futures=True)
    return results
