"""Ray sizing from the host's CPU count."""

from __future__ import annotations


def ray_sizing(nproc: int) -> tuple[int, int]:
    """Return ``(ray_logical_cpus, fetch_pool_size)`` for ``nproc`` host CPUs.

    Each FetchWorker reserves one logical CPU for the whole crawl.  The
    round tasks (filter, rank, split, finalize) need at least one more free
    slot, or they queue forever behind the pool, so logical CPUs must exceed
    the pool size.  The pool takes 3/4 of the host CPUs (the engine's
    documented wave-width rule), never fewer than one worker.
    """
    if nproc < 1:
        raise ValueError(f"nproc must be >= 1, got {nproc}")
    pool = max(1, nproc * 3 // 4)
    return max(nproc, pool + 1), pool

