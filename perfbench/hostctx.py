"""Host context recorded next to every result, and process accounting.

The capacity probe (like the steal and busy counters ``run.py`` reads) comes
from ``bench.py`` at the repository root, imported, not copied.  Memory is
anonymous RSS only: plasma pages are a shared mapping and would otherwise
be counted once per process that touched them.
"""

from __future__ import annotations

import os
import signal
import time

import bench


def capacity_probe() -> dict:
    """Single-process sha256 (MB/s) and 64 MB copy (MB/s) readings.

    Run before Ray starts: the probe forks worker processes."""
    cap = bench.host_capacity(widths=(1,), dur=0.25)
    return {"cpu_1_mb_s": cap.get("cpu_1", 0.0), "mem_1_mb_s": cap.get("mem_1", 0.0)}


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may contain spaces; fields resume after ')'
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(d))
    return kids


def descendants(pid: int | None = None) -> list[int]:
    """Every live process below ``pid`` (default: this process)."""
    kids = _children()
    out, todo = [], [os.getpid() if pid is None else pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _rss_anon_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("RssAnon:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def anon_mb() -> float:
    """RssAnon of this process plus every Ray worker process it spawned."""
    kb = _rss_anon_kb(os.getpid())
    kb += sum(_rss_anon_kb(p) for p in descendants() if _is_ray_worker(p))
    return kb / 1024.0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def wait_gone(pids: list[int], timeout_s: float = 30.0) -> None:
    """Wait for ``pids`` to exit; SIGKILL whatever outlives ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    left = [p for p in pids if _alive(p)]
    while left and time.monotonic() < deadline:
        time.sleep(0.1)
        left = [p for p in left if _alive(p)]
    for p in left:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 5.0
    while any(_alive(p) for p in left) and time.monotonic() < deadline:
        time.sleep(0.05)


def cpu_times() -> dict[int, float]:
    """utime+stime seconds of this process and every live descendant."""
    tick = os.sysconf("SC_CLK_TCK")
    out = {}
    for pid in [os.getpid(), *descendants()]:
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        out[pid] = (int(fields[11]) + int(fields[12])) / tick
    return out


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds spent between two ``cpu_times`` readings (processes that
    exited in between are not counted)."""
    return sum(t - before.get(pid, 0.0) for pid, t in after.items())
