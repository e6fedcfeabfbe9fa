"""Measure per-key memory of the two structures a URL-seen shard holds.

At 1M random md5 keys, inserted in gate-sized batches:

  * the ``KeyTable`` of ``seen_mode="exact"`` — two sorted uint64 arrays;
  * a properly-sized ``CuckooFilter`` (what ``seen_mode="cuckoo"`` holds).

Both are flat numpy arrays, so their ``nbytes`` is the deterministic per-key
cost (RSS deltas jitter with heap fragmentation).  Also prints the exact
table's probe and insert cost per key, each including the (hi, lo) lexsort
that ``SeenShard.gate_parts`` runs before it probes.

Run standalone (no Ray needed):  python tools/measure_seen_memory.py
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from lightcrawler_ray.state.cuckoo import CuckooFilter
from lightcrawler_ray.state.seenset import KeyTable

N = 1_000_000
BATCH = 10_000


def main() -> None:
    rng = np.random.default_rng(7)
    raw = rng.integers(0, 256, size=(N, 16), dtype=np.uint8)
    pairs = raw.view(">u8").reshape(N, 2).astype(np.uint64)
    hi, lo = pairs[:, 0].copy(), pairs[:, 1].copy()

    table = KeyTable()

    def probe(h: np.ndarray, l: np.ndarray):
        order = np.lexsort((l, h))
        h, l = h[order], l[order]
        return h, l, *table.locate(h, l)

    t0 = time.perf_counter()
    for i in range(0, N, BATCH):
        h, l, pos, _ = probe(hi[i:i + BATCH], lo[i:i + BATCH])
        table.insert(h, l, pos)
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    *_, found = probe(hi, lo)
    probe_s = time.perf_counter() - t0
    assert found.all()
    per_exact = (table.hi.nbytes + table.lo.nbytes) / N
    print(
        f"exact table : {per_exact:6.2f} B/key  "
        f"-> {per_exact * 1e10 / 2**30:.1f} GiB at 1e10 keys  "
        f"(probe {probe_s / N * 1e9:.0f} ns/key, batched insert {build_s / N * 1e9:.0f} ns/key)"
    )

    cf = CuckooFilter(capacity=N)
    for i in range(0, N, 100_000):
        cf.add_hashes(hi[i : i + 100_000])
    table_bytes = sum(v.nbytes for v in vars(cf).values() if isinstance(v, np.ndarray))
    per_cuckoo = table_bytes / N
    print(
        f"cuckoo      : {per_cuckoo:6.2f} B/key (load {cf.load_factor:.2f}, table nbytes)  "
        f"-> {per_cuckoo * 1e10 / 2**30:.1f} GiB at 1e10 keys"
    )


if __name__ == "__main__":
    main()
