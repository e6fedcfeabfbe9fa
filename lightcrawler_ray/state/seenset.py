"""Sharded URL-seen set — an actor pool holding cuckoo-filter shards.

Reference semantics: the frontier's UNIQUE ``distinct_hash`` makes enqueue
idempotent (T1/D1, PHPCrawlerSQLiteURLCache.class.php:107-138 `INSERT OR
IGNORE`).  Here that is K shard actors, shard = ``hash(url_md5) % K`` —
each shard holds a cuckoo filter (approximate, 10^10-scale steady state)
and optionally an exact md5 set (byte-for-byte parity mode for tests and
small crawls).  Shards serialize their own mutations (the actor mailbox is
the lock), so no cross-actor coordination is needed — the shard IS the
claim unit, replacing the reference's table-wide `LOCK TABLE urls WRITE`
(PHPCrawlerMySqlUrlCache.class.php:124,174).

Determinism contract (SURVEY.md §2.9): the per-round ``gate_parts`` call
computes the min-``(parent_seq, link_idx)`` winner per key over ALL of the
round's blocks at once (each key lives on exactly one shard), so the result
is independent of block arrival order; the final membership set is therefore
order-independent too.

Snapshot/restore round-trips every shard's state for the per-epoch checkpoint
(T10 / north_rule resumability).
"""

from __future__ import annotations

import numpy as np
import ray

from .cuckoo import CuckooChain, hashes_from_md5hex, md5hex_to_u64_pairs


@ray.remote(num_cpus=0)
class SeenShard:
    """One shard. mode: 'exact' | 'cuckoo' | 'both' (both = cuckoo answers,
    exact audits — used by the membership-parity tests)."""

    def __init__(self, shard_id: int, capacity: int = 1 << 20, mode: str = "both"):
        self.shard_id = shard_id
        self.mode = mode
        # CuckooChain: grows by chaining bigger filters when a link fills
        # (the shard-full path — no mid-crawl failure at 10^10 keys)
        self.cuckoo = CuckooChain(capacity) if mode != "exact" else None
        self.exact: set[str] | None = set() if mode != "cuckoo" else None

    def check_and_add(self, md5s: list[str]) -> np.ndarray:
        """Bool mask: True = first sighting (now marked seen). Each key must
        appear at most once in a call (caller dedups within the round)."""
        if not md5s:
            return np.zeros(0, dtype=bool)
        if self.exact is not None:
            new = np.fromiter((m not in self.exact for m in md5s), dtype=bool, count=len(md5s))
            self.exact.update(md5s)
            if self.cuckoo is not None:
                h = hashes_from_md5hex(md5s)
                self.cuckoo.add_hashes(h[new & ~self.cuckoo.contains_hashes(h)])
            return new
        h = hashes_from_md5hex(md5s)
        new = ~self.cuckoo.contains_hashes(h)
        self.cuckoo.add_hashes(h[new])
        return new

    # -- fused within-round dedup + cross-round gate -------------------------
    # Replaces a whole groupby shuffle: the driver sends ALL of a round's key
    # parts for this shard in ONE call (same md5 → same shard, so every
    # duplicate of a key is in the call); the shard computes the
    # min-(parent_seq, link_idx) winner per unseen key vectorized and marks
    # winners seen.  Deterministic regardless of block order — the min is
    # order-free.  Returns (counts, *per-part winner row arrays) so callers
    # can take only the small counts to the driver and route the row arrays
    # worker-to-worker by ref; counts is (2, parts): winners, probed rows.

    def gate_parts(self, *parts: dict):
        """Each part: {"md5": [...], "hi": u64, "lo": u64, "seq": i64,
        "idx": i64, "row": i64, "dups": int} — one candidate block's keys
        for this shard (pre-partitioned inside the filter task).  A filter
        task may already have cut a block to one row per key (its min
        (seq, idx), which is all this min needs); ``dups`` is the number of
        rows it cut for this part's keys, added to the probed count so the
        count is the same as if every row had been sent."""
        B = len(parts)
        sizes = [len(p["md5"]) for p in parts]
        total = int(sum(sizes))
        empty = tuple(np.zeros(0, dtype=np.int64) for _ in range(B))
        if total == 0:
            return (np.zeros((2, B), dtype=np.int64), *empty)
        md5_all: list[str] = []
        for p in parts:
            md5_all.extend(p["md5"])
        hi = np.concatenate([np.asarray(p["hi"], dtype=np.uint64) for p in parts])
        lo = np.concatenate([np.asarray(p["lo"], dtype=np.uint64) for p in parts])
        seq = np.concatenate([np.asarray(p["seq"], dtype=np.int64) for p in parts])
        idx = np.concatenate([np.asarray(p["idx"], dtype=np.int64) for p in parts])
        if self.exact is not None:
            contains = self.exact.__contains__
            seen = np.fromiter(map(contains, md5_all), dtype=bool, count=total)
        else:
            seen = self.cuckoo.contains_hashes(hi)
        u = np.nonzero(~seen)[0]
        win_mask = np.zeros(total, dtype=bool)
        if u.size:
            # min (seq, idx) per exact 128-bit key: stable lexsort then
            # first-occurrence mask — fully vectorized
            order = np.lexsort((idx[u], seq[u], lo[u], hi[u]))
            us = u[order]
            h_s, l_s = hi[us], lo[us]
            first = np.ones(us.size, dtype=bool)
            first[1:] = (h_s[1:] != h_s[:-1]) | (l_s[1:] != l_s[:-1])
            w = us[first]
            win_mask[w] = True
            if self.exact is not None:
                self.exact.update(md5_all[i] for i in w)
            if self.cuckoo is not None:
                wh = hi[w]
                self.cuckoo.add_hashes(wh[~self.cuckoo.contains_hashes(wh)])
        out, counts = [], np.zeros(B, dtype=np.int64)
        off = 0
        for b in range(B):
            rows_b = np.asarray(parts[b]["row"], dtype=np.int64)[win_mask[off:off + sizes[b]]]
            counts[b] = rows_b.size
            out.append(rows_b)
            off += sizes[b]
        probed = np.asarray(sizes, dtype=np.int64) + [p["dups"] for p in parts]
        return (np.stack([counts, probed]), *out)

    def stats(self) -> dict:
        return {
            "shard": self.shard_id,
            "exact_count": len(self.exact) if self.exact is not None else -1,
            "cuckoo_count": self.cuckoo.count if self.cuckoo else -1,
            "load_factor": self.cuckoo.load_factor if self.cuckoo else 0.0,
        }

    def snapshot(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "mode": self.mode,
            "cuckoo": self.cuckoo.snapshot() if self.cuckoo else None,
            "exact": sorted(self.exact) if self.exact is not None else None,
        }

    def restore(self, snap: dict) -> None:
        self.mode = snap["mode"]
        self.cuckoo = CuckooChain.restore(snap["cuckoo"]) if snap["cuckoo"] else None
        self.exact = set(snap["exact"]) if snap["exact"] is not None else None

    def dump_members(self) -> list[str]:
        """Exact membership (parity tests only — not a scale path)."""
        if self.exact is None:
            raise RuntimeError("cuckoo-only shard has no exact membership")
        return sorted(self.exact)


def shard_of(md5s: list[str] | np.ndarray, k: int) -> np.ndarray:
    """Shard index per key — low 8 hex chars of the md5, mod K (independent of
    the cuckoo's own bucket hash which uses the top bits).  Vectorized via the
    (hi, lo) uint64 view: ``int(m[24:32], 16) == lo & 0xFFFFFFFF``."""
    _, lo = md5hex_to_u64_pairs(md5s)
    return ((lo & np.uint64(0xFFFFFFFF)) % np.uint64(k)).astype(np.int64)


class SeenSet:
    """Driver-side facade over K SeenShard actors.

    Shards are ``num_cpus=0``: they are memory holders whose per-call work is
    microseconds per thousand keys — reserving whole CPUs for them starves the
    map stages (a 4-CPU test cluster deadlocks).  On a real cluster, shard
    placement follows object-store memory, not CPU."""

    def __init__(self, k: int = 4, capacity_per_shard: int = 1 << 20, mode: str = "both"):
        self.k = k
        self.mode = mode
        self.shards = [
            SeenShard.remote(i, capacity_per_shard, mode) for i in range(k)
        ]

    def check_and_add(self, md5s: list[str]) -> np.ndarray:
        """Scatter to shards, gather the first-sighting mask in input order."""
        n = len(md5s)
        if n == 0:
            return np.zeros(0, dtype=bool)
        sh = shard_of(md5s, self.k)
        mask = np.zeros(n, dtype=bool)
        futures, index_lists = [], []
        for s in range(self.k):
            idx = np.nonzero(sh == s)[0]
            if idx.size:
                futures.append(self.shards[s].check_and_add.remote([md5s[i] for i in idx]))
                index_lists.append(idx)
        for idx, res in zip(index_lists, ray.get(futures)):
            mask[idx] = res
        return mask

    def members(self) -> list[str]:
        out: list[str] = []
        for part in ray.get([s.dump_members.remote() for s in self.shards]):
            out.extend(part)
        return sorted(out)

    def stats(self) -> list[dict]:
        return ray.get([s.stats.remote() for s in self.shards])

    def snapshot(self) -> list[dict]:
        return ray.get([s.snapshot.remote() for s in self.shards])

    def snapshot_refs(self) -> list:
        """Submit the snapshot calls without gathering — the actor mailbox
        pins each to its submission point, so a deferred ``ray.get`` still
        observes exactly the state as of submission (epoch-exact)."""
        return [s.snapshot.remote() for s in self.shards]

    def restore(self, snaps: list[dict]) -> None:
        assert len(snaps) == self.k, "shard count mismatch on restore"
        ray.get([s.restore.remote(snap) for s, snap in zip(self.shards, snaps)])

    def shutdown(self) -> None:
        for s in self.shards:
            ray.kill(s)
        self.shards = []
