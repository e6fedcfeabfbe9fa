"""Sharded URL-seen set — K partitions holding 128-bit key tables.

Reference semantics: the frontier's UNIQUE ``distinct_hash`` makes enqueue
idempotent (T1/D1, PHPCrawlerSQLiteURLCache.class.php:107-138 `INSERT OR
IGNORE`).  Here that is K ``SeenShard`` partitions, shard = low 32 md5 bits
mod K; each key is an md5 digest carried as its (hi, lo) uint64 pair.  A
shard holds either an exact ``KeyTable`` (16 B/key, byte-for-byte parity)
or, in the 10^10-key memory mode, an approximate ``CuckooChain`` probed with
``hi``.  Partition i lives on state actor ``i % n`` (``state/pool.py``),
beside partition i of the crawl's other keyed state; the actor's FIFO
mailbox serializes a shard's mutations (the mailbox is the lock), so no
cross-actor coordination is needed — the shard IS the claim unit, replacing
the reference's table-wide `LOCK TABLE urls WRITE`
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

from .cuckoo import CuckooChain
from .pool import Partitioned, StatePool

_NO_KEYS = np.zeros(0, dtype=np.uint64)


def md5hex_to_u64_pairs(md5s: list[str] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) uint64 pairs for md5 hex strings — the full 128-bit identity.
    Raises ValueError on a key that is not 32 hex characters, so two
    malformed keys can never share an identity."""
    if (np.fromiter(map(len, md5s), dtype=np.int64, count=len(md5s)) != 32).any():
        raise ValueError("seen-set keys must be 32-character md5 hex digests")
    a = np.frombuffer(bytes.fromhex("".join(md5s)), dtype=">u8").reshape(-1, 2)
    return a[:, 0].astype(np.uint64), a[:, 1].astype(np.uint64)


def _shard(lo: np.ndarray, k: int) -> np.ndarray:
    return ((lo & np.uint64(0xFFFFFFFF)) % np.uint64(k)).astype(np.int64)


def shard_of(md5s: list[str] | np.ndarray, k: int) -> np.ndarray:
    """Shard index per key — low 32 bits of the md5 (``lo``), mod K
    (independent of the cuckoo's own bucket hash which uses ``hi``)."""
    return _shard(md5hex_to_u64_pairs(md5s)[1], k)


def key_parts(hi: np.ndarray, lo: np.ndarray, seq: np.ndarray, idx: np.ndarray,
              row: np.ndarray, k: int, dups: np.ndarray | None = None) -> list[dict]:
    """Split keyed rows into k ``SeenShard.gate_parts`` parts (shard s gets
    the keys ``shard_of`` maps to s): the (hi, lo) key, the (seq, idx) winner
    order, the block row and, per part, ``dups`` — the sum of the optional
    per-row count of duplicate rows already dropped for that key."""
    sh = _shard(lo, k)
    parts = []
    for s in range(k):
        r = np.nonzero(sh == s)[0]
        parts.append({"hi": hi[r], "lo": lo[r], "seq": seq[r], "idx": idx[r], "row": row[r],
                      "dups": int(dups[r].sum()) if dups is not None else 0})
    return parts


class KeyTable:
    """Exact set of 128-bit keys: two uint64 arrays ``hi``/``lo`` sorted in
    lexicographic (hi, lo) order.  A probe is a ``searchsorted`` on ``hi``
    and a ``lo`` compare; the rare ``hi`` shared by several keys is resolved
    over its run of ``lo``."""

    def __init__(self, hi: np.ndarray = _NO_KEYS, lo: np.ndarray = _NO_KEYS):
        self.hi, self.lo = hi, lo

    def locate(self, hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(insert position in (hi, lo) order, member mask) per query key."""
        pos = np.searchsorted(self.hi, hi, "left")  # start of each key's hi run
        right = np.searchsorted(self.hi, hi, "right")
        one = np.nonzero(right - pos == 1)[0]
        pos[one] += self.lo[pos[one]] < lo[one]
        for i in np.nonzero(right - pos > 1)[0]:
            pos[i] += np.searchsorted(self.lo[pos[i]:right[i]], lo[i])
        found = pos < right
        found[found] = self.lo[pos[found]] == lo[found]
        return pos, found

    def insert(self, hi: np.ndarray, lo: np.ndarray, pos: np.ndarray) -> None:
        """Merge non-member keys, given in (hi, lo) order, at their
        ``locate`` positions."""
        self.hi = np.insert(self.hi, pos, hi)
        self.lo = np.insert(self.lo, pos, lo)

    def members(self) -> list[str]:
        """Sorted lowercase md5 hex of every key."""
        a = np.empty((self.hi.size, 2), dtype=">u8")
        a[:, 0], a[:, 1] = self.hi, self.lo
        h = a.tobytes().hex()
        return [h[i:i + 32] for i in range(0, len(h), 32)]


def _check_mode(mode: str) -> None:
    if mode not in ("exact", "cuckoo"):
        raise ValueError(f"seen_mode must be 'exact' or 'cuckoo', got {mode!r}")


class SeenShard:
    """One shard: a ``KeyTable`` (mode 'exact') or a ``CuckooChain`` (mode
    'cuckoo'), answered and updated by ``gate_parts``.  A plain object: the
    crawl hosts it on a ``StateShard`` actor; tests call it in-process."""

    def __init__(self, shard_id: int, capacity: int = 1 << 20, mode: str = "exact"):
        _check_mode(mode)
        self.shard_id = shard_id
        self.mode = mode
        self.table = KeyTable() if mode == "exact" else None
        # CuckooChain: grows by chaining bigger filters when a link fills
        # (the shard-full path — no mid-crawl failure at 10^10 keys)
        self.cuckoo = CuckooChain(capacity) if mode == "cuckoo" else None

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
        """Each part: {"hi": u64, "lo": u64, "seq": i64, "idx": i64,
        "row": i64, "dups": int} — one candidate block's keys for this shard
        (built by ``key_parts``).  A filter task may already have cut a block
        to one row per key (its min (seq, idx), which is all this min needs);
        ``dups`` is the number of rows it cut for this part's keys, added to
        the probed count so the count is the same as if every row had been
        sent."""
        B = len(parts)
        sizes = [len(p["hi"]) for p in parts]
        hi = np.concatenate([np.asarray(p["hi"], dtype=np.uint64) for p in parts])
        lo = np.concatenate([np.asarray(p["lo"], dtype=np.uint64) for p in parts])
        seq = np.concatenate([np.asarray(p["seq"], dtype=np.int64) for p in parts])
        idx = np.concatenate([np.asarray(p["idx"], dtype=np.int64) for p in parts])
        # min (seq, idx) row per exact 128-bit key: stable lexsort then
        # first-occurrence mask — fully vectorized.  The keys come out in
        # (hi, lo) order, so the table probe searches sorted queries (several
        # times faster than random ones) and the winners merge in as they are
        order = np.lexsort((idx, seq, lo, hi))
        h_s, l_s = hi[order], lo[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (h_s[1:] != h_s[:-1]) | (l_s[1:] != l_s[:-1])
        keys = order[first]
        if self.table is not None:
            pos, seen = self.table.locate(hi[keys], lo[keys])
            w = keys[~seen]
            self.table.insert(hi[w], lo[w], pos[~seen])
        else:
            w = keys[~self.cuckoo.contains_hashes(hi[keys])]
            self.cuckoo.add_hashes(hi[w])
        win_mask = np.zeros(hi.size, dtype=bool)
        win_mask[w] = True
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
            "count": self.table.hi.size if self.table is not None else self.cuckoo.count,
            "load_factor": self.cuckoo.load_factor if self.cuckoo else 0.0,
        }

    def snapshot(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "mode": self.mode,
            "cuckoo": self.cuckoo.snapshot() if self.cuckoo else None,
            "table": (self.table.hi, self.table.lo) if self.table is not None else None,
        }

    def restore(self, snap: dict) -> None:
        self.mode = snap["mode"]
        self.cuckoo = CuckooChain.restore(snap["cuckoo"]) if snap["cuckoo"] else None
        self.table = KeyTable(*snap["table"]) if snap["table"] is not None else None

    def dump_members(self) -> list[str]:
        """Exact membership (parity tests only — not a scale path)."""
        if self.table is None:
            raise RuntimeError("cuckoo-only shard has no exact membership")
        return self.table.members()


class SeenSet(Partitioned):
    """Driver-side facade over K ``SeenShard`` partitions held under
    ``slot`` on the state actors of ``pool`` (its own pool when None)."""

    def __init__(self, k: int = 4, capacity_per_shard: int = 1 << 20, mode: str = "exact",
                 pool: StatePool | None = None, slot: str = "url"):
        _check_mode(mode)
        self.k = k
        self.mode = mode
        super().__init__(slot, SeenShard,
                         [(i, capacity_per_shard, mode) for i in range(k)], pool)

    def gate_round(self, parts_by_shard: list[list]) -> tuple[list, list[list]]:
        """One ``gate_parts`` call per shard over ``parts_by_shard[s]`` (a
        round's parts for shard s, one per block, values or refs).  Returns
        the per-shard counts refs and the winner-row refs ``[s][b]`` —
        nothing is gathered here."""
        counts, winners = [], []
        for s, parts in enumerate(parts_by_shard):
            rets = self._call(s, "gate_parts", *parts, num_returns=1 + len(parts))
            counts.append(rets[0])
            winners.append(rets[1:])
        return counts, winners

    def check_and_add(self, md5s: list[str]) -> np.ndarray:
        """First-sighting mask in input order (True = new, now marked seen;
        a key repeated within the call is new only at its first position) —
        one ``gate_parts`` part per shard."""
        mask = np.zeros(len(md5s), dtype=bool)
        pos = np.arange(len(md5s), dtype=np.int64)
        parts = key_parts(*md5hex_to_u64_pairs(md5s), pos, pos, pos, self.k)
        refs = [self._call(s, "gate_parts", p, num_returns=2)[1]
                for s, p in enumerate(parts) if p["hi"].size]
        for rows in ray.get(refs):
            mask[rows] = True
        return mask

    def members(self) -> list[str]:
        out: list[str] = []
        for part in ray.get(self._each("dump_members")):
            out.extend(part)
        return sorted(out)

    def stats(self) -> list[dict]:
        return ray.get(self._each("stats"))

    def snapshot(self) -> list[dict]:
        return ray.get(self.snapshot_refs())

    def snapshot_refs(self) -> list:
        """Submit the snapshot calls without gathering — the actor mailbox
        pins each to its submission point, so a deferred ``ray.get`` still
        observes exactly the state as of submission (epoch-exact)."""
        return self._each("snapshot")

    def restore(self, snaps: list[dict]) -> None:
        assert len(snaps) == self.k, "shard count mismatch on restore"
        ray.get([self._call(s, "restore", snap) for s, snap in enumerate(snaps)])
