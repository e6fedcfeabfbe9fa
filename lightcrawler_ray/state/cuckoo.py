"""Cuckoo filter — approximate membership for the URL-seen set (north_rule).

Standard public design (Fan et al., "Cuckoo Filter: Practically Better Than
Bloom", CoNEXT 2014; see also PAPERS.md membership-filter entries): b-slot
buckets, f-bit fingerprints, partial-cuckoo hashing where an item's two bucket
indices satisfy ``i2 = i1 XOR hash(fingerprint)``, bounded eviction loops.

The reference's exact analog is the UNIQUE ``distinct_hash`` column probed per
insert (PHPCrawlerSQLiteURLCache.class.php:107-138); at 10^10 URLs an exact
set is ~320 GB while a 16-bit-fingerprint cuckoo filter is ~20 GB cluster-wide
and shards cleanly by host hash.  Supports delete (unlike Bloom), ~0.0001 FPR
at 16-bit fingerprints, and O(1) snapshot/restore via its numpy table.

Vectorized batch ``contains``/numpy storage; the eviction path is per-item
python but only runs past ~95% load.
"""

from __future__ import annotations

import hashlib

import numpy as np

_EMPTY = np.uint16(0)


def _fingerprints(hashes: np.ndarray) -> np.ndarray:
    """16-bit non-zero fingerprints from 64-bit item hashes."""
    fp = (hashes >> np.uint64(48)).astype(np.uint16)
    fp[fp == 0] = 1
    return fp


def _fp_hash(fp: np.ndarray) -> np.ndarray:
    """Independent hash of the fingerprint for the partner-bucket XOR trick
    (splitmix64-style mix, public domain constant)."""
    x = fp.astype(np.uint64)
    x = (x * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x ^= x >> np.uint64(31)
    return x


def item_hashes(keys: list[str] | np.ndarray) -> np.ndarray:
    """Stable 64-bit hashes of string keys (md5-derived to stay aligned with
    the frontier's url_md5 identity)."""
    out = np.empty(len(keys), dtype=np.uint64)
    for i, k in enumerate(keys):
        out[i] = int.from_bytes(hashlib.md5(k.encode("utf-8")).digest()[:8], "little")
    return out


class CuckooFilter:
    def __init__(self, capacity: int, bucket_size: int = 4, max_kicks: int = 500, seed: int = 42):
        n_buckets = 1
        while n_buckets * bucket_size < capacity:
            n_buckets <<= 1  # power of two so the XOR partner stays in range
        self.n_buckets = int(n_buckets / 0.95) + 1
        # keep power-of-2 for cheap masking of the XOR result
        p = 1
        while p < self.n_buckets:
            p <<= 1
        self.n_buckets = p
        self.mask = np.uint64(self.n_buckets - 1)
        self.bucket_size = bucket_size
        self.max_kicks = max_kicks
        self.table = np.zeros((self.n_buckets, bucket_size), dtype=np.uint16)
        self.count = 0
        self._rng = np.random.default_rng(seed)

    # -- core ---------------------------------------------------------------
    def _index_pair(self, hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        fp = _fingerprints(hashes)
        i1 = (hashes & self.mask).astype(np.int64)
        i2 = ((hashes & self.mask) ^ (_fp_hash(fp) & self.mask)).astype(np.int64)
        return fp, i1, i2

    def contains_hashes(self, hashes: np.ndarray) -> np.ndarray:
        """Vectorized membership test → bool mask."""
        if hashes.size == 0:
            return np.zeros(0, dtype=bool)
        fp, i1, i2 = self._index_pair(hashes)
        t = self.table
        hit1 = (t[i1] == fp[:, None]).any(axis=1)
        hit2 = (t[i2] == fp[:, None]).any(axis=1)
        return hit1 | hit2

    def add_hashes(self, hashes: np.ndarray) -> int:
        """Insert items (callers dedup first); returns number inserted.
        Raises RuntimeError when the filter is past capacity (a shard split
        signal for the pool above us)."""
        fp_all, i1_all, i2_all = self._index_pair(hashes)
        inserted = 0
        for k in range(hashes.size):
            if self._insert_one(int(fp_all[k]), int(i1_all[k]), int(i2_all[k])):
                inserted += 1
            else:
                self.count += inserted  # keep the count honest before raising
                raise RuntimeError("cuckoo filter full — split the shard")
        self.count += inserted
        return inserted

    def _insert_one(self, fp: int, i1: int, i2: int) -> bool:
        for idx in (i1, i2):
            row = self.table[idx]
            slot = np.nonzero(row == _EMPTY)[0]
            if slot.size:
                row[slot[0]] = fp
                return True
        idx = i1 if self._rng.integers(2) else i2
        for _ in range(self.max_kicks):
            s = int(self._rng.integers(self.bucket_size))
            fp, self.table[idx, s] = int(self.table[idx, s]), fp
            idx = int((np.uint64(idx) ^ (_fp_hash(np.array([fp], dtype=np.uint16))[0] & self.mask)))
            row = self.table[idx]
            slot = np.nonzero(row == _EMPTY)[0]
            if slot.size:
                row[slot[0]] = fp
                return True
        return False

    def delete_hashes(self, hashes: np.ndarray) -> int:
        removed = 0
        fp, i1, i2 = self._index_pair(hashes)
        for k in range(hashes.size):
            for idx in (i1[k], i2[k]):
                row = self.table[idx]
                slot = np.nonzero(row == fp[k])[0]
                if slot.size:
                    row[slot[0]] = _EMPTY
                    removed += 1
                    break
        self.count -= removed
        return removed

    # -- string conveniences -------------------------------------------------
    def contains(self, keys: list[str]) -> np.ndarray:
        return self.contains_hashes(item_hashes(keys))

    def add(self, keys: list[str]) -> int:
        return self.add_hashes(item_hashes(keys))

    # -- snapshot (checkpointing, T10) ---------------------------------------
    def snapshot(self) -> dict:
        return {
            "table": self.table.copy(),
            "count": self.count,
            "bucket_size": self.bucket_size,
            "max_kicks": self.max_kicks,
        }

    @classmethod
    def restore(cls, snap: dict) -> "CuckooFilter":
        obj = cls.__new__(cls)
        obj.table = snap["table"].copy()
        obj.n_buckets = obj.table.shape[0]
        obj.mask = np.uint64(obj.n_buckets - 1)
        obj.bucket_size = snap["bucket_size"]
        obj.max_kicks = snap["max_kicks"]
        obj.count = snap["count"]
        obj._rng = np.random.default_rng(42)
        return obj

    @property
    def load_factor(self) -> float:
        return self.count / (self.n_buckets * self.bucket_size)


class CuckooChain:
    """Growable approximate set: a chain of cuckoo filters (the scalable-
    Bloom-filter construction of Almeida et al. 2007 applied to cuckoo
    filters).  A cuckoo table cannot rehash into a bigger table (fingerprints
    lose the original hash), so on ``filter full`` a fresh filter of twice
    the capacity is chained instead; membership ORs over the chain, inserts
    go to the newest link.  FPR is bounded by the sum over links — with
    doubling capacities that is < 2× the final link's FPR.

    This is the shard-full behavior the north_rule's 10^10-URL steady state
    needs: a shard saturating its filter keeps absorbing keys with bounded
    degradation instead of dying mid-crawl."""

    def __init__(self, capacity: int, bucket_size: int = 4, max_kicks: int = 500):
        self._cap = capacity
        self._bucket_size = bucket_size
        self._max_kicks = max_kicks
        self.filters = [CuckooFilter(capacity, bucket_size, max_kicks)]

    def contains_hashes(self, hashes: np.ndarray) -> np.ndarray:
        out = np.zeros(len(hashes), dtype=bool)
        for f in self.filters:
            out |= f.contains_hashes(hashes)
        return out

    def add_hashes(self, hashes: np.ndarray) -> int:
        remaining = hashes
        added = 0
        while remaining.size:
            head = self.filters[-1]
            try:
                added += head.add_hashes(remaining)
                break
            except RuntimeError:
                # head filled mid-batch.  CuckooFilter inserts one-by-one, so
                # membership tells us which of the slice landed; the rest
                # chain into a fresh link of twice the capacity.  (A false
                # positive here skips a re-add — harmless: contains() would
                # report that key seen either way.)
                landed = head.contains_hashes(remaining)
                added += int(landed.sum())
                remaining = remaining[~landed]
                self._cap *= 2
                self.filters.append(
                    CuckooFilter(self._cap, self._bucket_size, self._max_kicks)
                )
        return added

    @property
    def count(self) -> int:
        return sum(f.count for f in self.filters)

    @property
    def load_factor(self) -> float:
        return self.filters[-1].load_factor

    def snapshot(self) -> dict:
        return {"chain": [f.snapshot() for f in self.filters], "cap": self._cap,
                "bucket_size": self._bucket_size, "max_kicks": self._max_kicks}

    @classmethod
    def restore(cls, snap: dict) -> "CuckooChain":
        if "chain" not in snap:  # pre-chain snapshot: single filter
            obj = cls.__new__(cls)
            obj.filters = [CuckooFilter.restore(snap)]
            obj._cap = obj.filters[0].n_buckets * obj.filters[0].bucket_size
            obj._bucket_size = obj.filters[0].bucket_size
            obj._max_kicks = obj.filters[0].max_kicks
            return obj
        obj = cls.__new__(cls)
        obj.filters = [CuckooFilter.restore(s) for s in snap["chain"]]
        obj._cap = snap["cap"]
        obj._bucket_size = snap["bucket_size"]
        obj._max_kicks = snap["max_kicks"]
        return obj
