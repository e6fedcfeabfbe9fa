"""Cross-round document near-dup index (J3/D3 for docs).

Reference semantics: a doc whose content near-duplicates an already-stored
doc is "repeated" and skipped — UNLESS it carries an unseen ``doc_ori_no``
(the official document number overrides the near-dup verdict,
worker/SpiderFrame.class.php:281-293).  The similarity signal is the 64-bit
content simhash computed at extract time (stages/fetch.py).

Every queried doc is inserted into the band index, including docs the gate
subsequently drops — deliberately mirroring the reference's sidecar, whose
``/simhash/generate`` endpoint both computes AND registers the hash in one
call (worker/FlaskRestClient.class.php:41-53: the spider learns ``repeated``
from the same request that stores the signature; it has no un-store call for
docs it then discards).

Structure: P = 4 band shards, one per 16-bit simhash band (standard banded
LSH for hamming distance: any two hashes within hamming < 4 agree exactly on
at least one band — pigeonhole — so recall at the default threshold 3 is
guaranteed).  Each shard holds ``band_hash → (simhashes, doc_ids, seqs)`` in
insertion (= enqueue_seq) order; a query touches only its band's buckets,
grouped and verified with vectorized hamming.  A multi-band hit resolves to
the hit with the smallest stored enqueue_seq — the earliest stored doc.

Scale: state is O(queried docs × 4/P) per shard — the same order as the
URL-seen set, sharded the same way; band b lives on state actor ``b % n``
(``state/pool.py``) beside partition b of the seen tables and the politeness
ledger, and snapshot/restore rides the per-epoch checkpoint like the seen
shards (T10).  The per-round call ships the round's doc parts in block order
(= enqueue_seq order), so results are deterministic and the actor mailbox
serializes rounds.
"""

from __future__ import annotations

import numpy as np
import ray

from ..functions import hashing
from .pool import Partitioned, StatePool

N_BANDS = 4
_SCAN_CHUNK = 2048  # stored members examined per early-exit scan step

_EMPTY_PART = {"sim": np.zeros(0, np.int64), "seq": np.zeros(0, np.int64)}


def _query_insert_band(
    buckets: dict, band: int, sims: np.ndarray, seqs: np.ndarray, max_hamming: int
) -> np.ndarray:
    """One band's query+insert over a seq-ordered batch.  Returns the stored
    enqueue_seq of the earliest in-band near-dup per doc (-1 = none); every
    doc is then inserted (see module docstring).  Vectorized per bucket:
    members × stored hamming as one matrix, within-batch earlier members via
    a short per-member scan (multi-member buckets are rare)."""
    n = sims.size
    hit = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return hit
    u = sims.view(np.uint64)
    keys = hashing.simhash_bands(u, N_BANDS)[:, band]
    order = np.argsort(keys, kind="stable")  # stable: seq order within a key
    bounds = np.nonzero(np.diff(keys[order]))[0] + 1
    for grp in np.split(order, bounds):
        key = int(keys[grp[0]])
        bucket = buckets.get(key)
        if bucket is None:
            bucket = ([], [], [])  # sims(u64-as-int), reserved, seqs
            buckets[key] = bucket
        stored_u = np.array(bucket[0], dtype=np.uint64)
        m = grp.size
        if stored_u.size:
            # stored members are seq-ascending, so scan them in chunks and
            # stop once every query has a hit: the earliest chunk that
            # matches holds the exact earliest witness.  A near-dup FLOOD
            # (boilerplate corpus: every doc within threshold of every
            # other) then costs O(batch × chunk) instead of O(batch ×
            # stored) — without the cap a 16k-doc flood is a 90 s round.
            stored_seqs = np.array(bucket[2], dtype=np.int64)
            gu = u[grp]
            pending = np.arange(m)
            for lo in range(0, stored_u.size, _SCAN_CHUNK):
                su = stored_u[lo:lo + _SCAN_CHUNK]
                d = hashing.hamming64(
                    su[None, :], gu[pending][:, None]
                ).reshape(pending.size, su.size)
                ok = d <= max_hamming
                has = ok.any(axis=1)
                first = np.argmax(ok, axis=1)
                hit[grp[pending[has]]] = stored_seqs[lo + first[has]]
                pending = pending[~has]
                if pending.size == 0:
                    break
        gu, gseq = u[grp], seqs[grp]
        _, first_idx, inv = np.unique(gu, return_index=True, return_inverse=True)
        if m > 1:
            # within-batch, flood-aware: only the FIRST occurrence of each
            # distinct sim scans backward (against earlier first occurrences
            # — an earlier dup's witness is its own first occurrence, which
            # is earlier still); identical batch-mates then inherit that
            # verdict exactly: their earliest in-threshold member is the
            # first occurrence's hit when it has one, else the first
            # occurrence itself (hamming 0).  A flood of b identical docs
            # costs O(distinct²) + O(b) instead of O(b²).
            fpos = np.sort(first_idx)  # first-occurrence positions, seq order
            for k in range(1, fpos.size):
                i = int(fpos[k])
                if hit[grp[i]] != -1:
                    continue  # a stored hit is always earlier than batch-mates
                prev = fpos[:k]
                d = hashing.hamming64(gu[prev], np.full(k, gu[i], dtype=np.uint64))
                w = np.nonzero(d <= max_hamming)[0]
                if w.size:
                    hit[grp[i]] = int(gseq[prev[w[0]]])
            if max_hamming >= 0:
                dup = np.arange(m) != first_idx[inv]
                if dup.any():
                    f = first_idx[inv[dup]]
                    fh = hit[grp[f]]
                    inherited = np.where(fh != -1, fh, gseq[f])
                    cur = hit[grp[dup]]
                    hit[grp[dup]] = np.where(cur != -1, cur, inherited)
        # identical-sim dominance on insert: an entry whose simhash already
        # exists in the bucket can never change a future verdict (the older
        # identical member is closer-or-equal to every query and earlier in
        # seq, so earliest-hit resolution always prefers it) — skip storing
        # it.  Bounds bucket growth by DISTINCT simhashes under dup floods.
        keep = np.zeros(m, dtype=bool)
        keep[first_idx] = True
        if stored_u.size:
            keep &= ~np.isin(gu, stored_u)
        bucket[0].extend(int(x) for x in sims[grp][keep])
        bucket[2].extend(int(x) for x in seqs[grp][keep])
    return hit


class SimBandShard:
    """One band of the doc simhash index (a plain object hosted on a state
    actor)."""

    def __init__(self, band: int):
        self.band = band
        self.buckets: dict[int, tuple[list[int], list[str], list[int]]] = {}

    def query_parts(self, max_hamming: int, *parts: dict):
        """Parts arrive in block order = enqueue_seq order; each is
        {"sim": i64, "seq": i64}.  Returns one hit-seq array per part
        (``num_returns=len(parts)`` at the call site)."""
        sizes = [np.asarray(p["sim"]).size for p in parts]
        sims = np.concatenate(
            [np.asarray(p["sim"], dtype=np.int64) for p in parts]
        )
        seqs = np.concatenate(
            [np.asarray(p["seq"], dtype=np.int64) for p in parts]
        )
        hit = _query_insert_band(self.buckets, self.band, sims, seqs, max_hamming)
        out, off = [], 0
        for s in sizes:
            out.append(hit[off:off + s])
            off += s
        return out[0] if len(out) == 1 else tuple(out)

    def snapshot(self) -> dict:
        return {"band": self.band, "buckets": self.buckets}

    def restore(self, snap: dict) -> None:
        self.band = snap["band"]
        # older two-list snapshots (pre seq-tracking) can't occur within a
        # session; guard anyway so a stale checkpoint fails loudly
        self.buckets = {
            k: (v[0], v[1], v[2]) if len(v) == 3 else (_ for _ in ()).throw(
                ValueError("sim index snapshot predates seq tracking")
            )
            for k, v in snap["buckets"].items()
        }


class SimIndex(Partitioned):
    """Driver facade over the ``N_BANDS`` band shards, held under ``"sim"``
    on the state actors of ``pool`` (its own pool when None)."""

    def __init__(self, pool: StatePool | None = None):
        super().__init__("sim", SimBandShard, [(b,) for b in range(N_BANDS)], pool)

    def query_parts_refs(self, max_hamming: int, part_refs: list) -> list[list]:
        """Submit one round-sized call per band shard; returns
        ``hits[band][block]`` hit-seq array REFS (nothing gathered here)."""
        nb = len(part_refs)
        out = []
        for b in range(len(self.shards)):
            rets = self._call(b, "query_parts", max_hamming, *part_refs, num_returns=nb)
            out.append([rets] if nb == 1 else list(rets))
        return out

    def query_insert(self, sims_i64: np.ndarray, ids: list[str],
                     max_hamming: int, seqs: np.ndarray | None = None) -> list[str]:
        """Convenience single-batch API (tests): earliest near-dup id per doc
        ("" when none), resolved by smallest stored enqueue_seq."""
        n = len(ids)
        if n == 0:
            return []
        if seqs is None:
            seqs = np.arange(n, dtype=np.int64)
        part = {"sim": np.asarray(sims_i64, dtype=np.int64),
                "seq": np.asarray(seqs, dtype=np.int64)}
        hits = np.stack(ray.get(self._each("query_parts", max_hamming, part)))
        best = np.where(hits == -1, np.iinfo(np.int64).max, hits).min(axis=0)
        seq_to_id = dict(zip((int(x) for x in seqs), ids))
        # a hit seq from an earlier call maps to no id in this batch — still a
        # real hit, surfaced as its stored sequence number
        return ["" if b == np.iinfo(np.int64).max
                else seq_to_id.get(int(b), f"<seq {int(b)}>")
                for b in best]

    def snapshot_refs(self) -> list:
        """Mailbox-pinned snapshot submission (see SeenSet.snapshot_refs)."""
        return self._each("snapshot")

    def restore(self, snaps: list[dict]) -> None:
        ray.get([self._call(b, "restore", snap) for b, snap in enumerate(snaps)])
