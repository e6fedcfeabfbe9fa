"""Deduplication operators for the training-data pipeline (first-class per
the build brief): exact hash, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Scale shapes:
- exact: hash in map_batches → groupby-first (one shuffle on a 32-byte key).
- MinHash-LSH: signatures per batch → (band_id, band_hash, doc_id) rows →
  ONE shuffle on a coarse key (band_hash % P) → within each partition a
  lexsort groups equal buckets into runs and pair expansion is pure
  repeat/arange arithmetic — one Python call per PARTITION, never per
  bucket.  (LSH buckets are numerous and tiny by design; per-bucket
  map_groups would cost one pandas invocation each — the sessionize disease.
  This is the coarse-partition cure, same pattern as
  relational.range_join_events.)
- SimHash / phash: 64-bit signature → numeric band keys → the same
  coarse-partition run expansion → vectorized hamming verify.
- n-gram Jaccard: blocked by a coarse key (source); intersections via one
  vectorized exploded self-merge per partition, never per-pair Python sets.
- embedding cosine: blocked by label (exact face) or hyperplane bucket (LSH
  face); pair sims via run expansion + one einsum per partition.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..copartition import co_partition, hot_keys
from ..functions import hashing

_MH_K = 64
_MH_BANDS = 16  # 16 bands × 4 rows
_PAIR_PARTITIONS = 32  # coarse shuffle width for the pair-expansion stages


def _docs(sf_dir: str) -> rd.Dataset:
    from .. import storage

    return storage.read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"])


def _expand_run_pairs(new_run: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All within-run (i < j) index pairs over rows already sorted so equal
    keys are adjacent.  ``new_run[r]`` is True where row r begins a new run
    (``new_run[0]`` must be True).  Returns (I, J) row-index arrays computed
    with repeat/arange arithmetic only — no per-run Python (the
    sessionize/range-join pattern, relational.py:424-470)."""
    n = new_run.size
    empty = np.empty(0, np.int64)
    if n == 0:
        return empty, empty
    idx = np.arange(n, dtype=np.int64)
    run_start = idx[new_run]
    run_id = np.cumsum(new_run) - 1
    start_of = run_start[run_id]          # each row's run start
    counts = idx - start_of               # pairs where this row is the later element
    total = int(counts.sum())
    if total == 0:
        return empty, empty
    J = np.repeat(idx, counts)
    k = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    I = np.repeat(start_of, counts) + k
    return I, J


def minhash_band_rows(sf_dir: str) -> rd.Dataset:
    """Stage 1-2 of MinHash-LSH: per-doc signature → (band_id, band_hash,
    doc_id) rows, computed vectorized per batch.  ``band_hash`` is the
    blake2b-64 of the band's minhash chunk as a uint64 (a numeric grouping
    key partitions and run-sorts without string compares); it is also the
    ``co_partition`` key."""
    a, b = hashing.minhash_params(_MH_K)

    def sig_rows(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        rows_per_band = _MH_K // _MH_BANDS
        # one vectorized (k × N) signature pass for the whole batch — the
        # per-shingle md5 stays Python (the oracle pins md5_number_lower),
        # everything after it is one matrix op + segmented min
        hs_list = [hashing.shingle_hashes(x, 3) for x in t.column("text").to_pylist()]
        sigs = hashing.minhash_signatures_batch(hs_list, a, b)  # (D, k)
        d = len(ids)
        chunks = sigs.reshape(d * _MH_BANDS, rows_per_band)
        bh = np.fromiter(
            (int.from_bytes(hashlib.blake2b(c.tobytes(), digest_size=8).digest(), "big")
             for c in chunks),
            dtype=np.uint64, count=d * _MH_BANDS,
        )
        return pa.table(
            {"band_id": pa.array(np.tile(np.arange(_MH_BANDS, dtype=np.int32), d)),
             "band_hash": pa.array(bh),
             "doc_id": pa.array(np.repeat(ids, _MH_BANDS))}
        )

    return _docs(sf_dir).map_batches(sig_rows, batch_format="pyarrow")


def _mh_partition_pairs(t: pd.DataFrame) -> pa.Table:
    """Candidate pairs for ONE coarse partition: lexsort by (band_hash,
    band_id, doc_id), runs = equal (band_hash, band_id) buckets, pairs by
    run expansion.  doc_a < doc_b holds because doc_id ascends within runs."""
    bh = t["band_hash"].to_numpy(dtype=np.uint64)
    band = t["band_id"].to_numpy(dtype=np.int32)
    did = t["doc_id"].to_numpy(dtype=np.int64)
    order = np.lexsort((did, band, bh))
    bh, band, did = bh[order], band[order], did[order]
    new_run = np.ones(len(did), dtype=bool)
    new_run[1:] = (bh[1:] != bh[:-1]) | (band[1:] != band[:-1])
    I, J = _expand_run_pairs(new_run)
    return pa.table({"doc_a": pa.array(did[I], pa.int64()),
                     "doc_b": pa.array(did[J], pa.int64())})


def minhash_lsh_pairs(sf_dir: str, threshold: float = 0.5) -> pd.DataFrame:
    """Full MinHash-LSH near-dup: coarse-partition bucket runs → candidate
    pairs → exact-Jaccard verification against the real shingle sets.

    Oracle-checked end-to-end: shingle hashes are md5_number_lower, the
    permutation params are seed-42 literals, and band equality is minhash-
    list equality — the SQL mirror replays candidates AND verify exactly.

    Returns (doc_a, doc_b, jaccard) with doc_a < doc_b, jaccard ≥ threshold.
    The verify step re-reads only the candidate docs (point lookups on a
    broadcast id→text map here; at 100 TB it would be a secondary join keyed
    on candidate ids — candidates, not corpus, bound the cost)."""
    import ray

    bands = minhash_band_rows(sf_dir)
    cand = (
        co_partition(bands, "band_hash", _PAIR_PARTITIONS, _mh_partition_pairs,
                     batch_format="pandas")
        .to_pandas()
        .drop_duplicates()
    )
    if cand.empty:
        return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64"),
                             "jaccard": pd.Series([], dtype="float64")})
    # verify via a broadcast semi-join: the candidate-id set (small side)
    # rides the object store; the documents table STREAMS through
    # map_batches and only candidate rows' shingle sets come back — driver
    # memory is O(candidate docs), never O(corpus).  (With a candidate set
    # too big to broadcast, this becomes a hash join on doc_id instead.)
    need_ref = ray.put(frozenset(cand["doc_a"]) | frozenset(cand["doc_b"]))

    def cand_shingles(t: pa.Table) -> pa.Table:
        need = ray.get(need_ref)
        ids = t.column("doc_id").to_pylist()
        keep = [i for i, d in enumerate(ids) if d in need]
        out_id, out_sh = [], []
        for i in keep:
            w = t.column("text")[i].as_py().split(" ")
            out_id.append(ids[i])
            out_sh.append(sorted({" ".join(w[j:j + 3]) for j in range(max(1, len(w) - 2))}))
        return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                         "shingles": pa.array(out_sh, pa.list_(pa.string()))})

    cd = (
        __import__("lightcrawler_ray.storage", fromlist=["x"]).read_parquet_clean(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        .map_batches(cand_shingles, batch_format="pyarrow")
        .to_pandas()
    )
    sh = {d: set(s) for d, s in zip(cd["doc_id"], cd["shingles"])}
    jac = [
        len(sh[a] & sh[b]) / max(1, len(sh[a] | sh[b]))
        for a, b in zip(cand["doc_a"], cand["doc_b"])
    ]
    cand = cand.assign(jaccard=jac)
    return (
        cand[cand["jaccard"] >= threshold]
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )


def simhash_docs(sf_dir: str) -> rd.Dataset:
    """Per-doc 64-bit simhash (T8/D3 analog over the documents table)."""

    def sig(t: pa.Table) -> pa.Table:
        out = []
        for text in t.column("text").to_pylist():
            s = hashing.simhash64(text)
            out.append(s - (1 << 64) if s >= (1 << 63) else s)
        return pa.table({"doc_id": t.column("doc_id"), "simhash": pa.array(out, pa.int64())})

    return _docs(sf_dir).map_batches(sig, batch_format="pyarrow")


def _banded_hamming_pairs(
    sigs: rd.Dataset, id_col: str, n_bands: int, max_hamming: int,
    out_a: str, out_b: str, id_type: pa.DataType,
) -> pd.DataFrame:
    """Shared banded-pigeonhole near-dup join for 64-bit signatures
    (simhash docs / phash images): ``n_bands`` bands of 64/n_bands bits
    guarantee recall for hamming < n_bands; ONE coarse shuffle on
    band_key % P; within each partition equal band keys form lexsort runs
    whose pairs expand by repeat/arange arithmetic and verify with a
    vectorized hamming — no per-bucket Python anywhere."""
    is_str = pa.types.is_string(id_type)

    def band_rows(t: pa.Table) -> pa.Table:
        ph = np.array(t.column("simhash").to_pylist(), dtype=np.int64).view(np.uint64)
        bands = hashing.simhash_bands(ph, n_bands)
        n = len(ph)
        # numeric band key: band index in the high bits, band value low
        keys = (np.arange(n_bands, dtype=np.uint64)[None, :] << np.uint64(48)) | bands.astype(np.uint64)
        keys = keys.T.reshape(-1)  # band-major: [b0 rows..., b1 rows...]
        ids = t.column(id_col)
        idx = np.tile(np.arange(n), n_bands)
        return pa.table(
            {
                "band_key": pa.array(keys),
                id_col: ids.take(pa.array(idx)),
                "simhash": pa.array(np.tile(ph, n_bands).view(np.int64)),
            }
        )

    def part_pairs(t: pd.DataFrame) -> pa.Table:
        empty = pa.table({out_a: pa.array([], id_type), out_b: pa.array([], id_type),
                          "hamming": pa.array([], pa.int64())})
        if len(t) < 2:
            return empty
        keys = t["band_key"].to_numpy(dtype=np.uint64)
        ids = t[id_col].to_numpy()
        if is_str:
            ids = ids.astype(str)  # '<U' dtype lexsorts; object arrays don't
        hs = t["simhash"].to_numpy(dtype=np.int64).view(np.uint64)
        order = np.lexsort((ids, keys))
        keys, ids, hs = keys[order], ids[order], hs[order]
        new_run = np.ones(len(keys), dtype=bool)
        new_run[1:] = keys[1:] != keys[:-1]
        I, J = _expand_run_pairs(new_run)
        if I.size == 0:
            return empty
        d = hashing.hamming64(hs[I], hs[J])
        keep = d <= max_hamming
        return pa.table({out_a: pa.array(ids[I[keep]], id_type),
                         out_b: pa.array(ids[J[keep]], id_type),
                         "hamming": pa.array(d[keep].astype(np.int64), pa.int64())})

    df = co_partition(sigs.map_batches(band_rows, batch_format="pyarrow"), "band_key",
                      _PAIR_PARTITIONS, part_pairs, batch_format="pandas").to_pandas()
    if df.empty:
        dt = "string" if is_str else "int64"
        return pd.DataFrame({out_a: pd.Series([], dtype=dt),
                             out_b: pd.Series([], dtype=dt),
                             "hamming": pd.Series([], dtype="int64")})
    return (
        df.drop_duplicates([out_a, out_b])
        .sort_values([out_a, out_b])
        .reset_index(drop=True)
    )


def simhash_near_dups(sf_dir: str, max_hamming: int = 3) -> pd.DataFrame:
    """SimHash near-dup pairs via 4-band bucketing + hamming verify.

    Oracle-checked: 4 bands are EXACT for hamming <= 3 (pigeonhole), and the
    SQL mirror replays simhash64 itself (md5_number_lower token hashes +
    weighted bit votes), so the output equals the full O(n²) hamming join."""
    return _banded_hamming_pairs(
        simhash_docs(sf_dir), "doc_id", 4, max_hamming, "doc_a", "doc_b", pa.int64()
    )


def phash_near_dups(images_path: str, max_hamming: int = 7,
                    n_bands: int = 8) -> pd.DataFrame:
    """Near-duplicate IMAGE pairs by perceptual hash — D3's image face over
    the multimodal decode stage.  Decode + phash run on the actor pool
    (``extras.multimodal.ImageDecodeStats``, codec loaded once per actor);
    then the same banded-pigeonhole coarse-partition join as
    ``simhash_near_dups`` (8 bands → every pair within hamming ≤ 7 shares a
    band).  Scale shape: only (band_key, image_id, phash) rows shuffle —
    payload bytes never leave the decode stage.  SQL-oracled: phash is a
    deterministic codec output already carried by the fixture images table,
    so the oracle replays the same ≤-hamming join over the stored column."""
    from .multimodal import image_stats

    sigs = image_stats(images_path).map_batches(
        lambda t: pa.table({"image_id": t.column("image_id"),
                            "simhash": t.column("phash")}),
        batch_format="pyarrow",
    )
    return _banded_hamming_pairs(
        sigs, "image_id", n_bands, max_hamming, "img_a", "img_b", pa.string()
    )


def _triangle_cells(sub: int, n_salts: int) -> list[tuple[int, int]]:
    """The ``n_salts`` ordered cells (i ≤ j) a doc in sub-block ``sub`` must
    visit so every pair of sub-blocks meets in exactly one cell: row ``(·,
    sub)`` up to the diagonal plus column ``(sub, ·)`` from it — the
    standard triangle self-join decomposition.  A pair with sub-blocks
    (a, b), a < b shares exactly cell (a, b); a same-sub pair shares all
    ``n_salts`` cells and is charged to its diagonal cell (a, a) by the
    salt filter in ``ngram_jaccard_pairs``."""
    return [(i, sub) for i in range(sub)] + [(sub, j) for j in range(sub, n_salts)]


def ngram_jaccard_pairs(sf_dir: str, threshold: float = 0.2, n_salts: int = 8,
                        sample_rows: int = 4096, hot_frac: float = 0.02) -> pd.DataFrame:
    """Blocked exact n-gram Jaccard: pairs within the same ``source`` block
    (the coarse blocking key), word-3-gram shingle sets, jaccard ≥ threshold.
    SQL-oracled (DuckDB computes the identical shingle sets).

    Skew (VERDICT r4 #8): ``source`` is a data-dependent key — one hot
    source used to land whole in a single partition and degrade to O(n²)
    rows in one pandas merge.  Hot sources are now nominated by
    :func:`~lightcrawler_ray.copartition.hot_keys` (≥ ``hot_frac`` of a
    sample of the first ``sample_rows`` rows of every block, broadcast once
    via ``ray.put``) and triangle-salted:
    each hot doc hashes to a sub-block and replicates its shingle rows to
    the ``n_salts`` cells of :func:`_triangle_cells`, so every pair of
    sub-blocks meets in exactly one cell and per-partition pair work drops
    from n² to ~(2n/S)² per cell.  The salt filter (off-diagonal cells keep
    only cross-sub pairs) makes coverage exactly-once, so salting changes
    WHERE pairs meet, never the result — which the plain-SQL oracle
    certifies.  Cold sources keep the old single-cell path.

    ``co_partition`` on crc32(source|cell); within each partition the
    pairwise intersection sizes come from ONE exploded (source, cell,
    shingle, doc_id) self-merge — vectorized pandas, no per-pair Python
    set ops."""
    ds = _docs(sf_dir)
    hot_ref = ray.put(hot_keys(ds, "source", sample_rows, hot_frac))

    def shingle_rows(t: pa.Table) -> pa.Table:
        hotset = ray.get(hot_ref)
        out_doc, out_src, out_sh, out_sz = [], [], [], []
        out_cell, out_salt, out_crc = [], [], []
        for did, src, text in zip(
            t.column("doc_id").to_pylist(), t.column("source").to_pylist(),
            t.column("text").to_pylist(),
        ):
            w = text.split(" ")
            grams = {" ".join(w[i : i + 3]) for i in range(max(1, len(w) - 2))}
            if src in hotset:
                sub = (did * 2654435761) % n_salts
                cells = _triangle_cells(sub, n_salts)
            else:
                sub, cells = 0, [(0, 0)]
            for ci, cj in cells:
                cell = ci * n_salts + cj
                out_doc.extend([did] * len(grams))
                out_src.extend([src] * len(grams))
                out_sh.extend(grams)
                out_sz.extend([len(grams)] * len(grams))
                out_cell.extend([cell] * len(grams))
                out_salt.extend([sub] * len(grams))
                out_crc.extend([zlib.crc32(f"{src}|{cell}".encode())] * len(grams))
        return pa.table({"cell_crc": pa.array(out_crc, pa.uint32()),
                         "source": pa.array(out_src, pa.string()),
                         "cell": pa.array(out_cell, pa.int32()),
                         "salt": pa.array(out_salt, pa.int32()),
                         "doc_id": pa.array(out_doc, pa.int64()),
                         "shingle": pa.array(out_sh, pa.string()),
                         "n_sh": pa.array(out_sz, pa.int64())})

    def part_pairs(g: pd.DataFrame) -> pa.Table:
        m = g.merge(g, on=["source", "cell", "shingle"])
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        empty = pa.table({"doc_a": pa.array([], pa.int64()),
                          "doc_b": pa.array([], pa.int64()),
                          "jaccard": pa.array([], pa.float64())})
        if m.empty:
            return empty
        # exactly-once coverage: an off-diagonal cell (i, j) holds docs of
        # sub-blocks i and j; its within-sub pairs belong to the diagonal
        # cells and are dropped here
        diag = (m["cell"] // n_salts) == (m["cell"] % n_salts)
        m = m[diag | (m["salt_x"] != m["salt_y"])]
        if m.empty:
            return empty
        inter = (
            m.groupby(["doc_id_x", "doc_id_y", "n_sh_x", "n_sh_y"], sort=True)
            .size()
            .reset_index(name="inter")
        )
        union = inter["n_sh_x"] + inter["n_sh_y"] - inter["inter"]
        jac = inter["inter"] / np.maximum(union, 1)
        keep = jac >= threshold
        return pa.table({"doc_a": pa.array(inter["doc_id_x"][keep], pa.int64()),
                         "doc_b": pa.array(inter["doc_id_y"][keep], pa.int64()),
                         "jaccard": pa.array(jac[keep], pa.float64())})

    df = co_partition(ds.map_batches(shingle_rows, batch_format="pyarrow"), "cell_crc",
                      _PAIR_PARTITIONS, part_pairs, batch_format="pandas").to_pandas()
    if df.empty:
        return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64"),
                             "jaccard": pd.Series([], dtype="float64")})
    return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


_SPAN_N = 8


def dup_span_stats(sf_dir: str, n: int = _SPAN_N) -> pd.DataFrame:
    """Substring-level duplication stats (the training-data dedup face of
    Lee et al. 2022, "Deduplicating Training Data Makes Language Models
    Better"): for every doc, how many of its n-token windows repeat anywhere
    in the corpus (any doc, any position — including elsewhere in itself).

    Returns (doc_id, n_windows, n_dup_windows, dup_ratio) for docs with at
    least one window (≥ n tokens).  SQL-oracled: DuckDB builds the identical
    window grams and the same ≥2-occurrence rule.

    Scale shape: per-batch tokenize with a WITHIN-DOC (gram → count)
    pre-agg (repeated windows inside one doc collapse before the exchange),
    ONE shuffle on crc32(gram) % P, per-partition lexsort groups equal
    grams into runs whose total count decides duplication for every member
    row, then per-doc partial sums leave the partition and a tiny
    groupby(doc_id) Sum finishes — corpus text never shuffles, only
    (gram, doc_id, count) rows do, and the run walk is bincount/reduceat
    arithmetic, never per-gram Python.  (At 10^10 docs the gram string
    would ride as a u64 content hash instead — same shape, smaller rows;
    strings are kept here so the DuckDB oracle can replay bit-exact.)"""
    from collections import Counter

    from ray.data.aggregate import Sum

    ds = _docs(sf_dir)

    def gram_rows(t: pa.Table) -> pa.Table:
        out_doc: list[int] = []
        out_gram: list[str] = []
        out_cnt: list[int] = []
        for did, text in zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()):
            toks = (text or "").lower().split()
            if len(toks) < n:
                continue
            c = Counter(" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1))
            out_doc.extend([did] * len(c))
            out_gram.extend(c.keys())
            out_cnt.extend(c.values())
        return pa.table({
            "gram_crc": pa.array([zlib.crc32(g.encode()) for g in out_gram], pa.uint32()),
            "gram": pa.array(out_gram, pa.string()),
            "doc_id": pa.array(out_doc, pa.int64()),
            "cnt": pa.array(out_cnt, pa.int64()),
        })

    def part_doc_partials(g: pd.DataFrame) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "w": pa.array([], pa.int64()),
                          "d": pa.array([], pa.int64())})
        if g.empty:
            return empty
        grams = g["gram"].to_numpy().astype(str)
        did = g["doc_id"].to_numpy(dtype=np.int64)
        cnt = g["cnt"].to_numpy(dtype=np.int64)
        order = np.lexsort((did, grams))
        grams, did, cnt = grams[order], did[order], cnt[order]
        new_run = np.ones(len(grams), dtype=bool)
        new_run[1:] = grams[1:] != grams[:-1]
        run_id = np.cumsum(new_run) - 1
        totals = np.bincount(run_id, weights=cnt)  # occurrences per gram
        dup_cnt = np.where(totals[run_id] >= 2, cnt, 0)
        docs, inv = np.unique(did, return_inverse=True)
        return pa.table({
            "doc_id": pa.array(docs, pa.int64()),
            "w": pa.array(np.bincount(inv, weights=cnt).astype(np.int64)),
            "d": pa.array(np.bincount(inv, weights=dup_cnt).astype(np.int64)),
        })

    def finalize(t: pa.Table) -> pa.Table:
        w = t.column("n_windows").to_numpy(zero_copy_only=False).astype(np.int64)
        d = t.column("n_dup_windows").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_windows": pa.array(w, pa.int64()),
            "n_dup_windows": pa.array(d, pa.int64()),
            "dup_ratio": pa.array(d / np.maximum(w, 1), pa.float64()),
        })

    df = (
        co_partition(ds.map_batches(gram_rows, batch_format="pyarrow"), "gram_crc",
                     _PAIR_PARTITIONS, part_doc_partials, batch_format="pandas")
        .groupby("doc_id")
        .aggregate(Sum("w", alias_name="n_windows"), Sum("d", alias_name="n_dup_windows"))
        .map_batches(finalize, batch_format="pyarrow")
        .to_pandas()
    )
    return df.sort_values("doc_id").reset_index(drop=True)


def _vec_run_pairs(
    t: pd.DataFrame, key_np: np.ndarray, threshold: float
) -> pa.Table:
    """Shared tail for the embedding faces: rows of one coarse partition,
    sorted into runs of equal ``key_np`` (any lexsortable dtype — int64
    buckets or unicode labels); pair sims via run expansion + one einsum
    over the gathered normalized vectors."""
    empty = pa.table({"vec_a": pa.array([], pa.int64()),
                      "vec_b": pa.array([], pa.int64())})
    if len(t) < 2:
        return empty
    ids = t["vec_id"].to_numpy(dtype=np.int64)
    order = np.lexsort((ids, key_np))
    key_s, ids_s = key_np[order], ids[order]
    m = np.stack(t["vec"].to_numpy())[order]
    new_run = np.ones(len(ids_s), dtype=bool)
    new_run[1:] = key_s[1:] != key_s[:-1]
    I, J = _expand_run_pairs(new_run)
    if I.size == 0:
        return empty
    sims = np.einsum("ij,ij->i", m[I], m[J])
    keep = (sims >= threshold) & (ids_s[I] != ids_s[J])
    return pa.table({"vec_a": pa.array(ids_s[I[keep]], pa.int64()),
                     "vec_b": pa.array(ids_s[J[keep]], pa.int64())})


def embedding_near_dups_lsh(sf_dir: str, threshold: float = 0.35,
                            n_planes: int = 4, seed: int = 42) -> pd.DataFrame:
    """Embedding-cosine near-dup with RANDOM-HYPERPLANE LSH blocking — the
    100 TB path: the blocking key is data-independent (no label can become a
    hot O(n²) block; expected bucket size = n/2^planes regardless of skew),
    multi-probe (1-bit flips) recovers most cross-boundary pairs.
    SQL-oracled via literal-plane replay (bit_count(xor) <= 2 multi-probe).
    One coarse shuffle on bucket % P; runs expand per partition."""
    import ray

    rng = np.random.default_rng(seed)
    from .. import storage

    ds = storage.read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    dim = len(ds.take(1)[0]["embedding"])
    planes_ref = ray.put(rng.standard_normal((n_planes, dim)))

    def bucket_rows(t: pa.Table) -> pa.Table:
        planes = ray.get(planes_ref)
        ids = np.array(t.column("vec_id").to_pylist(), dtype=np.int64)
        m = np.stack(t.column("embedding").to_numpy(zero_copy_only=False)).astype(np.float64)
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        bits = (m @ planes.T) > 0
        bk = (bits * (1 << np.arange(n_planes))).sum(axis=1).astype(np.int64)
        # multi-probe: emit each row into its bucket + all 1-bit-flip buckets
        # (vectorized: the (n_planes+1) probe targets stack as one matrix)
        probes = np.concatenate(
            [bk[None, :], bk[None, :] ^ (1 << np.arange(n_planes))[:, None]]
        )  # (n_planes+1, n)
        reps = probes.shape[0]
        idx = np.tile(np.arange(len(ids)), reps)
        mv = m[idx]
        return pa.table({
            "bucket": pa.array(probes.reshape(-1), pa.int64()),
            "vec_id": pa.array(ids[idx], pa.int64()),
            "vec": pa.FixedSizeListArray.from_arrays(pa.array(mv.reshape(-1)), mv.shape[1]),
        })

    def part_pairs(g: pd.DataFrame) -> pa.Table:
        return _vec_run_pairs(g, g["bucket"].to_numpy(dtype=np.int64), threshold)

    df = co_partition(ds.map_batches(bucket_rows, batch_format="pyarrow"), "bucket",
                      _PAIR_PARTITIONS, part_pairs, batch_format="pandas").to_pandas()
    if df.empty:
        return pd.DataFrame({"vec_a": pd.Series([], dtype="int64"),
                             "vec_b": pd.Series([], dtype="int64")})
    return (
        df.drop_duplicates(["vec_a", "vec_b"])
        .sort_values(["vec_a", "vec_b"])
        .reset_index(drop=True)
    )


def embedding_near_dups(sf_dir: str, threshold: float = 0.35) -> pd.DataFrame:
    """Embedding-cosine near-dup, blocked by label: one coarse shuffle on
    hash(label) % P, label runs expand per partition, sims by einsum.
    SQL-oracled via duckdb list_cosine_similarity with the same label
    blocking."""
    from .. import storage

    ds = storage.read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    )

    def rows(t: pa.Table) -> pa.Table:
        labels = t.column("label").to_pylist()
        m = np.stack(t.column("embedding").to_numpy(zero_copy_only=False)).astype(np.float64)
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        lkey = np.array([zlib.crc32(str(x).encode()) for x in labels], dtype=np.uint32)
        # FixedSizeList built from the flat numpy buffer — the old
        # m.tolist() path built n×dim Python floats per batch (the r04
        # watch-item regression on this query)
        vec = pa.FixedSizeListArray.from_arrays(pa.array(m.reshape(-1)), m.shape[1])
        return pa.table({
            "label_crc": pa.array(lkey),
            "label": t.column("label"),
            "vec_id": t.column("vec_id"),
            "vec": vec,
        })

    def part_pairs(g: pd.DataFrame) -> pa.Table:
        # run key = the label ITSELF (a crc32 collision must only co-locate
        # two labels in a partition, never merge their blocks)
        return _vec_run_pairs(g, g["label"].to_numpy().astype(str), threshold)

    df = co_partition(ds.map_batches(rows, batch_format="pyarrow"), "label_crc",
                      _PAIR_PARTITIONS, part_pairs, batch_format="pandas").to_pandas()
    if df.empty:
        return pd.DataFrame({"vec_a": pd.Series([], dtype="int64"),
                             "vec_b": pd.Series([], dtype="int64")})
    return df.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# dedup clusters: connected components over near-dup pairs
# ---------------------------------------------------------------------------

_CC_PARTITIONS = 32  # coarse shuffle width for label propagation
_CC_MAX_ITERS = 64   # diameter guard; dup clusters are near-cliques in practice


def connected_components(edges: pd.DataFrame, max_iters: int = _CC_MAX_ITERS) -> pd.DataFrame:
    """Distributed connected components by min-label propagation: every node
    that appears in ``edges`` gets the smallest node id reachable from it.

    Scale shape — the classic iterative groupby formulation, O(diameter)
    rounds (dup clusters from LSH are near-cliques, so 2-3 rounds in
    practice), each round TWO coarse shuffles of the edge set and nothing
    else:
      1. co-locate labels and out-edges on hash(node) % P, merge inside each
         partition (vectorized pandas merge, one Python call per PARTITION)
         to send each neighbor the sender's current label;
      2. re-shuffle messages + self rows on the receiving node, take the
         per-node min (pandas C groupby), and count per-node changes.
    Convergence = a Sum aggregate over the per-node ``changed`` flags hits
    zero — no driver-side label diffing, no label-sum overflow at 10^10-node
    scale.  Labels are (node, label) i64 pairs; corpus payloads never enter.
    """
    import ray.data as rd

    if edges.empty:
        return pd.DataFrame({"node": pd.Series([], dtype="int64"),
                             "label": pd.Series([], dtype="int64")})
    u = edges.iloc[:, 0].to_numpy(dtype=np.int64)
    v = edges.iloc[:, 1].to_numpy(dtype=np.int64)
    su, sv = np.concatenate([u, v]), np.concatenate([v, u])  # symmetrize
    edges_ds = rd.from_arrow(pa.table({
        "key": pa.array(su), "val": pa.array(sv),
        "tag": pa.array(np.ones(len(su), dtype=np.int8)),
    })).materialize()
    nodes = np.unique(su)
    labels = rd.from_pandas(pd.DataFrame({"node": nodes, "label": nodes}))

    def tag_labels(t: pa.Table) -> pa.Table:
        n = t.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
        l = t.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "key": pa.array(n), "val": pa.array(l),
            "tag": pa.array(np.zeros(len(n), dtype=np.int8)),
        })

    def propagate(g: pd.DataFrame) -> pa.Table:
        lab = g[g["tag"] == 0]
        ed = g[g["tag"] == 1]
        m = ed.merge(lab[["key", "val"]].rename(columns={"val": "lab"}), on="key")
        node = np.concatenate([m["val"].to_numpy(np.int64),
                               lab["key"].to_numpy(np.int64)])
        label = np.concatenate([m["lab"].to_numpy(np.int64),
                                lab["val"].to_numpy(np.int64)])
        selfrow = np.concatenate([np.zeros(len(m), np.int8),
                                  np.ones(len(lab), np.int8)])
        old = np.concatenate([np.zeros(len(m), np.int64),
                              lab["val"].to_numpy(np.int64)])
        return pa.table({
            "node": pa.array(node), "label": pa.array(label),
            "old": pa.array(old), "selfrow": pa.array(selfrow),
        })

    def minimize(g: pd.DataFrame) -> pa.Table:
        newl = g.groupby("node")["label"].min()
        old = g.loc[g["selfrow"] == 1].set_index("node")["old"].reindex(newl.index)
        changed = (newl.to_numpy() < old.to_numpy()).astype(np.int8)
        return pa.table({
            "node": pa.array(newl.index.to_numpy(np.int64)),
            "label": pa.array(newl.to_numpy(np.int64)),
            "changed": pa.array(changed),
        })

    for _ in range(max_iters):
        step = co_partition([labels.map_batches(tag_labels, batch_format="pyarrow"),
                             edges_ds], "key", _CC_PARTITIONS, propagate,
                            batch_format="pandas")
        labels = co_partition(step, "node", _CC_PARTITIONS, minimize,
                              batch_format="pandas").materialize()
        if labels.sum("changed") == 0:
            break
    else:
        raise RuntimeError(f"connected_components: no fixpoint in {max_iters} iters")
    df = labels.to_pandas()[["node", "label"]]
    return df.sort_values("node").reset_index(drop=True)


def dedup_components(sf_dir: str, max_hamming: int = 3) -> rd.Dataset:
    """Canonical-document assignment — the step after pair finding that a
    real dedup actually needs: connected components over the simhash
    near-dup pairs give every doc its cluster representative (= the smallest
    doc_id reachable through near-dup edges) and the cluster size.

    Scale shape: pairs come from the banded simhash pipeline (bounded,
    already coarse-partitioned); components run distributed min-label
    propagation over ONLY the paired nodes (≪ corpus — dup clusters are
    sparse); the final (node → rep) map is broadcast once via ``ray.put``
    and the corpus streams through one map_batches to pick up rep/csize —
    singleton docs never enter a shuffle.  SQL-oracled: DuckDB replays the
    pair pipeline then closes it transitively with a recursive CTE."""
    import ray

    from .. import storage

    pairs = simhash_near_dups(sf_dir, max_hamming=max_hamming)
    comp = connected_components(pairs[["doc_a", "doc_b"]])
    rep_map = dict(zip(comp["node"], comp["label"]))
    csize = comp.groupby("label").size().to_dict()
    maps_ref = ray.put((rep_map, csize))

    def assign(t: pa.Table) -> pa.Table:
        rm, cs = ray.get(maps_ref)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        rep = np.array([rm.get(int(i), int(i)) for i in ids], dtype=np.int64)
        n = np.array([cs.get(int(r), 1) for r in rep], dtype=np.int64)
        return pa.table({
            "doc_id": pa.array(ids),
            "rep": pa.array(rep),
            "csize": pa.array(n),
        })

    ds = storage.read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return ds.map_batches(assign, batch_format="pyarrow")


def image_dedup_components(images_path: str, max_hamming: int = 7) -> rd.Dataset:
    """Canonical-image assignment — connected components over the phash
    near-dup pairs (same cluster semantics as ``dedup_components`` on the
    text side).  Image ids are strings; they are factorized over the SORTED
    unique paired ids so the component-min label equals the
    lexicographically smallest image_id, then the (id → rep) map is
    broadcast and the image table streams through one map_batches — payload
    bytes never shuffle.  SQL-oracled by closing the stored-phash pair
    replay with a recursive CTE."""
    import ray

    from .. import storage

    pairs = phash_near_dups(images_path, max_hamming=max_hamming)
    if len(pairs):
        ids = np.unique(np.concatenate([
            pairs["img_a"].to_numpy().astype(str),
            pairs["img_b"].to_numpy().astype(str),
        ]))
        code = {s: i for i, s in enumerate(ids)}
        edges = pd.DataFrame({
            "a": np.array([code[x] for x in pairs["img_a"]], dtype=np.int64),
            "b": np.array([code[x] for x in pairs["img_b"]], dtype=np.int64),
        })
        comp = connected_components(edges)
        rep_map = {ids[n]: ids[l] for n, l in zip(comp["node"], comp["label"])}
        csize = comp.groupby("label").size()
        size_map = {ids[l]: int(c) for l, c in csize.items()}
    else:
        rep_map, size_map = {}, {}
    maps_ref = ray.put((rep_map, size_map))

    def assign(t: pa.Table) -> pa.Table:
        rm, cs = ray.get(maps_ref)
        ids = t.column("image_id").to_pylist()
        rep = [rm.get(i, i) for i in ids]
        n = [cs.get(r, 1) for r in rep]
        return pa.table({
            "image_id": t.column("image_id"),
            "rep": pa.array(rep, pa.string()),
            "csize": pa.array(n, pa.int64()),
        })

    ds = storage.read_parquet_clean(images_path, columns=["image_id"])
    return ds.map_batches(assign, batch_format="pyarrow")


def dedup_apply(sf_dir: str, max_hamming: int = 3) -> rd.Dataset:
    """Materialize the SURVIVING corpus — the actual product of a fuzzy
    dedup pass: every document except near-dup cluster losers (a doc loses
    when its simhash component representative — the smallest reachable
    doc_id — is another doc).

    Scale shape: pairs and components come from the banded/coarse-partition
    pipelines above; only the LOSER id set (≪ corpus — dup clusters are
    sparse; at a 1-2% dup rate, 10⁸ ids per 10¹⁰ docs, a few GB as a
    frozenset — shard the broadcast past that) is broadcast via
    ``ray.put``, and the corpus streams through one filter map_batches.
    Payload text never shuffles and singletons never enter any exchange.
    SQL-oracled by closing the pair replay with a recursive CTE and
    anti-joining."""
    import ray

    from .. import storage

    pairs = simhash_near_dups(sf_dir, max_hamming=max_hamming)
    comp = connected_components(pairs[["doc_a", "doc_b"]])
    nodes = comp["node"].to_numpy().astype(np.int64)
    labels = comp["label"].to_numpy().astype(np.int64)
    losers = np.sort(nodes[nodes != labels])
    losers_ref = ray.put(losers)

    def keep(t: pa.Table) -> pa.Table:
        lo = ray.get(losers_ref)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        # sorted-array membership: one vectorized searchsorted per batch
        pos = np.searchsorted(lo, ids)
        pos_c = np.minimum(pos, len(lo) - 1) if len(lo) else pos
        is_loser = (lo[pos_c] == ids) if len(lo) else np.zeros(len(ids), bool)
        return t.filter(pa.array(~is_loser))

    ds = storage.read_parquet_clean(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "source", "n_chars"],
    )
    return ds.map_batches(keep, batch_format="pyarrow")


def image_dhash_near_dups(images_path: str, max_hamming: int = 7,
                          n_bands: int = 8) -> pd.DataFrame:
    """Near-duplicate IMAGE pairs by DIFFERENCE hash — the gradient
    perceptual-hash family alongside ``phash_near_dups`` (running both
    catches crops/re-encodes either alone misses).  Decode + dhash run on
    the same actor-pool stage (one decode serves phash and dhash), then the
    banded-pigeonhole coarse-partition join.  SQL-oracled from the truth
    sidecar's stored per-image dhash (the engine recomputes it from the
    payload bytes — independent paths)."""
    from .multimodal import image_stats

    sigs = image_stats(images_path).map_batches(
        lambda t: pa.table({"image_id": t.column("image_id"),
                            "simhash": t.column("dhash")}),
        batch_format="pyarrow",
    )
    return _banded_hamming_pairs(
        sigs, "image_id", n_bands, max_hamming, "img_a", "img_b", pa.string()
    )


def decontaminate_fuzzy(sf_dir: str, threshold: float = 0.5) -> pd.DataFrame:
    """FUZZY benchmark decontamination — flag training docs whose MinHash
    3-gram Jaccard against ANY eval doc reaches ``threshold`` (the near-dup
    upgrade of ``textstats.decontaminate``'s exact n-gram rule; eval slice =
    doc_id % 97 == 0, as there).

    Scale shape: the eval side is SMALL by construction, so ONE filtered
    streaming pass builds its banded minhash keys and 3-gram shingle sets
    and broadcasts both via ``ray.put``; the training corpus then streams
    through ONE map_batches that signs each batch (the same vectorized
    ``minhash_signatures_batch`` the LSH pipeline uses), probes the
    broadcast (band_id, band_hash) index, and verifies candidates against
    the broadcast eval shingle sets — ZERO shuffles, driver memory
    O(eval set + hits).  Oracle: the ``minhash_lsh_pairs`` SQL replay
    restricted to train x eval pairs."""
    import ray

    from .. import storage
    from ..functions import hashing as _h

    a, b = _h.minhash_params(_MH_K)
    rows_per_band = _MH_K // _MH_BANDS

    def _grams(text: str) -> set[str]:
        w = text.split(" ")
        return {" ".join(w[j:j + 3]) for j in range(max(1, len(w) - 2))}

    def _band_hashes(texts: list[str]) -> np.ndarray:
        sigs = _h.minhash_signatures_batch(
            [_h.shingle_hashes(x, 3) for x in texts], a, b
        )
        chunks = sigs.reshape(len(texts) * _MH_BANDS, rows_per_band)
        return np.fromiter(
            (int.from_bytes(hashlib.blake2b(c.tobytes(), digest_size=8).digest(), "big")
             for c in chunks),
            dtype=np.uint64, count=len(texts) * _MH_BANDS,
        ).reshape(len(texts), _MH_BANDS)

    def eval_side(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        m = ids % 97 == 0
        ids = ids[m]
        texts = [x for x, keep in zip(t.column("text").to_pylist(), m) if keep]
        bh = _band_hashes(texts) if len(texts) else np.empty((0, _MH_BANDS), np.uint64)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "bands": pa.array([[int(v) for v in row] for row in bh],
                              pa.list_(pa.uint64(), _MH_BANDS)),
            "shingles": pa.array([sorted(_grams(x)) for x in texts],
                                 pa.list_(pa.string())),
        })

    ev = (
        storage.read_parquet_clean(f"{sf_dir}/documents.parquet",
                                   columns=["doc_id", "text"])
        .map_batches(eval_side, batch_format="pyarrow")
        .to_pandas()  # eval slice: small by construction
    )
    band_idx: dict[tuple[int, int], list[int]] = {}
    for did, bands in zip(ev["doc_id"], ev["bands"]):
        for band_id, bh in enumerate(bands):
            band_idx.setdefault((band_id, int(bh)), []).append(int(did))
    ev_sh = {int(d): set(s) for d, s in zip(ev["doc_id"], ev["shingles"])}
    idx_ref = ray.put((band_idx, ev_sh))

    def probe(t: pa.Table) -> pa.Table:
        bidx, esh = ray.get(idx_ref)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        m = ids % 97 != 0
        tids = ids[m]
        texts = [x for x, keep in zip(t.column("text").to_pylist(), m) if keep]
        out_d, out_e, out_j = [], [], []
        if len(texts):
            bh = _band_hashes(texts)
            for i, did in enumerate(tids):
                cands: set[int] = set()
                for band_id in range(_MH_BANDS):
                    cands.update(bidx.get((band_id, int(bh[i, band_id])), ()))
                if not cands:
                    continue
                g = _grams(texts[i])
                for e in sorted(cands):
                    j = len(g & esh[e]) / max(1, len(g | esh[e]))
                    if j >= threshold:
                        out_d.append(int(did))
                        out_e.append(e)
                        out_j.append(j)
        return pa.table({
            "doc_id": pa.array(out_d, pa.int64()),
            "eval_id": pa.array(out_e, pa.int64()),
            "jaccard": pa.array(out_j, pa.float64()),
        })

    out = (
        storage.read_parquet_clean(f"{sf_dir}/documents.parquet",
                                   columns=["doc_id", "text"])
        .map_batches(probe, batch_format="pyarrow")
        .to_pandas()
    )
    if out.empty:  # all-empty blocks lose the schema through to_pandas
        out = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                            "eval_id": pd.Series([], dtype="int64"),
                            "jaccard": pd.Series([], dtype="float64")})
    return out.sort_values(["doc_id", "eval_id"]).reset_index(drop=True)


# --------------------------------------------------------------------------
# Blocked edit-distance similarity join (vectorized Levenshtein)
# --------------------------------------------------------------------------

def _lev_batch(a_list: list[str], b_list: list[str]) -> np.ndarray:
    """Levenshtein distance for MANY string pairs at once: one shared DP
    sweep where every cell update is an O(n_pairs) numpy op, so total work
    is O(Lmax² numpy kernels), never a per-pair Python DP.  Cell (i, j)
    only reads chars < i / < j, so padding never contaminates a pair's
    answer at its own (len_a, len_b) cell — captured as row i completes."""
    n = len(a_list)
    if n == 0:
        return np.empty(0, np.int64)
    la = np.array([len(s) for s in a_list], np.int64)
    lb = np.array([len(s) for s in b_list], np.int64)
    La, Lb = int(la.max()), int(lb.max())
    A = np.zeros((n, max(La, 1)), np.int32)
    B = np.zeros((n, max(Lb, 1)), np.int32)
    for r, s in enumerate(a_list):
        A[r, : len(s)] = [ord(c) for c in s]
    for r, s in enumerate(b_list):
        B[r, : len(s)] = [ord(c) for c in s]
    prev = np.tile(np.arange(Lb + 1, dtype=np.int32), (n, 1))
    res = np.where(la == 0, lb, 0).astype(np.int64)
    for i in range(1, La + 1):
        sub = (A[:, i - 1 : i] != B[:, :Lb]).astype(np.int32)
        cur = np.empty_like(prev)
        cur[:, 0] = i
        for j in range(1, Lb + 1):
            cur[:, j] = np.minimum(
                np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1),
                prev[:, j - 1] + sub[:, j - 1],
            )
        hit = la == i
        if hit.any():
            res[hit] = cur[hit, lb[hit]]
        prev = cur
    return res


def fuzzy_name_pairs(sf_dir: str, max_dist: int = 2,
                     partitions: int = _PAIR_PARTITIONS) -> pd.DataFrame:
    """Edit-distance similarity join over part names: pairs with the same
    last name token (the blocking key), DIFFERENT names, and Levenshtein
    distance ≤ ``max_dist`` — the M31 edit-distance primitive
    (functions/texttools.py; reference uses it for title near-match) lifted
    to a distributed join.  SQL-oracled via DuckDB ``levenshtein``.

    Scale shape: one coarse shuffle on hash(block) % P; inside each
    partition the DP runs over DISTINCT (name_a, name_b) pairs only —
    bounded by the name vocabulary², not by row count — via run-expansion
    (repeat/arange) over unique names, one shared vectorized DP sweep
    (``_lev_batch``), then a domain-bounded expansion back to key pairs.
    Hot-block O(vocab²) caveat is inherent to the predicate (blocking is
    part of the op's contract, as in ``ngram_jaccard_pairs``)."""
    from .. import storage

    ds = storage.read_parquet_clean(f"{sf_dir}/part.parquet",
                                    columns=["p_partkey", "p_name"])

    def block_rows(t: pa.Table) -> pa.Table:
        names = t.column("p_name").to_pylist()
        blk = [s.rsplit(" ", 1)[-1] for s in names]
        return pa.table({
            "blk_crc": pa.array([zlib.crc32(b.encode()) for b in blk], pa.uint32()),
            "blk": pa.array(blk, pa.string()),
            "p_partkey": t.column("p_partkey"),
            "p_name": pa.array(names, pa.string()),
        })

    def part_pairs(g: pa.Table) -> pa.Table:
        keys = g.column("p_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        names = np.asarray(g.column("p_name").to_pylist(), dtype=object)
        blks = np.asarray(g.column("blk").to_pylist(), dtype=object)
        order = np.lexsort((keys, names, blks))
        keys, names, blks = keys[order], names[order], blks[order]
        # distinct (blk, name) runs, with each run's key slice
        new_name = np.ones(keys.size, dtype=bool)
        new_name[1:] = (names[1:] != names[:-1]) | (blks[1:] != blks[:-1])
        starts = np.nonzero(new_name)[0]
        ends = np.append(starts[1:], keys.size)
        u_names, u_blks = names[starts], blks[starts]
        new_blk = np.ones(u_names.size, dtype=bool)
        new_blk[1:] = u_blks[1:] != u_blks[:-1]
        I, J = _expand_run_pairs(new_blk)  # distinct-name pairs within block
        if I.size:
            pre = np.abs(
                np.array([len(s) for s in u_names], np.int64)[I]
                - np.array([len(s) for s in u_names], np.int64)[J]
            ) <= max_dist
            I, J = I[pre], J[pre]
        out_a, out_b, out_na, out_nb, out_d = [], [], [], [], []
        if I.size:
            dist = _lev_batch(list(u_names[I]), list(u_names[J]))
            ok = (dist >= 1) & (dist <= max_dist)
            for i, j, d in zip(I[ok], J[ok], dist[ok]):  # ≤ vocab² iterations
                ka = keys[starts[i]: ends[i]]
                kb = keys[starts[j]: ends[j]]
                a = np.repeat(ka, kb.size)
                b = np.tile(kb, ka.size)
                lo, hi = np.minimum(a, b), np.maximum(a, b)
                na = np.where(a < b, u_names[i], u_names[j])
                nb = np.where(a < b, u_names[j], u_names[i])
                out_a.append(lo); out_b.append(hi)
                out_na.append(na); out_nb.append(nb)
                out_d.append(np.full(lo.size, d, np.int64))
        cat = (lambda xs, dt: np.concatenate(xs) if xs else np.empty(0, dt))
        return pa.table({
            "a_key": pa.array(cat(out_a, np.int64), pa.int64()),
            "b_key": pa.array(cat(out_b, np.int64), pa.int64()),
            "a_name": pa.array(cat(out_na, object).astype(str) if out_na else [], pa.string()),
            "b_name": pa.array(cat(out_nb, object).astype(str) if out_nb else [], pa.string()),
            "dist": pa.array(cat(out_d, np.int64), pa.int64()),
        })

    df = co_partition(ds.map_batches(block_rows, batch_format="pyarrow"), "blk_crc",
                      partitions, part_pairs).to_pandas()
    if df.empty:
        return pd.DataFrame({
            "a_key": pd.Series([], dtype="int64"), "b_key": pd.Series([], dtype="int64"),
            "a_name": pd.Series([], dtype="str"), "b_name": pd.Series([], dtype="str"),
            "dist": pd.Series([], dtype="int64")})
    return df.sort_values(["a_key", "b_key"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# Prefix-filtered set-similarity join (PPJoin-lite)


def set_similarity_join(sf_dir: str, tau100: int = 50,
                        partitions: int = _PAIR_PARTITIONS) -> rd.Dataset:
    """Exact Jaccard set-similarity self-join over per-document distinct
    token sets via the prefix filter (Chaudhuri/Ganti/Kaushik SSJoin 2006;
    Bayardo/Ma/Srikant WWW'07; Xiao et al. WWW'08 PPJoin) — the
    data-independent scale path the blocked ``ngram_jaccard_pairs`` lacks:
    no O(block²) anywhere; candidate volume is bounded by prefix-token
    rarity, not by any data-dependent blocking key.

    Output: (doc_a, doc_b, inter_sz, union_sz) for every pair with
    ``100·|A∩B| ≥ tau100·|A∪B|`` — all-int64, bit-exact vs the SQL replay.

    Prefix filter: order every doc's tokens by GLOBAL rarity (df asc, hash
    asc); with prefix length ``p = s − ceil(τ·s) + 1`` (integer ceil:
    ``(tau100·s + 99)//100``), any two sets with Jaccard ≥ τ must share a
    PREFIX token — so only prefix rows enter candidate generation, and the
    rare-token buckets they form stay small by construction.

    Scale shape — six bounded shuffles, every kernel vectorized:
      1. tokenize (distinct md5-low64 hashes per doc, batch-local);
      2. df: partial counts per batch → ONE groupby(th);
      3. df attach: co-partitioned union+searchsorted merge on th % P
         (the q3 join shape — the df table scales with |vocab|, never
         broadcast);
      4. prefix pick: shuffle on doc % P, per-partition lexsort
         (doc, df, th) + run-position rank;
      5. candidates: shuffle prefix rows on th % P, run-expansion pair
         arithmetic (repeat/arange — NO per-bucket Python), global
         distinct by packed pair key;
      6. verify: candidates co-partition TWICE with the token table (on
         doc_a % P then doc_b % P) to expand each side's token list —
         volume = Σ(|A|+|B|) over candidates — then ONE pair % P shuffle
         counts (pair, th) duplicates by adjacency (each side is deduped,
         so a (pair, th) seen twice IS an intersection hit).
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Min, Sum

    docs = _docs(sf_dir)

    def tok_rows(t: pa.Table) -> pa.Table:
        ids, ths, sizes = [], [], []
        for did, text in zip(t.column("doc_id").to_pylist(),
                             t.column("text").to_pylist()):
            hs = np.unique(hashing.token_hashes(text))
            ids.append(np.full(hs.size, did, np.int64))
            ths.append(hs.view(np.int64))
            sizes.append(np.full(hs.size, hs.size, np.int64))
        return pa.table({
            "doc_id": pa.array(np.concatenate(ids) if ids else [], pa.int64()),
            "th": pa.array(np.concatenate(ths) if ths else [], pa.int64()),
            "s": pa.array(np.concatenate(sizes) if sizes else [], pa.int64()),
        })

    # toks feeds FOUR consumers (df, the df-attach union, and both verify
    # expansions); without pinning, Ray Data re-runs the tokenize lineage
    # per consumer — and the re-runs compound down the DAG.  The pinned set
    # is (doc_id, th, s) int64 rows ONLY (~24 B/token, no text) — a small,
    # spillable fraction of corpus bytes, the standard cache-the-tokenized-
    # corpus checkpoint, not a whole-input materialization.
    toks = docs.map_batches(tok_rows, batch_format="pyarrow").materialize()

    def df_partial(t: pa.Table) -> pa.Table:
        t2 = pa.table({"th": t["th"], "df": pa.array(np.ones(len(t), np.int64))})
        g = pa.TableGroupBy(t2, "th").aggregate([("df", "sum")])
        return pa.table({"th": g["th"], "df": pc.cast(g["df_sum"], pa.int64())})

    df = (toks.map_batches(df_partial, batch_format="pyarrow")
          .groupby("th").aggregate(Sum("df", alias_name="df")))

    def _th_mix(th: pa.ChunkedArray) -> pa.Array:
        """Partition key of a token hash: a multiplicative mix of its bits."""
        key = th.to_numpy().view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        return pa.array(key >> np.uint64(33))

    def df_tag(t: pa.Table) -> pa.Table:
        return pa.table({
            "th_mix": _th_mix(t["th"]),
            "th": t["th"], "df": t["df"],
            "doc_id": pa.nulls(len(t), pa.int64()),
            "s": pa.nulls(len(t), pa.int64()),
        })

    def tok_tag(t: pa.Table) -> pa.Table:
        return pa.table({
            "th_mix": _th_mix(t["th"]),
            "th": t["th"], "df": pa.nulls(len(t), pa.int64()),
            "doc_id": t["doc_id"], "s": t["s"],
        })

    def attach_df(g: pa.Table) -> pa.Table:
        doc = g.column("doc_id").to_numpy(zero_copy_only=False)
        is_df = pd.isna(doc)
        th = g.column("th").to_numpy(zero_copy_only=False).astype(np.int64)
        dfv = g.column("df").to_numpy(zero_copy_only=False)
        dth, dv = th[is_df], dfv[is_df].astype(np.int64)
        o = np.argsort(dth.view(np.uint64), kind="stable")
        dth, dv = dth[o], dv[o]
        eth = th[~is_df]
        idx = np.searchsorted(dth.view(np.uint64), eth.view(np.uint64))
        idx = np.clip(idx, 0, max(dth.size - 1, 0))
        got = dv[idx] if dth.size else np.zeros(eth.size, np.int64)
        return pa.table({
            "doc_id": pa.array(doc[~is_df].astype(np.int64), pa.int64()),
            "th": pa.array(eth, pa.int64()),
            "s": pa.array(g.column("s").to_numpy(zero_copy_only=False)[~is_df]
                          .astype(np.int64), pa.int64()),
            "df": pa.array(got, pa.int64()),
        })

    toks_df = co_partition([df.map_batches(df_tag, batch_format="pyarrow"),
                            toks.map_batches(tok_tag, batch_format="pyarrow")],
                           "th_mix", partitions, attach_df)

    def prefix_pick(g: pa.Table) -> pa.Table:
        doc = g.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        th = g.column("th").to_numpy(zero_copy_only=False).astype(np.int64)
        s = g.column("s").to_numpy(zero_copy_only=False).astype(np.int64)
        dfv = g.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((th.view(np.uint64), dfv, doc))
        doc, th, s = doc[order], th[order], s[order]
        n = doc.size
        new = np.ones(n, dtype=bool)
        new[1:] = doc[1:] != doc[:-1]
        seg_start = np.maximum.accumulate(np.where(new, np.arange(n), 0))
        rn = np.arange(n) - seg_start + 1
        p = s - (tau100 * s + 99) // 100 + 1
        keep = rn <= p
        return pa.table({
            "doc_id": pa.array(doc[keep], pa.int64()),
            "th": pa.array(th[keep], pa.int64()),
            "s": pa.array(s[keep], pa.int64()),
        })

    prefixes = co_partition(toks_df, "doc_id", partitions, prefix_pick)

    _PACK = np.int64(1) << 32

    def pfx_tag(t: pa.Table) -> pa.Table:
        return t.append_column("th_mix", _th_mix(t["th"]))

    def cand_pairs(g: pa.Table) -> pa.Table:
        th = g.column("th").to_numpy(zero_copy_only=False).astype(np.int64)
        doc = g.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        s = g.column("s").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((doc, th.view(np.uint64)))
        th, doc, s = th[order], doc[order], s[order]
        n = th.size
        empty = pa.table({"pair": pa.array([], pa.int64()),
                          "sa": pa.array([], pa.int64()),
                          "sb": pa.array([], pa.int64())})
        if n == 0:
            return empty
        new = np.ones(n, dtype=bool)
        new[1:] = th[1:] != th[:-1]
        seg_start = np.maximum.accumulate(np.where(new, np.arange(n), 0))
        counts = np.diff(np.append(np.nonzero(new)[0], n))
        seg_len = np.repeat(counts, counts)
        pos = np.arange(n) - seg_start
        rep = seg_len - 1 - pos
        total = int(rep.sum())
        if total == 0:
            return empty
        starts = np.cumsum(rep) - rep
        off = np.arange(total, dtype=np.int64) - np.repeat(starts, rep) + 1
        a_idx = np.repeat(np.arange(n), rep)
        b_idx = a_idx + off
        da, db, sa, sb = doc[a_idx], doc[b_idx], s[a_idx], s[b_idx]
        flip = db < da
        da2 = np.where(flip, db, da)
        db2 = np.where(flip, da, db)
        sa2 = np.where(flip, sb, sa)
        sb2 = np.where(flip, sa, sb)
        pair = da2 * _PACK + db2
        u, first = np.unique(pair, return_index=True)
        return pa.table({
            "pair": pa.array(u, pa.int64()),
            "sa": pa.array(sa2[first], pa.int64()),
            "sb": pa.array(sb2[first], pa.int64()),
        })

    cands = (
        co_partition(prefixes.map_batches(pfx_tag, batch_format="pyarrow"), "th_mix",
                     partitions, cand_pairs)
        .groupby("pair").aggregate(Min("sa", alias_name="sa"),
                                   Min("sb", alias_name="sb"))
        .materialize()  # three consumers (two expansions + meta); pair rows only
    )

    def _expand_side(side: str):
        def cand_tag(t: pa.Table) -> pa.Table:
            pair = t.column("pair").to_numpy(zero_copy_only=False).astype(np.int64)
            key = pair // _PACK if side == "a" else pair % _PACK
            return pa.table({
                "key": pa.array(key, pa.int64()),
                "pair": t["pair"],
                "th": pa.nulls(len(t), pa.int64()),
            })
        return cand_tag

    def tok_key_tag(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": t["doc_id"],
            "pair": pa.nulls(len(t), pa.int64()),
            "th": t["th"],
        })

    def expand(g: pa.Table) -> pa.Table:
        pairc = g.column("pair").to_numpy(zero_copy_only=False)
        is_cand = pd.notna(pairc)
        key = g.column("key").to_numpy(zero_copy_only=False).astype(np.int64)
        th = g.column("th").to_numpy(zero_copy_only=False)
        tk, tt = key[~is_cand], th[~is_cand].astype(np.int64)
        o = np.argsort(tk, kind="stable")
        tk, tt = tk[o], tt[o]
        ck, cp = key[is_cand], pairc[is_cand].astype(np.int64)
        lo = np.searchsorted(tk, ck, "left")
        hi = np.searchsorted(tk, ck, "right")
        rep = hi - lo
        total = int(rep.sum())
        starts = np.cumsum(rep) - rep
        off = np.arange(total, dtype=np.int64) - np.repeat(starts, rep)
        gather = np.repeat(lo, rep) + off
        return pa.table({
            "pair": pa.array(np.repeat(cp, rep), pa.int64()),
            "th": pa.array(tt[gather], pa.int64()),
        })

    side_a, side_b = (
        co_partition([cands.map_batches(_expand_side(side), batch_format="pyarrow"),
                      toks.map_batches(tok_key_tag, batch_format="pyarrow")],
                     "key", partitions, expand)
        for side in "ab")

    def match_tag(t: pa.Table) -> pa.Table:
        return pa.table({
            "pair": t["pair"], "th": t["th"],
            "sa": pa.nulls(len(t), pa.int64()),
            "sb": pa.nulls(len(t), pa.int64()),
        })

    def meta_tag(t: pa.Table) -> pa.Table:
        return pa.table({
            "pair": t["pair"], "th": pa.nulls(len(t), pa.int64()),
            "sa": t["sa"], "sb": t["sb"],
        })

    def verify(g: pa.Table) -> pa.Table:
        sa_col = g.column("sa").to_numpy(zero_copy_only=False)
        is_meta = pd.notna(sa_col)
        pair = g.column("pair").to_numpy(zero_copy_only=False).astype(np.int64)
        th = g.column("th").to_numpy(zero_copy_only=False)
        mp = pair[is_meta]
        msa = sa_col[is_meta].astype(np.int64)
        msb = g.column("sb").to_numpy(zero_copy_only=False)[is_meta].astype(np.int64)
        o = np.argsort(mp, kind="stable")
        mp, msa, msb = mp[o], msa[o], msb[o]
        tp, tt = pair[~is_meta], th[~is_meta].astype(np.int64)
        order = np.lexsort((tt.view(np.uint64), tp))
        tp, tt = tp[order], tt[order]
        dup = np.zeros(tp.size, dtype=bool)
        if tp.size:
            dup[1:] = (tp[1:] == tp[:-1]) & (tt[1:] == tt[:-1])
        hit_pairs = tp[dup]
        up, inter = np.unique(hit_pairs, return_counts=True)
        idx = np.searchsorted(mp, up)
        sa, sb = msa[idx], msb[idx]
        inter = inter.astype(np.int64)
        uni = sa + sb - inter
        keep = 100 * inter >= tau100 * uni
        return pa.table({
            "doc_a": pa.array(up[keep] // _PACK, pa.int64()),
            "doc_b": pa.array(up[keep] % _PACK, pa.int64()),
            "inter_sz": pa.array(inter[keep], pa.int64()),
            "union_sz": pa.array(uni[keep], pa.int64()),
        })

    return co_partition([side_a.union(side_b).map_batches(match_tag, batch_format="pyarrow"),
                         cands.map_batches(meta_tag, batch_format="pyarrow")],
                        "pair", partitions, verify)


# ---------------------------------------------------------------------------
# Snapshot reconciliation (incremental-crawl delta)


def snapshot_delta(sf_dir: str, partitions: int = _PAIR_PARTITIONS) -> rd.Dataset:
    """Incremental-crawl reconciliation: diff two corpus snapshots by
    content hash — added / removed / changed doc ids (the re-crawl
    scheduling input; reference analog: the detail pre-check + content-seen
    probes of DaoXlegalLawContentRecord:98-101 applied across crawl runs).

    The snapshots are deterministic slices of the documents table (old:
    ``doc_id % 10 < 8``; new: ``doc_id % 10 >= 1``, with docs divisible by
    7 carrying a simulated edit), so the oracle replays the same FULL OUTER
    JOIN literally.  Scale shape: only (doc_id, md5) rows shuffle — ONE
    co-partitioned union on ``doc_id % P``, then a vectorized sorted-run
    classification inside each partition; text bytes never leave the
    hashing stage."""
    import hashlib as _hl

    import pyarrow.compute as pc

    from .. import storage

    docs = storage.read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def _hash_rows(t: pa.Table, new_side: bool) -> pa.Table:
        did = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = (did % 10 >= 1) if new_side else (did % 10 < 8)
        t = t.filter(pa.array(keep))
        did = did[keep]
        hs = []
        for d, text in zip(did, t.column("text").to_pylist()):
            s = text + " rev2" if (new_side and d % 7 == 0) else text
            hs.append(_hl.md5(s.encode("utf-8", "surrogatepass")).hexdigest())
        return pa.table({
            "doc_id": pa.array(did, pa.int64()),
            "h": pa.array(hs, pa.string()),
            "is_new": pa.array(np.full(did.size, new_side), pa.bool_()),
        })

    old = docs.map_batches(lambda t: _hash_rows(t, False), batch_format="pyarrow")
    new = docs.map_batches(lambda t: _hash_rows(t, True), batch_format="pyarrow")

    def classify(g: pa.Table) -> pa.Table:
        did = g.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        is_new = g.column("is_new").to_numpy(zero_copy_only=False)
        h = np.asarray(g.column("h").to_pylist(), dtype=object)
        order = np.lexsort((is_new, did))
        did, is_new, h = did[order], is_new[order], h[order]
        n = did.size
        # adjacent rows with equal doc_id are an (old, new) pair
        pairk = (did[1:] == did[:-1]) if n > 1 else np.zeros(0, dtype=bool)
        both = np.zeros(n, dtype=bool)
        both[1:] |= pairk
        both[:-1] |= pairk
        added = ~both & is_new
        removed = ~both & ~is_new
        changed_head = np.zeros(n, dtype=bool)
        changed_head[:-1] = pairk & (h[1:] != h[:-1])
        ids = np.concatenate([did[added], did[removed], did[changed_head]])
        status = (["added"] * int(added.sum())
                  + ["removed"] * int(removed.sum())
                  + ["changed"] * int(changed_head.sum()))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "status": pa.array(status, pa.string()),
        })

    return co_partition([old, new], "doc_id", partitions, classify)


def image_dhash_topk(images_path: str, k: int = 3, max_hamming: int = 7,
                     n_bands: int = 8) -> pd.DataFrame:
    """Ranked near-image retrieval: for every image, its top-k closest
    neighbors by dhash hamming (≤ max_hamming; ties hamming asc → id asc)
    — the query-by-image face over the same banded candidate join as
    ``image_dhash_near_dups``.  The distributed part (decode, banding,
    pair verify) is identical; the final per-image rank runs driver-side
    over the CANDIDATE-BOUNDED pair list (pairs ≤ hamming 7 are a
    vanishing fraction of n², the accepted near-dup materialization)."""
    pairs = image_dhash_near_dups(images_path, max_hamming, n_bands)
    sym = pd.concat([
        pairs.rename(columns={"img_a": "image_id", "img_b": "other"}),
        pairs.rename(columns={"img_b": "image_id", "img_a": "other"}),
    ], ignore_index=True)[["image_id", "other", "hamming"]]
    sym = sym.sort_values(["image_id", "hamming", "other"]).reset_index(drop=True)
    rnk = sym.groupby("image_id").cumcount().to_numpy() + 1
    sym["rnk"] = rnk.astype(np.int64)
    return sym[sym["rnk"] <= k].reset_index(drop=True)
