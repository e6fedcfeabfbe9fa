"""Multimodal column operators — image/audio/video as opaque binary columns
with typed metadata, processed by actor-pool map_batches stages.

The container has no imaging/audio/video libraries, so the *codec* layer is
the deterministic stand-in from functions/imagecodec.py / avcodec.py (real
PIL / soundfile / pyav are picked up automatically when present) — the
Ray-side plumbing (schemas, actor signatures, batch sizing for wide binary
rows, one-row-per-frame output layout) and the feature math (numpy DSP,
frame sampling) are real and tested, per the build brief.

Batch-size note: image rows are wide (binary payload). Stages here default to
small batch_size so batch × concurrency stays inside a worker heap; callers
tune per payload size."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..copartition import co_partition
from ..functions import avcodec, hashing, imagecodec


def _payload_views(col) -> list:
    """Zero-copy per-row views of a binary column (memoryview over the
    Arrow buffer; None for nulls) — the payload never round-trips through
    Python bytes on the decode hot path."""
    return [memoryview(s.as_buffer()) if s.is_valid else None for s in col]


class ImageDecodeStats:
    """Actor-pool stage: decode → per-image stats (mean RGB, recomputed
    phash).  ``__init__`` is where a real pipeline loads its codec/model
    once per actor."""

    def __init__(self):
        self.decode = imagecodec.decode  # real-codec swap point (PIL if present)

    def __call__(self, t: pa.Table) -> pa.Table:
        means, phashes, dhashes, hists, ok = [], [], [], [], []
        for blob in _payload_views(t.column("bytes")):
            try:
                px = self.decode(blob)
                means.append([float(m) for m in px.reshape(-1, 3).mean(axis=0)])
                phashes.append(hashing.phash64(px))
                dhashes.append(hashing.dhash64(px))
                hists.append([int(v) for v in hashing.hist16(px)])
                ok.append(True)
            except imagecodec.CodecError:
                means.append([0.0, 0.0, 0.0])
                phashes.append(0)
                dhashes.append(0)
                hists.append([0] * 16)
                ok.append(False)
        return pa.table(
            {
                "image_id": t.column("image_id"),
                "mean_rgb": pa.array(means, pa.list_(pa.float64(), 3)),
                "phash": pa.array(phashes, pa.int64()),
                "dhash": pa.array(dhashes, pa.int64()),
                "hist16": pa.array(hists, pa.list_(pa.int64(), 16)),
                "decoded": pa.array(ok, pa.bool_()),
            }
        )


class ImageResize:
    """Actor-pool stage: mean-pool resize to (side × side), re-encode in the
    original format.  Output keeps the IMAGES payload shape."""

    def __init__(self, side: int = 64):
        self.side = side

    def __call__(self, t: pa.Table) -> pa.Table:
        blobs, ws, hs = [], [], []
        for blob, fmt in zip(_payload_views(t.column("bytes")), t.column("fmt").to_pylist()):
            px = imagecodec.decode(blob)
            gray_rgb = np.stack(
                [_pool(px[:, :, c], self.side) for c in range(3)], axis=2
            ).astype(np.uint8)
            blobs.append(imagecodec.encode(gray_rgb, fmt))
            hs.append(self.side)
            ws.append(self.side)
        return pa.table(
            {
                "image_id": t.column("image_id"),
                "bytes": pa.array(blobs, pa.binary()),
                "w": pa.array(ws, pa.int32()),
                "h": pa.array(hs, pa.int32()),
                "fmt": t.column("fmt"),
                "caption": t.column("caption"),
            }
        )


def _pool(chan: np.ndarray, side: int) -> np.ndarray:
    from ..functions.hashing import _mean_pool

    return np.clip(_mean_pool(chan, side), 0, 255)


class AudioFeatures:
    """Actor-pool stage: decode → per-clip DSP features.  The decode step is
    the swap point (avcodec falls through to ``soundfile`` when present); the
    features are real numpy DSP over the decoded PCM: duration, RMS level,
    zero-crossing rate, and ``n_bands`` log-energy spectrum bands (the
    mel-filterbank shape without the mel warp — no audio lib needed)."""

    def __init__(self, n_bands: int = 8):
        self.decode = avcodec.decode_audio  # real-codec swap point
        self.n_bands = n_bands

    def _bands(self, pcm: np.ndarray) -> list[float]:
        spec = np.abs(np.fft.rfft(pcm.astype(np.float64))) ** 2
        edges = np.linspace(0, len(spec), self.n_bands + 1).astype(np.int64)
        return [
            float(np.log1p(spec[lo:hi].sum())) for lo, hi in zip(edges[:-1], edges[1:])
        ]

    def __call__(self, t: pa.Table) -> pa.Table:
        srs, durs, rms, zcr, bands, ok = [], [], [], [], [], []
        for blob in _payload_views(t.column("bytes")):
            try:
                pcm, sr = self.decode(blob)
                x = pcm.astype(np.float64) / 32768.0
                srs.append(sr)
                durs.append(len(pcm) / sr)
                rms.append(float(np.sqrt(np.mean(x * x))) if len(x) else 0.0)
                zcr.append(float(np.mean(np.diff(np.signbit(x)) != 0)) if len(x) > 1 else 0.0)
                bands.append(self._bands(pcm))
                ok.append(True)
            except avcodec.CodecError:
                srs.append(0)
                durs.append(0.0)
                rms.append(0.0)
                zcr.append(0.0)
                bands.append([0.0] * self.n_bands)
                ok.append(False)
        return pa.table(
            {
                "clip_id": t.column("clip_id"),
                "sr": pa.array(srs, pa.int32()),
                "duration_s": pa.array(durs, pa.float64()),
                "rms": pa.array(rms, pa.float64()),
                "zcr": pa.array(zcr, pa.float64()),
                "spec_bands": pa.array(bands, pa.list_(pa.float64(), self.n_bands)),
                "decoded": pa.array(ok, pa.bool_()),
            }
        )


class VideoFrameSample:
    """Actor-pool stage: decode → sample every ``every_n``-th frame → ONE ROW
    PER FRAME (map_batches legitimately returns more rows than it gets).
    Sampled frames re-encode through the image codec so the output rows have
    the IMAGES payload shape and flow into the image stages unchanged."""

    def __init__(self, every_n: int = 4, fmt: str = "png"):
        self.decode = avcodec.decode_video  # real-codec swap point
        self.every_n = every_n
        self.fmt = fmt

    def __call__(self, t: pa.Table) -> pa.Table:
        vids, idxs, ts, blobs, ws, hs = [], [], [], [], [], []
        for vid, blob in zip(t.column("video_id").to_pylist(), _payload_views(t.column("bytes"))):
            frames, fps = self.decode(blob)
            for i in range(0, len(frames), self.every_n):
                vids.append(vid)
                idxs.append(i)
                ts.append(int(i * 1000 / fps) if fps else 0)
                blobs.append(imagecodec.encode(frames[i], self.fmt))
                hs.append(frames.shape[1])
                ws.append(frames.shape[2])
        return pa.table(
            {
                "video_id": pa.array(vids, pa.string()),
                "frame_idx": pa.array(idxs, pa.int32()),
                "ts_ms": pa.array(ts, pa.int64()),
                "bytes": pa.array(blobs, pa.binary()),
                "w": pa.array(ws, pa.int32()),
                "h": pa.array(hs, pa.int32()),
            }
        )


_DEDUP_PARTITIONS = 32  # coarse shuffle width for the keep-first stages


def _keep_first(
    ds: rd.Dataset, key_cols: list[str], id_col: str
) -> pd.DataFrame:
    """Keep-first dedup over (key_cols → min id) with ONE coarse shuffle:
    rows carry ``key_crc`` (a crc32 of the key), co-partitioned mod
    _DEDUP_PARTITIONS; within each partition a lexsort groups equal keys into runs, the run
    head is the keeper and the run length the copy count — no per-key
    Python, and only (key, id) rows ever shuffle, never payload bytes."""

    def runs(g: pd.DataFrame) -> pa.Table:
        if g.empty:
            return pa.table(
                {c: pa.array([], pa.string()) for c in key_cols}
                | {"keeper": pa.array([], pa.string()),
                   "n_copies": pa.array([], pa.int64())}
            )
        keys = [g[c].to_numpy().astype(str) for c in key_cols]
        ids = g[id_col].to_numpy().astype(str)
        order = np.lexsort(tuple([ids] + keys[::-1]))
        keys = [k[order] for k in keys]
        ids = ids[order]
        new_run = np.zeros(len(ids), dtype=bool)
        new_run[0] = True
        for k in keys:
            new_run[1:] |= k[1:] != k[:-1]
        starts = np.flatnonzero(new_run)
        counts = np.diff(np.append(starts, len(ids)))
        return pa.table(
            {c: pa.array(k[starts], pa.string()) for c, k in zip(key_cols, keys)}
            | {"keeper": pa.array(ids[starts], pa.string()),
               "n_copies": pa.array(counts.astype(np.int64))}
        )

    df = co_partition(ds, "key_crc", _DEDUP_PARTITIONS, runs,
                      batch_format="pandas").to_pandas()
    return df.sort_values(key_cols).reset_index(drop=True)


def image_dedup_exact(images_path: str) -> pd.DataFrame:
    """Exact image dedup by content hash — the first pass every image
    pipeline runs before the expensive perceptual passes.  Key = md5 of the
    lower-hex payload encoding (hex-then-md5 so DuckDB, whose ``md5`` only
    takes VARCHAR, can replay the key bit-exact); keeper = lexicographically
    first image_id; ``n_copies`` rides along for the dedup report.

    Scale shape: the payload never shuffles — each batch reduces to
    (key_crc, content_md5, image_id) rows (32-byte keys), one
    ``co_partition`` on crc32(key), keep-first by lexsort runs inside each
    partition."""
    import hashlib
    import zlib

    from .. import storage

    def keys(t: pa.Table) -> pa.Table:
        ks = [
            hashlib.md5(b.hex().encode()).hexdigest()
            for b in _payload_views(t.column("bytes"))
        ]
        return pa.table({
            "key_crc": pa.array([zlib.crc32(k.encode()) for k in ks], pa.uint32()),
            "content_md5": pa.array(ks, pa.string()),
            "image_id": t.column("image_id"),
        })

    ds = storage.read_parquet_clean(images_path, columns=["image_id", "bytes"])
    return _keep_first(
        ds.map_batches(keys, batch_format="pyarrow", batch_size=64),
        ["content_md5"], "image_id",
    )


def image_pair_dedup(images_path: str) -> pd.DataFrame:
    """Joint image+caption dedup (the LAION-style pair rule): two rows are
    the same training pair when their perceptual hash AND caption both
    match; keep the lexicographically first image_id per (phash, caption).
    The engine recomputes phash from the bytes (decode → phash64); the
    oracle replays the group over the fixture's stored phash column —
    independent paths to the same key."""
    import zlib

    from .. import storage

    def keys(t: pa.Table) -> pa.Table:
        ph = []
        for b in _payload_views(t.column("bytes")):
            ph.append(str(hashing.phash64(imagecodec.decode(b))))
        caps = t.column("caption").to_pylist()
        crc = [zlib.crc32(f"{p}|{c}".encode()) for p, c in zip(ph, caps)]
        return pa.table({
            "key_crc": pa.array(crc, pa.uint32()),
            "phash": pa.array(ph, pa.string()),
            "caption": t.column("caption"),
            "image_id": t.column("image_id"),
        })

    ds = storage.read_parquet_clean(
        images_path, columns=["image_id", "bytes", "caption"]
    )
    df = _keep_first(
        ds.map_batches(keys, batch_format="pyarrow", batch_size=64),
        ["phash", "caption"], "image_id",
    )
    df["phash"] = df["phash"].astype("int64")
    return df.sort_values(["phash", "caption"]).reset_index(drop=True)


def image_stats(images_path: str) -> rd.Dataset:
    from .. import storage

    ds = storage.read_parquet_clean(images_path, columns=["image_id", "bytes"])
    return ds.map_batches(
        ImageDecodeStats, batch_format="pyarrow", batch_size=64, concurrency=2, num_cpus=1
    )


def audio_features(audio_path: str, n_bands: int = 8) -> rd.Dataset:
    from .. import storage

    ds = storage.read_parquet_clean(audio_path, columns=["clip_id", "bytes"])
    return ds.map_batches(
        AudioFeatures,
        fn_constructor_kwargs={"n_bands": n_bands},
        batch_format="pyarrow",
        batch_size=64,
        concurrency=2,
        num_cpus=1,
    )


def video_frames(video_path: str, every_n: int = 4) -> rd.Dataset:
    from .. import storage

    ds = storage.read_parquet_clean(video_path, columns=["video_id", "bytes"])
    return ds.map_batches(
        VideoFrameSample,
        fn_constructor_kwargs={"every_n": every_n},
        batch_format="pyarrow",
        batch_size=16,  # frame fan-out widens rows ~len(frames)/every_n ×
        concurrency=2,
        num_cpus=1,
    )


def image_resize(images_path: str, side: int = 64) -> rd.Dataset:
    from .. import storage

    ds = storage.read_parquet_clean(images_path, columns=["image_id", "bytes", "fmt", "caption"])
    return ds.map_batches(
        ImageResize,
        fn_constructor_kwargs={"side": side},
        batch_format="pyarrow",
        batch_size=32,
        concurrency=2,
        num_cpus=1,
    )


# the SDXL-style aspect-ratio bucket grid (w/h targets, ascending)
_AR_BUCKETS = np.array(
    [0.25, 0.333333, 0.5, 0.666667, 0.75, 1.0, 1.333333, 1.5, 2.0, 3.0, 4.0]
)


class _DecodeDims:
    """Actor-pool stage: decode → true (w, h) from the pixel buffer — the
    engine never trusts stored metadata (the oracle replays over the
    fixture's stored w/h columns: independent paths to the same answer)."""

    def __init__(self):
        self.decode = imagecodec.decode  # real-codec swap point

    def dims(self, t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        ws, hs = [], []
        for blob in _payload_views(t.column("bytes")):
            px = self.decode(blob)
            hs.append(px.shape[0])
            ws.append(px.shape[1])
        return np.array(ws, dtype=np.int64), np.array(hs, dtype=np.int64)


class ImageAspectBucket(_DecodeDims):
    """Aspect-ratio bucketing (the batching trick of image-model training:
    group images into fixed aspect buckets so batches share a shape) —
    nearest bucket by |w/h - target|, ties to the smaller target."""

    def __call__(self, t: pa.Table) -> pa.Table:
        w, h = self.dims(t)
        ar = w.astype(np.float64) / h.astype(np.float64)
        # argmin over the ascending grid: first minimum == smaller target
        bucket = _AR_BUCKETS[np.abs(ar[:, None] - _AR_BUCKETS[None, :]).argmin(axis=1)]
        return pa.table({
            "image_id": t.column("image_id"),
            "w": pa.array(w), "h": pa.array(h),
            "bucket_ar": pa.array(bucket, pa.float64()),
        })


def image_aspect_buckets(images_path: str) -> rd.Dataset:
    """Per-image aspect bucket assignment over the payload table.  Pure
    map over an actor pool (codec bound once per actor), ZERO shuffles;
    payload bytes stay in the read stage's blocks."""
    from .. import storage

    ds = storage.read_parquet_clean(images_path, columns=["image_id", "bytes"])
    return ds.map_batches(ImageAspectBucket, concurrency=2, batch_size=64,
                          batch_format="pyarrow")


class ImageFilterGate(_DecodeDims):
    """LAION-style image+caption quality gate: drop tiny images, extreme
    aspect ratios, and captions that are too short/long to train on.
    Reasons are checked in a fixed priority order so every row gets ONE
    deterministic verdict (first failing rule wins)."""

    MIN_SIDE = 64
    MAX_AR = 3  # integer rule: w > 3h or h > 3w fails
    CAP_MIN, CAP_MAX = 3, 32

    def __call__(self, t: pa.Table) -> pa.Table:
        w, h = self.dims(t)
        caps = t.column("caption").to_pylist()
        ncap = np.array([len((c or "").split()) for c in caps], dtype=np.int64)
        reason = np.full(len(w), "ok", dtype=object)
        reason[ncap > self.CAP_MAX] = "caption_long"
        reason[ncap < self.CAP_MIN] = "caption_short"
        reason[(w > self.MAX_AR * h) | (h > self.MAX_AR * w)] = "bad_aspect"
        reason[np.minimum(w, h) < self.MIN_SIDE] = "too_small"
        return pa.table({
            "image_id": t.column("image_id"),
            "w": pa.array(w), "h": pa.array(h),
            "n_cap_tokens": pa.array(ncap),
            "keep": pa.array(reason == "ok"),
            "reason": pa.array(reason.astype(str), pa.string()),
        })


def image_filter_gate(images_path: str) -> rd.Dataset:
    """Per-image keep/drop verdicts with the failing rule.  Same shape as
    image_aspect_buckets: actor-pool map, zero shuffles."""
    from .. import storage

    ds = storage.read_parquet_clean(
        images_path, columns=["image_id", "bytes", "caption"]
    )
    return ds.map_batches(ImageFilterGate, concurrency=2, batch_size=64,
                          batch_format="pyarrow")


class ImageHistogram:
    """Actor-pool stage: decode → per-FORMAT 16-bin luminance histogram
    PARTIALS — one row per format per batch, already combined inside the
    batch, so the downstream groupby shuffles |fmts| × |batches| tiny rows
    instead of per-image vectors (the pricing_summary combiner pattern on
    the image axis).  Integer luminance binning (hashing.hist16) keeps the
    merge order-independent and bit-exact."""

    def __init__(self):
        self.decode = imagecodec.decode  # real-codec swap point

    def __call__(self, t: pa.Table) -> pa.Table:
        acc: dict[str, np.ndarray] = {}
        cnt: dict[str, int] = {}
        for blob, fmt in zip(_payload_views(t.column("bytes")), t.column("fmt").to_pylist()):
            try:
                h = hashing.hist16(self.decode(blob))
            except imagecodec.CodecError:
                continue
            if fmt in acc:
                acc[fmt] += h
                cnt[fmt] += 1
            else:
                acc[fmt] = h.copy()
                cnt[fmt] = 1
        fmts = sorted(acc)
        cols: dict[str, pa.Array] = {
            "fmt": pa.array(fmts, pa.string()),
            "n_img": pa.array([cnt[f] for f in fmts], pa.int64()),
        }
        for b in range(16):
            cols[f"px_{b:02d}"] = pa.array([int(acc[f][b]) for f in fmts], pa.int64())
        return pa.table(cols)


def image_histogram(images_path: str) -> rd.Dataset:
    """Corpus-level luminance histogram per image format — the
    exposure/quality profile a vision-data pipeline computes before
    filtering.  Decode + in-batch combine on the actor pool, then one tiny
    groupby over (|fmts| × |batches|) partial rows.  SQL-oracled from the
    per-image stored histograms (the engine recomputes them from bytes —
    independent paths)."""
    from ray.data.aggregate import Sum

    from .. import storage

    ds = storage.read_parquet_clean(images_path, columns=["bytes", "fmt"])
    parts = ds.map_batches(
        ImageHistogram, batch_format="pyarrow", batch_size=64, concurrency=2, num_cpus=1
    )
    aggs = [Sum("n_img")] + [Sum(f"px_{b:02d}") for b in range(16)]

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(
            [c[4:-1] if c.startswith("sum(") else c for c in t.column_names]
        )

    return parts.groupby("fmt").aggregate(*aggs).map_batches(
        rename, batch_format="pyarrow"
    )


def caption_lang_id(images_path: str) -> rd.Dataset:
    """Language id over the CAPTION column of the image table — the text
    stages composing over a multimodal table (caption routing/balancing is
    the first gate of an image-text curation pipeline).  Same heuristic and
    SQL replay as the documents-table ``lang_id``; zero shuffles."""
    from ..functions import texttools
    from .. import storage

    ds = storage.read_parquet_clean(images_path, columns=["image_id", "caption"])

    def f(t: pa.Table) -> pa.Table:
        out = [texttools.lang_id(x) for x in t.column("caption").to_pylist()]
        return pa.table({"image_id": t.column("image_id"),
                         "lang_pred": pa.array(out, pa.string())})

    return ds.map_batches(f, batch_format="pyarrow")


def image_meta_scan(images_path: str) -> rd.Dataset:
    """Header-only metadata scan — read each payload's 11-byte container
    header (magic + fmt + dims) WITHOUT decoding: the cheap first pass a
    100 TB image pipeline runs to route/filter before paying for decode
    (the real-codec analogue parses PNG IHDR / JPEG SOF markers the same
    way).  Payload sizes come from the Arrow offsets (``binary_length``,
    zero-copy) and only an 11-byte ``binary_slice`` per row materializes.
    SQL-oracled against the table's stored fmt/w/h metadata — independent
    paths (the engine trusts only the bytes)."""
    import pyarrow.compute as pc

    from .. import storage
    from ..functions.imagecodec import _CODE_FMT, _MAGIC

    def scan(t: pa.Table) -> pa.Table:
        blobs = t.column("bytes").combine_chunks()
        n_bytes = pc.cast(pc.binary_length(blobs), pa.int64())
        heads = pc.binary_slice(blobs, 0, 11).to_pylist()
        fmts, ws, hs, valid = [], [], [], []
        for hd in heads:
            if len(hd) >= 11 and hd[:2] == _MAGIC and hd[2:3] in _CODE_FMT:
                fmts.append(_CODE_FMT[hd[2:3]])
                hs.append(int.from_bytes(hd[3:7], "little"))
                ws.append(int.from_bytes(hd[7:11], "little"))
                valid.append(True)
            else:
                fmts.append("")
                hs.append(0)
                ws.append(0)
                valid.append(False)
        return pa.table({
            "image_id": t.column("image_id"),
            "fmt": pa.array(fmts, pa.string()),
            "w": pa.array(ws, pa.int64()),
            "h": pa.array(hs, pa.int64()),
            "n_bytes": n_bytes,
            "valid": pa.array(valid, pa.bool_()),
        })

    ds = storage.read_parquet_clean(images_path, columns=["image_id", "bytes"])
    return ds.map_batches(scan, batch_format="pyarrow", batch_size=256)


class ImageTilePlan(_DecodeDims):
    """Tile-grid planner: per image, the coordinate plan for TILE×TILE
    crops (edge tiles clipped) — the fan-out step before patch-level
    encoding at 100 TB.  Decode once per image in the actor pool, then the
    expansion is pure run-length arithmetic (repeat/arange — no Python loop
    over tiles); payload bytes never leave the stage."""

    TILE = 64

    def __call__(self, t: pa.Table) -> pa.Table:
        w, h = self.dims(t)
        T = self.TILE
        nx = -(-w // T)
        ny = -(-h // T)
        per_img = nx * ny
        row_idx = np.repeat(np.arange(len(t), dtype=np.int64), per_img)
        ids = t.column("image_id").take(pa.array(row_idx))
        wrep, hrep = np.repeat(w, per_img), np.repeat(h, per_img)
        nyrep = np.repeat(ny, per_img)
        # within-image tile index 0..nx*ny-1, laid out x-major (i = k // ny)
        starts = np.repeat(np.cumsum(per_img) - per_img, per_img)
        k = np.arange(per_img.sum(), dtype=np.int64) - starts
        i, j = k // nyrep, k % nyrep
        return pa.table({
            "image_id": ids,
            "tile_x": pa.array(i), "tile_y": pa.array(j),
            "x0": pa.array(i * T), "y0": pa.array(j * T),
            "tw": pa.array(np.minimum(T, wrep - i * T)),
            "th": pa.array(np.minimum(T, hrep - j * T)),
        })


def image_tile_plan(images_path: str) -> rd.Dataset:
    from .. import storage

    ds = storage.read_parquet_clean(images_path, columns=["image_id", "bytes"])
    return ds.map_batches(ImageTilePlan, concurrency=2, batch_size=64,
                          batch_format="pyarrow")


def image_zorder_keys(images_path: str) -> rd.Dataset:
    """Morton (z-order) locality keys over the image table's (w, h) dims —
    the space-filling-curve partitioning primitive: sorting or bucketing
    by ``zkey`` co-locates images of similar size so batch decode /
    resize stages see uniform shapes (padding waste and batch-size
    variance drop), and ``zpart`` (the top 8 bits) is a ready-made
    2-D-local partition id for the output layout.

    Pure per-batch Arrow→numpy bit arithmetic (16 bits of w interleaved
    with 16 bits of h), no shuffle, no state — the keys travel with the
    rows and any downstream repartition(zpart) gets the locality for
    free.  SQL-oracled by an unrolled bit-interleave expression."""
    from .. import storage

    ds = storage.read_parquet_clean(images_path, columns=["image_id", "w", "h"])

    def keys(t: pa.Table) -> pa.Table:
        w = t.column("w").to_numpy(zero_copy_only=False).astype(np.uint64)
        h = t.column("h").to_numpy(zero_copy_only=False).astype(np.uint64)
        z = np.zeros(w.size, np.uint64)
        for b in range(16):
            z |= ((w >> np.uint64(b)) & np.uint64(1)) << np.uint64(2 * b)
            z |= ((h >> np.uint64(b)) & np.uint64(1)) << np.uint64(2 * b + 1)
        return pa.table({
            "image_id": t.column("image_id"),
            "w": pa.array(w.astype(np.int64), pa.int64()),
            "h": pa.array(h.astype(np.int64), pa.int64()),
            "zkey": pa.array(z.astype(np.int64), pa.int64()),
            "zpart": pa.array((z >> np.uint64(24)).astype(np.int64), pa.int64()),
        })

    return ds.map_batches(keys, batch_format="pyarrow")


class VideoSceneCuts:
    """Actor-pool stage: decode → per-transition SAD (sum of |Δ| over every
    pixel and channel, exact int64) → cut flag at an integer threshold —
    the shot-boundary detector of a video curation pipeline (the reference's
    attachment pipeline never segments video; this is the training-data
    extension).  Codec binds once per actor; the frame-difference kernel is
    one vectorized numpy subtract per clip, never per-pixel Python."""

    def __init__(self, threshold: int = 15000):
        self.decode = avcodec.decode_video  # real-codec swap point
        self.threshold = threshold

    def __call__(self, t: pa.Table) -> pa.Table:
        vids, idxs, sads = [], [], []
        for vid, blob in zip(t.column("video_id").to_pylist(),
                             _payload_views(t.column("bytes"))):
            frames, _ = self.decode(blob)
            d = np.abs(
                frames[1:].astype(np.int32) - frames[:-1].astype(np.int32)
            ).reshape(len(frames) - 1, -1).sum(axis=1).astype(np.int64)
            vids.extend([vid] * d.size)
            idxs.extend(range(1, len(frames)))
            sads.extend(d.tolist())
        sad = np.asarray(sads, np.int64)
        return pa.table({
            "video_id": pa.array(vids, pa.string()),
            "frame_idx": pa.array(idxs, pa.int32()),
            "sad": pa.array(sad, pa.int64()),
            "is_cut": pa.array(sad >= self.threshold, pa.bool_()),
        })


def video_scene_cuts(video_path: str, threshold: int = 15000) -> rd.Dataset:
    from .. import storage

    ds = storage.read_parquet_clean(video_path, columns=["video_id", "bytes"])
    return ds.map_batches(
        VideoSceneCuts,
        fn_constructor_kwargs={"threshold": threshold},
        batch_format="pyarrow",
        batch_size=16,
        concurrency=2,
        num_cpus=1,
    )


def image_keep_best(images_path: str, partitions: int = 32) -> rd.Dataset:
    """Keep-best dedup over exact-phash duplicate groups: for each phash,
    keep the member with the most pixels (ties → smallest image_id) and
    report the group size — the canonical-representative step a curation
    pipeline runs after near-dup clustering (the reference keeps the
    first-seen content row, DaoXlegalLawContentRecord:98-101; keep-BEST is
    the training-data variant).

    Scale shape: the read prunes to 4 metadata columns (payload bytes
    never move), ONE coarse shuffle on phash % P co-locates each group,
    and the per-partition winner pick is a lexsort + run-boundary mask —
    no per-group Python.  SQL-oracled via a row_number window replay."""
    from .. import storage

    ds = storage.read_parquet_clean(
        images_path, columns=["image_id", "w", "h", "phash"])

    def best(g: pa.Table) -> pa.Table:
        ph = g.column("phash").to_numpy(zero_copy_only=False).astype(np.int64)
        w = g.column("w").to_numpy(zero_copy_only=False).astype(np.int64)
        h = g.column("h").to_numpy(zero_copy_only=False).astype(np.int64)
        ids = np.asarray(g.column("image_id").to_pylist(), dtype=str)
        px = w * h
        order = np.lexsort((ids, -px, ph))
        ph, w, h, ids = ph[order], w[order], h[order], ids[order]
        first = np.ones(len(ph), bool)
        first[1:] = ph[1:] != ph[:-1]
        # group size = distance to the next run start
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, len(ph)))
        return pa.table({
            "phash": pa.array(ph[first]),
            "image_id": pa.array(ids[first].tolist(), pa.string()),
            "w": pa.array(w[first]), "h": pa.array(h[first]),
            "n_dups": pa.array(sizes.astype(np.int64)),
        })

    return co_partition(ds, "phash", partitions, best)


def image_shard_plan(images_path: str, shard_bytes: int = 262144,
                     partitions: int = 32, zshift: int = 12) -> pd.DataFrame:
    """WebDataset-style shard layout: lay the image payloads end-to-end in
    z-order (similar-sized images co-located, see ``image_zorder_keys``)
    and cut shards at a byte budget — every image gets its global byte
    offset and shard id.

    Scale shape: the ``pack_sequences`` distributed prefix sum over a
    different ordering domain — pass 1 reduces to one row per coarse
    z-range (gid = zkey >> zshift; only group totals reach the driver),
    pass 2 is ONE coarse shuffle + segmented cumsum.  Payload bytes are
    sized via the Arrow buffer offsets (``binary_length`` — zero-copy, no
    decode) and never shuffle: the plan travels, the blobs stay put.
    SQL-oracled as a window running sum over (zkey, image_id) order."""
    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Sum

    from .. import storage

    ds = storage.read_parquet_clean(images_path, columns=["image_id", "w", "h", "bytes"])

    def sizes(t: pa.Table) -> pa.Table:
        w = t.column("w").to_numpy(zero_copy_only=False).astype(np.uint64)
        h = t.column("h").to_numpy(zero_copy_only=False).astype(np.uint64)
        z = np.zeros(w.size, np.uint64)
        for b in range(16):
            z |= ((w >> np.uint64(b)) & np.uint64(1)) << np.uint64(2 * b)
            z |= ((h >> np.uint64(b)) & np.uint64(1)) << np.uint64(2 * b + 1)
        zi = z.astype(np.int64)
        nb = pc.cast(pc.binary_length(t.column("bytes").combine_chunks()), pa.int64())
        gid = zi >> zshift
        return pa.table({
            "gid": pa.array(gid), "zkey": pa.array(zi),
            "image_id": t.column("image_id"), "nbytes": nb,
        })

    counts = ds.map_batches(sizes, batch_format="pyarrow")
    gt = counts.groupby("gid").aggregate(Sum("nbytes", alias_name="tot")).to_pandas()
    gt = gt.sort_values("gid").reset_index(drop=True)
    base = np.concatenate(([0], np.cumsum(gt["tot"].to_numpy(np.int64))[:-1]))
    base_ref = ray.put({int(g): int(b) for g, b in zip(gt["gid"].to_numpy(np.int64), base)})

    def assign(g: pa.Table) -> pa.Table:
        if len(g) == 0:
            return pa.table({
                "image_id": pa.array([], pa.string()),
                "zkey": pa.array([], pa.int64()),
                "nbytes": pa.array([], pa.int64()),
                "byte_offset": pa.array([], pa.int64()),
                "shard": pa.array([], pa.int64()),
            })
        bases = ray.get(base_ref)
        gid = g.column("gid").to_numpy(zero_copy_only=False).astype(np.int64)
        z = g.column("zkey").to_numpy(zero_copy_only=False).astype(np.int64)
        ids = np.asarray(g.column("image_id").to_pylist(), dtype=str)
        nb = g.column("nbytes").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, z, gid))
        gid, z, ids, nb = gid[order], z[order], ids[order], nb[order]
        csum = np.cumsum(nb) - nb
        new_run = np.ones(len(gid), bool)
        new_run[1:] = gid[1:] != gid[:-1]
        run_start = np.maximum.accumulate(np.where(new_run, csum, 0))
        off = np.array([bases[int(x)] for x in gid[new_run]], dtype=np.int64)
        run_id = np.cumsum(new_run) - 1
        byte_offset = off[run_id] + (csum - run_start)
        return pa.table({
            "image_id": pa.array(ids.tolist(), pa.string()),
            "zkey": pa.array(z), "nbytes": pa.array(nb),
            "byte_offset": pa.array(byte_offset),
            "shard": pa.array(byte_offset // shard_bytes),
        })

    df = co_partition(counts, "gid", partitions, assign).to_pandas()
    return df.sort_values(["zkey", "image_id"]).reset_index(drop=True)


def image_curate_manifest(images_path: str, shard_bytes: int = 262144,
                          partitions: int = 32, zshift: int = 12) -> pd.DataFrame:
    """The composed image-curation funnel — what a LAION-style pipeline
    actually ships: quality gate (``image_filter_gate`` rules) → exact
    content dedup (keep lexicographically-first per payload md5, the
    ``image_dedup_exact`` key) → perceptual keep-best (most pixels per
    phash group, the ``image_keep_best`` rule, group size reported as
    ``n_dups``) → WebDataset shard layout (``image_shard_plan``'s z-order
    running-byte cut), all in ONE dataflow.

    Scale shape: the payload bytes are touched once, inside the first
    map_batches (md5 + Arrow-offset sizing), and NEVER shuffle — every
    later stage moves only (id, dims, hash, nbytes) rows.  Three coarse
    hash shuffles (content-md5, phash, z-range), each followed by a
    lexsort-and-run-mask partition kernel — no per-group Python anywhere —
    and the only driver-sized structure is the per-z-range byte total
    (pass 1 of the distributed prefix sum).  SQL-oracled as the chained
    CTE funnel over the same fixture (stored dims + md5/window replay +
    unrolled bit-interleave + running-sum window)."""
    import hashlib
    import zlib

    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Sum

    from .. import storage

    ds = storage.read_parquet_clean(
        images_path,
        columns=["image_id", "bytes", "caption", "w", "h", "phash"],
    )

    min_side = ImageFilterGate.MIN_SIDE
    max_ar = ImageFilterGate.MAX_AR
    cap_min, cap_max = ImageFilterGate.CAP_MIN, ImageFilterGate.CAP_MAX

    def gate_and_key(t: pa.Table) -> pa.Table:
        w = t.column("w").to_numpy(zero_copy_only=False).astype(np.int64)
        h = t.column("h").to_numpy(zero_copy_only=False).astype(np.int64)
        ncap = np.array(
            [len((c or "").split()) for c in t.column("caption").to_pylist()],
            dtype=np.int64,
        )
        keep = (
            (np.minimum(w, h) >= min_side)
            & (w <= max_ar * h) & (h <= max_ar * w)
            & (ncap >= cap_min) & (ncap <= cap_max)
        )
        nb = pc.cast(pc.binary_length(t.column("bytes").combine_chunks()), pa.int64())
        md5s = [
            hashlib.md5(b.hex().encode()).hexdigest()
            for b in _payload_views(t.column("bytes"))
        ]
        out = pa.table({
            "md5_crc": pa.array([zlib.crc32(k.encode()) for k in md5s], pa.uint32()),
            "content_md5": pa.array(md5s, pa.string()),
            "image_id": t.column("image_id"),
            "w": pa.array(w), "h": pa.array(h),
            "phash": t.column("phash"),
            "nbytes": nb,
        })
        return out.filter(pa.array(keep))

    def exact_first(g: pa.Table) -> pa.Table:
        if len(g) == 0:
            return pa.table({
                "image_id": pa.array([], pa.string()),
                "w": pa.array([], pa.int64()), "h": pa.array([], pa.int64()),
                "phash": pa.array([], pa.int64()),
                "nbytes": pa.array([], pa.int64()),
            })
        keys = np.asarray(g.column("content_md5").to_pylist(), dtype=str)
        ids = np.asarray(g.column("image_id").to_pylist(), dtype=str)
        order = np.lexsort((ids, keys))
        first = np.zeros(len(ids), bool)
        first[0] = True
        first[1:] = keys[order][1:] != keys[order][:-1]
        pick = order[first]
        ph = g.column("phash").to_numpy(zero_copy_only=False).astype(np.int64)[pick]
        return pa.table({
            "image_id": pa.array(ids[pick].tolist(), pa.string()),
            "w": pa.array(g.column("w").to_numpy(zero_copy_only=False)[pick]),
            "h": pa.array(g.column("h").to_numpy(zero_copy_only=False)[pick]),
            "phash": pa.array(ph),
            "nbytes": pa.array(
                g.column("nbytes").to_numpy(zero_copy_only=False)[pick]),
        })

    def phash_best(g: pa.Table) -> pa.Table:
        if len(g) == 0:
            return pa.table({
                "image_id": pa.array([], pa.string()),
                "nbytes": pa.array([], pa.int64()),
                "n_dups": pa.array([], pa.int64()),
                "zkey": pa.array([], pa.int64()),
                "gid": pa.array([], pa.int64()),
            })
        ph = g.column("phash").to_numpy(zero_copy_only=False).astype(np.int64)
        w = g.column("w").to_numpy(zero_copy_only=False).astype(np.int64)
        h = g.column("h").to_numpy(zero_copy_only=False).astype(np.int64)
        ids = np.asarray(g.column("image_id").to_pylist(), dtype=str)
        nb = g.column("nbytes").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, -(w * h), ph))
        ph, w, h, ids, nb = ph[order], w[order], h[order], ids[order], nb[order]
        first = np.ones(len(ph), bool)
        first[1:] = ph[1:] != ph[:-1]
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, len(ph)))
        wu, hu = w[first].astype(np.uint64), h[first].astype(np.uint64)
        z = np.zeros(wu.size, np.uint64)
        for b in range(16):
            z |= ((wu >> np.uint64(b)) & np.uint64(1)) << np.uint64(2 * b)
            z |= ((hu >> np.uint64(b)) & np.uint64(1)) << np.uint64(2 * b + 1)
        zi = z.astype(np.int64)
        gid = zi >> zshift
        return pa.table({
            "image_id": pa.array(ids[first].tolist(), pa.string()),
            "nbytes": pa.array(nb[first]),
            "n_dups": pa.array(sizes.astype(np.int64)),
            "zkey": pa.array(zi),
            "gid": pa.array(gid),
        })

    firsts = co_partition(
        ds.map_batches(gate_and_key, batch_format="pyarrow", batch_size=64),
        "md5_crc", partitions, exact_first)
    # materialized: consumed twice (group totals + offset assignment)
    survivors = co_partition(firsts, "phash", partitions, phash_best).materialize()

    gt = survivors.groupby("gid").aggregate(Sum("nbytes", alias_name="tot")).to_pandas()
    gt = gt.sort_values("gid").reset_index(drop=True)
    base = np.concatenate(([0], np.cumsum(gt["tot"].to_numpy(np.int64))[:-1]))
    base_ref = ray.put(
        {int(g): int(b) for g, b in zip(gt["gid"].to_numpy(np.int64), base)})

    def assign(g: pa.Table) -> pa.Table:
        if len(g) == 0:
            return pa.table({
                "image_id": pa.array([], pa.string()),
                "zkey": pa.array([], pa.int64()),
                "nbytes": pa.array([], pa.int64()),
                "n_dups": pa.array([], pa.int64()),
                "byte_offset": pa.array([], pa.int64()),
                "shard": pa.array([], pa.int64()),
            })
        bases = ray.get(base_ref)
        gid = g.column("gid").to_numpy(zero_copy_only=False).astype(np.int64)
        z = g.column("zkey").to_numpy(zero_copy_only=False).astype(np.int64)
        ids = np.asarray(g.column("image_id").to_pylist(), dtype=str)
        nb = g.column("nbytes").to_numpy(zero_copy_only=False).astype(np.int64)
        nd = g.column("n_dups").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, z, gid))
        gid, z, ids, nb, nd = gid[order], z[order], ids[order], nb[order], nd[order]
        csum = np.cumsum(nb) - nb
        new_run = np.ones(len(gid), bool)
        new_run[1:] = gid[1:] != gid[:-1]
        run_start = np.maximum.accumulate(np.where(new_run, csum, 0))
        off = np.array([bases[int(x)] for x in gid[new_run]], dtype=np.int64)
        run_id = np.cumsum(new_run) - 1
        byte_offset = off[run_id] + (csum - run_start)
        return pa.table({
            "image_id": pa.array(ids.tolist(), pa.string()),
            "zkey": pa.array(z), "nbytes": pa.array(nb),
            "n_dups": pa.array(nd),
            "byte_offset": pa.array(byte_offset),
            "shard": pa.array(byte_offset // shard_bytes),
        })

    df = co_partition(survivors, "gid", partitions, assign).to_pandas()
    return df.sort_values(["zkey", "image_id"]).reset_index(drop=True)
