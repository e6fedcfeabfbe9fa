"""The content chain's round and block tasks on hand-built blocks:
``_image_dup_task`` (one per round) maps near-duplicate gate winners to
their earliest canonical image, and ``_finalize_block`` (one per fetched
block) writes the block's winning images with that map, the docs the J3
resolve keeps and the winning attachments."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from lightcrawler_ray.pipelines.crawl import (_IMG_META_SCHEMA, _finalize_block,
                                              _image_dup_task)
from lightcrawler_ray.stages.fetch import to_wire

_P = 0x1234_5678_9ABC_DEF0
_Q = 0x0F0F_F0F0_3C3C_C3C3
_R = 0x7777_1111_2222_8888


def _rows(*r: int) -> np.ndarray:
    return np.asarray(r, dtype=np.int64)


def _img_meta(seqs, ids, phashes) -> pa.Table:
    return pa.table({"enqueue_seq": seqs, "url_md5": [f"md5-{i}" for i in ids],
                     "image_id": ids, "phash": phashes}, schema=_IMG_META_SCHEMA)


def test_image_dup_task_maps_block_winners_to_the_earliest_canonical(ray_session):
    kc = 2
    block0 = _img_meta([0, 1], ["a0", "a1"], [_P, _Q])
    # b0 is 3 bits from a0; b1 IS a0's phash but lost the content gate;
    # b2 is far from everything
    block1 = _img_meta([5, 6, 7], ["b0", "b1", "b2"], [_P ^ 0b111, _P, _R])
    dup = ray.get(_image_dup_task.remote(
        kc, block0, _rows(0), _rows(1), block1, _rows(0), _rows(2)))
    assert dup == {"b0": "a0"}
    # no winners anywhere: nothing to annotate
    assert ray.get(_image_dup_task.remote(kc, block0, _rows(), _rows())) == {}


def test_finalize_block_writes_the_winners_of_each_kind(ray_session, tmp_path):
    kc = 2
    dirs = tuple(str(tmp_path / d) for d in ("images", "docs", "attachments"))
    for d in dirs:
        os.makedirs(d)
    images = pa.table({"image_id": ["i0", "i1", "i2"],
                       "bytes": pa.array([b"x0", b"x1", b"x2"], pa.binary()),
                       "enqueue_seq": pa.array([10, 11, 12], pa.int64())})
    docs = pa.table({"doc_id": ["d0", "d1", "d2", "d3"],
                     "doc_ori_no": ["", "No. 1", "", ""],
                     "enqueue_seq": pa.array([10, 11, 12, 13], pa.int64())})
    spill = tmp_path / "spilled.bin"
    spill.write_bytes(b"spilled payload")
    atts = pa.table({"url": ["u0", "u1", "u2", "u3"],
                     "tmp_path": ["", "", str(spill), ""],
                     "bytes": pa.array([b"a0", b"a1", None, b"a3"], pa.binary())})
    # docs 0-2 passed the doc_id and ori gates (doc 3 did not); doc 0 has a
    # band hit and no number, doc 1 a band hit and a number, doc 2 no hit
    doc_part = {"row": _rows(0, 1, 2), "override": np.array([False, True, False])}
    band_hits = [_rows(-1, -1, -1), _rows(4, 3, -1), _rows(-1, -1, -1), _rows(4, -1, -1)]
    n = ray.get(_finalize_block.remote(
        to_wire(images), to_wire(docs), to_wire(atts), {"i2": "i0"}, dirs, 3, kc, doc_part,
        _rows(0), _rows(2),        # image winners per content shard (i1 lost)
        _rows(2), _rows(0, 3),     # attachment winners per content shard
        *band_hits))
    assert n == 2
    got = pq.read_table(os.path.join(dirs[0], "part-00003.parquet"))
    assert got.column("image_id").to_pylist() == ["i0", "i2"]
    assert got.column("near_dup_of").to_pylist() == ["", "i0"]
    assert got.column("bytes").to_pylist() == [b"x0", b"x2"]
    got = pq.read_table(os.path.join(dirs[1], "part-00003.parquet"))
    assert got.column("doc_id").to_pylist() == ["d1", "d2"]
    got = pq.read_table(os.path.join(dirs[2], "part-00003.parquet"))
    assert got.column("url").to_pylist() == ["u0", "u2", "u3"]
    assert got.column("bytes").to_pylist() == [b"a0", b"spilled payload", b"a3"]


def test_finalize_block_writes_no_part_for_an_empty_kind(ray_session, tmp_path):
    dirs = tuple(str(tmp_path / d) for d in ("images", "docs", "attachments"))
    for d in dirs:
        os.makedirs(d)
    docs = pa.table({"doc_id": ["d0"], "enqueue_seq": pa.array([0], pa.int64())})
    empty_imgs = pa.table({"image_id": pa.array([], pa.string())})
    empty_atts = pa.table({"url": pa.array([], pa.string())})
    n = ray.get(_finalize_block.remote(
        to_wire(empty_imgs), to_wire(docs), to_wire(empty_atts), {}, dirs, 0, 1,
        {"row": _rows(0)}, _rows(), _rows()))
    assert n == 0
    assert os.listdir(dirs[0]) == [] and os.listdir(dirs[2]) == []
    assert pq.read_table(os.path.join(dirs[1], "part-00000.parquet")).num_rows == 1
