"""The fetch pool's hand-off form: ``FetchWorker.process`` returns each
batch's fused output as one Arrow IPC buffer, and ``from_wire`` must give
back exactly the table the operator built — schema, row order and every
value, image bytes, attachment payloads and doc content included."""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from lightcrawler_ray.sources import synth
from lightcrawler_ray.stages.fetch import (FRONTIER_COLS, OUT_SCHEMA, from_wire,
                                           load_fixture_tables, make_fetcher, to_wire)
from lightcrawler_ray.stages.fetchpool import FetchWorker

# every page is a detail page (doc rows); pages whose number ends in 7 also
# take the attachment route, so their bodies ride out as attach payloads
_KW = {"routes": ((r"/p/\d+\.html$", "detail"), (r"/p/\d*7\.html$", "attachment"))}


@pytest.fixture(scope="module")
def wire_setup(ray_session):
    p = synth.GraphParams(n_pages=300, n_hosts=6, n_images=120, out_degree=6)
    paths = synth.ensure_fixtures(p)
    pages, images = load_fixture_tables(paths["pages"], paths["images"])
    listed = pq.read_table(paths["pages"], columns=["url", "host", "images"])
    urls = listed.column("url").to_pylist()[:48]
    hosts = listed.column("host").to_pylist()[:48]
    img_ids = sorted({i for lst in listed.column("images").to_pylist()[:48] for i in lst})[:16]
    urls += [synth.image_url(i) for i in img_ids]
    hosts += [synth.IMG_HOST] * len(img_ids)
    n = len(urls)
    block = pa.table({
        "url": urls,
        "url_md5": [hashlib.md5(u.encode()).hexdigest() for u in urls],
        "host": hosts,
        "depth": pa.array([1] * n, pa.int32()),
        "priority": pa.array([0] * n, pa.int32()),
        "enqueue_seq": pa.array(range(n), pa.int64()),
        "referer": [""] * n,
        "linktext": [f"alt {i}" for i in range(n)],
    }).select(FRONTIER_COLS)
    fetcher = make_fetcher(pages, images, _KW)
    # num_cpus=0: the session's CPUs may be held by other modules' pools
    worker = FetchWorker.options(num_cpus=0).remote(ray.put(pages), ray.put(images), _KW)
    yield block, fetcher, worker
    ray.kill(worker)


def _slices(n: int) -> list[tuple[int, int]]:
    return [(0, 20), (20, 48), (48, n), (5, 5)]


def test_process_returns_one_buffer_equal_to_the_operator(wire_setup):
    block, fetcher, worker = wire_setup
    ref = ray.put(block)
    for s, e in _slices(block.num_rows):
        buf = ray.get(worker.process.remote(ref, s, e))
        assert isinstance(buf, pa.Buffer)
        got = from_wire(buf)
        want = fetcher(block.slice(s, e - s))
        assert got.schema == OUT_SCHEMA
        assert got.num_rows == want.num_rows
        assert got.equals(want), (s, e)
        assert got.to_pylist() == want.to_pylist(), (s, e)


def test_slices_cover_every_output_kind(wire_setup):
    block, fetcher, _ = wire_setup
    kinds = fetcher(block).column("kind").to_pylist()
    for k in ("fetch", "link", "image", "doc", "attach"):
        assert k in kinds, k
    assert fetcher(block.slice(5, 0)).num_rows == 0


def test_from_wire_of_several_buffers_concatenates_in_order(wire_setup):
    block, fetcher, worker = wire_setup
    ref = ray.put(block)
    spans = _slices(block.num_rows)
    bufs = ray.get([worker.process.remote(ref, s, e) for s, e in spans])
    want = pa.concat_tables([fetcher(block.slice(s, e - s)) for s, e in spans])
    got = from_wire(*bufs)
    assert got.schema == OUT_SCHEMA
    assert got.equals(want)
    assert got.to_pylist() == want.to_pylist()


def test_wire_round_trip_in_process():
    empty = OUT_SCHEMA.empty_table()
    assert from_wire(to_wire(empty)).equals(empty)
    assert from_wire().equals(empty)
    assert from_wire().schema == OUT_SCHEMA
