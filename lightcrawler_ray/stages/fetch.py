"""Fetch + extract — one actor-pool ``map_batches`` stage.

Design decision for 100 TB scale: fetching and extraction are FUSED in one
actor so page bodies NEVER enter the object store — only the extracted
outputs (link metadata, image payload rows, document records, fetch metrics)
leave the stage.  The reference streams body→handlers in-process for the same
reason (PHPCrawler.class.php:632-695); Ray Data's analog is a callable class
on an actor pool.

The fetcher here is the *synthetic* one: it resolves URLs against the
deterministic hostgraph + image fixture tables (loaded once per actor in
``__init__`` — the moral equivalent of connection/DNS caches, T3/T4).  A
production fetcher would swap an HTTP client into ``_fetch_raw`` and keep
every other byte of this file; the plumbing (batch shape in, extracted union
table out) is identical.

Reference behaviors reproduced:
- retry ≤ retry_limit on error/5xx, attempts counted (PHPCrawler.class.php:735-751)
- content-type receive gate before body processing (M10,
  PHPCrawlerHTTPRequest.class.php:1150-1174)
- content-size truncation marks the doc incomplete (O3, :956-962)
- redirect Location → link row with is_redirect=1 (M6)
- per-document link dedup in first-seen order (T2)
- status==200 && bytes>100 gate for document extraction (M12)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import hashing, htmltools, imagecodec, texttools
from ..functions import urltools as ut

# the frontier columns a fetch reads, one row per URL
FRONTIER_COLS = ["url", "url_md5", "host", "depth", "priority", "enqueue_seq",
                 "referer", "linktext"]

# union output schema: one row per extracted artifact, tagged by `kind`
OUT_SCHEMA = pa.schema(
    [
        ("kind", pa.string()),  # fetch | link | image | doc
        ("url", pa.string()),
        ("url_md5", pa.string()),
        ("host", pa.string()),
        ("status", pa.int16()),
        ("content_type", pa.string()),
        ("bytes_received", pa.int64()),
        ("error", pa.string()),
        ("attempts", pa.int16()),
        ("fetch_ms", pa.float64()),
        ("enqueue_seq", pa.int64()),
        ("depth", pa.int32()),
        ("priority", pa.int32()),
        ("referer", pa.string()),
        ("link_raw", pa.string()),
        ("linktext", pa.string()),
        ("is_redirect", pa.bool_()),
        ("link_idx", pa.int32()),
        ("parent_seq", pa.int64()),
        ("image_id", pa.string()),
        ("image_bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
        ("doc_id", pa.string()),
        ("title", pa.string()),
        ("doc_ori_no", pa.string()),
        ("author", pa.string()),
        ("tags", pa.string()),
        ("publish_time", pa.int64()),
        ("t_valid", pa.int64()),
        ("content", pa.large_string()),
        ("negs", pa.list_(pa.string())),
        ("simhash", pa.int64()),
        # ingest-time text analysis (training-data enrichment, computed once
        # here so downstream pipelines never re-read the content)
        ("doc_lang", pa.string()),
        ("doc_quality", pa.float64()),
        ("doc_tokens", pa.int64()),
        # M25 — {title, url} attachment links harvested from the page
        ("attachments", pa.list_(pa.struct([("title", pa.string()), ("url", pa.string())]))),
        # M11 attachment route — binary payload rides image_bytes; ext/type
        # from the reference's extension map (SpiderFrame.class.php:357-370)
        ("att_ext", pa.string()),
        ("att_type", pa.int32()),
        # O3 stream-to-file receive (PHPCrawlerHTTPRequest.class.php:459-488):
        # matching content types spill UNCAPPED to a worker-local file; the
        # path rides the row instead of the payload (received_to_file /
        # content_tmp_file page-info fields)
        ("received_to_file", pa.bool_()),
        ("tmp_path", pa.string()),
    ]
)

# reference type enum (DaoSpiderlLawBase::TYPE_*)
ATT_TYPES = {"doc": 1, "docx": 2, "txt": 3, "xls": 4, "xlsx": 5, "pdf": 6, "ceb": 7}
_ATT_EXT_RE = None  # compiled lazily below


def _att_ext_of(url: str) -> str:
    import re as _re

    global _ATT_EXT_RE
    if _ATT_EXT_RE is None:
        _ATT_EXT_RE = _re.compile(r"\.(docx?|pdf|txt|xlsx?|ceb)(?:[?#]|$)", _re.IGNORECASE)
    m = _ATT_EXT_RE.search(url)
    return m.group(1).lower() if m else ""

# Fields each kind actually populates — the columnar output builder appends
# only these per row and fills the rest of OUT_SCHEMA with null arrays at
# build time (a 400k-URL bench batch emits ~150k rows; 41-key dict rows +
# Table.from_pylist was ~20% of fetch wall time).
_KIND_FIELDS: dict[str, tuple[str, ...]] = {
    "fetch": ("url", "url_md5", "host", "status", "content_type",
              "bytes_received", "error", "attempts", "fetch_ms",
              "enqueue_seq", "depth", "priority", "referer",
              "received_to_file", "tmp_path"),
    "link": ("url", "link_raw", "linktext", "referer", "depth",
             "is_redirect", "link_idx", "parent_seq", "priority"),
    "image": ("url", "url_md5", "image_id", "image_bytes", "h", "w", "fmt",
              "caption", "phash", "referer", "enqueue_seq", "depth"),
    "doc": ("url", "url_md5", "doc_id", "title", "doc_ori_no", "author",
            "tags", "publish_time", "t_valid", "content", "negs", "simhash",
            "enqueue_seq", "doc_lang", "doc_quality", "doc_tokens",
            "attachments"),
    "attach": ("url", "url_md5", "image_bytes", "att_ext", "att_type",
               "doc_id", "referer", "enqueue_seq", "depth",
               "received_to_file", "tmp_path"),
}
_FIELD_TYPES = {f.name: f.type for f in OUT_SCHEMA}


class OutBuilder:
    """Per-kind columnar accumulator for the fused fetch/extract output.

    Rows of one kind stay in append order; ``build()`` groups kinds in a
    fixed (fetch, link, image, doc, attach) order — every consumer filters
    by ``kind`` (and links are re-ranked by (parent_seq, link_idx)), so
    inter-kind interleaving carries no information."""

    __slots__ = ("bufs",)

    def __init__(self):
        self.bufs = {k: {f: [] for f in flds} for k, flds in _KIND_FIELDS.items()}

    def add(self, kind: str, **kw) -> None:
        for f, lst in self.bufs[kind].items():
            lst.append(kw.get(f))

    def patch_last(self, kind: str, field: str, value) -> None:
        self.bufs[kind][field][-1] = value

    def build(self) -> pa.Table:
        tables = []
        for kind in ("fetch", "link", "image", "doc", "attach"):
            cols = self.bufs[kind]
            n = len(cols["url"])
            if not n:
                continue
            arrays = []
            for f in OUT_SCHEMA:
                if f.name == "kind":
                    arrays.append(pa.array([kind] * n, f.type))
                elif f.name in cols:
                    arrays.append(pa.array(cols[f.name], f.type))
                else:
                    arrays.append(pa.nulls(n, f.type))
            tables.append(pa.Table.from_arrays(arrays, schema=OUT_SCHEMA))
        if not tables:
            return OUT_SCHEMA.empty_table()
        return tables[0] if len(tables) == 1 else pa.concat_tables(tables)


def load_fixture_tables(pages_path: str, images_path: str) -> tuple[pa.Table, pa.Table]:
    """The synthetic web as Arrow tables (broadcast via plasma, zero-copy)."""
    import pyarrow.parquet as pq

    import pyarrow.parquet as _pq

    cols = ["url", "status", "content_type", "body", "location", "fail_attempts"]
    if "set_cookie" in _pq.read_schema(pages_path).names:
        cols.append("set_cookie")  # optional header column (T3 exercise)
    pages_t = pq.read_table(pages_path, columns=cols).combine_chunks()
    imgs = pq.read_table(images_path, columns=["image_id", "bytes", "fmt"]).combine_chunks()
    return pages_t, imgs


class SyntheticFetchExtract:
    """Callable class for ``map_batches(..., concurrency=N)``.

    Parameters are plain picklable values; the heavy fixture tables are read
    from parquet paths once per actor (init-once semantics)."""

    def __init__(
        self,
        pages_path: str | None = None,
        images_path: str | None = None,
        pages_ref=None,
        images_ref=None,
        retry_limit: int = 3,
        content_size_limit: int = 1 << 22,
        receive_rules: tuple[str, ...] = ("text/", "image/"),
        min_doc_bytes: int = 100,
        aggressive_links: bool = False,
        synthesize_pagination: bool = False,
        request_delay_ms: float = 0.0,
        routes: tuple[tuple[str, str], ...] = (),
        auth_rules: tuple = (),
        post_rules: tuple = (),
        parse_mode: str = "fast",
        stream_to_file_rules: tuple[str, ...] = (),
        spill_dir: str = "",
    ):
        import re as _re

        try:  # cap this worker's Arrow pool (see crawl._limit_arrow_threads)
            import pyarrow as _pa

            if _pa.cpu_count() > 2:
                _pa.set_cpu_count(2)
                _pa.set_io_thread_count(2)
        except Exception:
            pass

        from ..state.clientcache import CookieJar, DnsCache

        # M11 — ordered (compiled regex, kind); every match runs
        self.routes = [(_re.compile(rx), kind) for rx, kind in routes]
        # T3/T4 — per-worker client caches (init-once actor state); the
        # synthetic wire resolves hosts to themselves, so the DNS cache is
        # observable through its hit/miss counters, and cookies accumulate
        # from the fixture's optional set_cookie column
        self.cookies = CookieJar()
        self.dns = DnsCache()
        # T9 — request overlays (auth/POST) consulted per request
        from ..state.clientcache import SendDataCache

        self.send_data = SendDataCache(auth_rules, post_rules)
        self._overlay_posts = 0
        self._overlay_auths = 0
        # The page/image stores are Arrow tables broadcast through the object
        # store — ray.get of an Arrow table is ZERO-COPY out of plasma, so
        # every worker on a node shares ONE physical copy of the bodies and
        # holds only its url→row index (the production analog: workers hold
        # connection state, never the corpus).  Ray auto-dereferences refs
        # passed as actor args, so both refs and tables are accepted.
        if pages_ref is not None:
            import ray

            pages_t = ray.get(pages_ref) if isinstance(pages_ref, ray.ObjectRef) else pages_ref
            images_t = ray.get(images_ref) if isinstance(images_ref, ray.ObjectRef) else images_ref
        else:
            pages_t, images_t = load_fixture_tables(pages_path, images_path)
        self._pages = pages_t
        self._pcols = {n: pages_t.column(n) for n in pages_t.column_names}
        # url → row index WITHOUT holding 400k Python strings per worker: a
        # sorted array of 64-bit string hashes (+ row ids) replaces the old
        # dict — ~3 MB resident instead of ~60 MB, so 24 workers stop
        # carrying ~1.4 GB of LLC-polluting random-access state on a node.
        # hash() is process-local but BOTH sides (build + probe) run in this
        # process; collisions are resolved by verifying the url against the
        # plasma-shared Arrow column (exactness does not ride on hash()).
        import numpy as _np

        _urls = self._pcols["url"].to_pylist()  # transient
        _h = _np.fromiter(map(hash, _urls), dtype=_np.int64, count=len(_urls))
        _order = _np.argsort(_h, kind="stable")
        self._ph = _h[_order]
        self._prow = _order.astype(_np.int64)
        del _urls, _h, _order
        self._icols = {n: images_t.column(n) for n in images_t.column_names}
        self._iindex = {u: i for i, u in enumerate(self._icols["image_id"].to_pylist())}
        self.retry_limit = retry_limit
        self.content_size_limit = content_size_limit
        self.receive_rules = receive_rules
        self.min_doc_bytes = min_doc_bytes
        self.aggressive_links = aggressive_links
        self.synthesize_pagination = synthesize_pagination
        self.request_delay_ms = request_delay_ms
        # O3 stream-to-file: content-type prefixes whose bodies spill to
        # worker-local files instead of memory (uncapped — the point is
        # oversized-but-wanted blobs; PHPCrawlerHTTPRequest.class.php:459-488)
        self.stream_to_file_rules = tuple(stream_to_file_rules)
        self.spill_dir = spill_dir
        # M15 — bind the HTML parse path once per worker (spec.parse_mode)
        if parse_mode == "dom":
            from ..functions import dom

            self._html_to_lines = dom.html_to_lines
            self._main_content = dom.main_content
        else:
            self._html_to_lines = texttools.html_to_lines
            self._main_content = texttools.main_content

    def _page_row(self, url: str) -> int | None:
        """Row index of ``url`` in the page store via the sorted-hash array;
        hash collisions fall through to a string compare against the shared
        Arrow column, so the result is exactly the old dict lookup."""
        ph = self._ph
        h = hash(url)
        j = int(np.searchsorted(ph, h))
        ucol = self._pcols["url"]
        n = ph.size
        while j < n and ph[j] == h:
            i = int(self._prow[j])
            if ucol[i].as_py() == url:
                return i
            j += 1
        return None

    # -- the swappable fetch primitive --------------------------------------
    def _fetch_raw(self, url: str) -> tuple[int, str, bytes, str, int]:
        """(status, content_type, body, location, fail_attempts) for a URL.
        Production implementation: an HTTP client with per-host cookie/DNS
        caches. Synthetic: hostgraph + image table lookup."""
        if "/img/" in url:
            iid = url.rsplit("/", 1)[-1].rsplit(".", 1)[0]
            i = self._iindex.get(iid)
            if i is None:
                return 404, "text/html", b"", "", 0
            # zero-copy over the shared store, like the page bodies below
            body = memoryview(self._icols["bytes"][i].as_buffer()).cast("B")
            return 200, f"image/{self._icols['fmt'][i].as_py()}", body, "", 0
        i = self._page_row(url)
        if i is None:
            return 404, "text/html", b"not found", "", 0
        c = self._pcols
        if "set_cookie" in c:
            sc = c["set_cookie"][i].as_py()
            if sc:
                self.cookies.add_set_cookie(sc, url)
        # body rides as a zero-copy memoryview over the plasma-shared Arrow
        # buffer (cast to 'B' so slice==bytes compares unsigned): every
        # downstream consumer (len, md5, re.search, str(mv, enc), zlib,
        # spill write) takes buffers, so the ~90 KB .as_py() copy per page
        # never happens — at 6k URLs/s that's ~0.5 GB/s of DRAM traffic the
        # 32-wide leg no longer spends
        return (
            int(c["status"][i].as_py()),
            c["content_type"][i].as_py(),
            memoryview(c["body"][i].as_buffer()).cast("B"),
            c["location"][i].as_py() or "",
            int(c["fail_attempts"][i].as_py()),
        )

    def _spill_match(self, ctype: str) -> bool:
        return bool(self.stream_to_file_rules) and any(
            ctype.startswith(r) for r in self.stream_to_file_rules
        )

    def _spill_body(self, body: bytes) -> dict:
        """Synthetic stream-to-file: the fixture body lands in a spill file
        exactly as the real client's :meth:`HttpClient._receive_to_file`
        would place it (content-addressed, uncapped).  The fixture body is
        already in memory here — the test double; the REAL path never
        buffers it (stages/httpfetch.py)."""
        import hashlib
        import os
        import tempfile

        d = self.spill_dir or tempfile.gettempdir()
        os.makedirs(d, exist_ok=True)
        md5 = hashlib.md5(body).hexdigest()
        final = os.path.join(d, f"spill-{md5}.bin")
        if not os.path.exists(final):
            fd, tmp = tempfile.mkstemp(prefix="recv-", dir=d)
            with os.fdopen(fd, "wb") as f:
                f.write(body)
            os.replace(tmp, final)
        return {"path": final, "size": len(body), "md5": md5}

    def _fetch(self, url: str) -> tuple[int, str, bytes, str, int, bool, dict | None]:
        """Retry loop (≤ retry_limit attempts on 5xx/flaky), truncation.
        Returns (status, ctype, body, location, attempts, truncated, spill)."""
        status, ctype, body, loc, fail_n = self._fetch_raw(url)
        attempts = 0
        while attempts < max(1, self.retry_limit):
            attempts += 1
            if attempts <= fail_n:
                continue  # flaky row: this attempt fails, retry
            if status >= 500:
                continue  # hard 5xx: retry until limit (reference retries bad status)
            break
        if fail_n and attempts > fail_n and status < 500:
            pass  # flaky row succeeded after fail_n failed attempts
        elif attempts <= fail_n:
            status = 503  # ran out of retries mid-flake
        if status == 200 and body and self._spill_match(ctype):
            return status, ctype, b"", loc, attempts, False, self._spill_body(body)
        truncated = False
        if len(body) > self.content_size_limit:
            body = body[: self.content_size_limit]
            truncated = True
        return status, ctype, body, loc, attempts, truncated, None

    # -- per-batch ----------------------------------------------------------
    def __call__(self, batch: pa.Table) -> pa.Table:
        # per-URL work is inherently row-wise (each row is an independent
        # HTTP transaction); the row-dict conversion measures 1.1 ms per
        # 256-row batch ≈ 0.09% of batch wall (BASELINE.md round-4 notes)
        ob = OutBuilder()
        for fr in batch.select(FRONTIER_COLS).to_pylist():
            self._process_into(fr, ob)
        return ob.build()

    def _process_one(self, fr: dict) -> list[dict]:
        """Single-page convenience wrapper (simulator/tests) — full-schema
        dict rows, fetch rows first then links/images/docs/attachments."""
        ob = OutBuilder()
        self._process_into(fr, ob)
        return ob.build().to_pylist()

    def _process_into(self, fr: dict, ob: OutBuilder) -> None:
        url, md5, host = fr["url"], fr["url_md5"], fr["host"]
        depth, prio, seq = fr["depth"], fr["priority"], fr["enqueue_seq"]
        self.dns.get(host)  # T4: memoized resolution (identity on the synthetic wire)
        if self.send_data._auth or self.send_data._post:  # T9 overlays
            ov = self.send_data.request_overlay(url)
            self._overlay_posts += ov["method"] == "POST"
            self._overlay_auths += "Authorization" in ov["headers"]
        if self.cookies._by_domain:  # T3: request would carry these cookies
            self._last_cookie_header = self.cookies.header_for(url)
        status, ctype, body, loc, attempts, truncated, spill = self._fetch(url)
        # M11 — every matching route runs (SpiderFrame::handleContent)
        kinds = {k for rx, k in self.routes if rx.search(url)}
        is_attach = "attachment" in kinds and status == 200 and (body or spill)
        # a stream-to-file match is an explicit opt-in receive (the reference
        # registers the type via addStreamToFileContentType)
        received = status == 200 and (
            spill is not None or any(ctype.startswith(r) for r in self.receive_rules)
        )
        nbytes = spill["size"] if spill else (len(body) if (received or is_attach) else 0)
        ob.add(
            "fetch", url=url, url_md5=md5, host=host, status=status,
            content_type=ctype, bytes_received=nbytes,
            error="" if status < 400 else f"http {status}", attempts=attempts,
            fetch_ms=self.request_delay_ms * attempts, enqueue_seq=seq,
            depth=depth, priority=prio, referer=fr["referer"],
            received_to_file=spill is not None,
            tmp_path=spill["path"] if spill else "",
        )
        if is_attach:
            import hashlib as _hl

            ext = _att_ext_of(url)
            ob.add(
                "attach", url=url, url_md5=md5,
                image_bytes=None if spill else body,
                received_to_file=spill is not None,
                tmp_path=spill["path"] if spill else "",
                att_ext=ext, att_type=ATT_TYPES.get(ext, 0),
                doc_id=spill["md5"] if spill else _hl.md5(body).hexdigest(),
                referer=fr["referer"], enqueue_seq=seq, depth=depth,
            )
            if not ctype.startswith("text/"):
                return  # binary payload: nothing further to extract
        if spill is not None:
            return  # blob on disk — the path rode the fetch/attach rows
        if status in (301, 302) and loc:
            canon = ut.resolve(url, loc)
            if canon:
                ob.add(
                    "link", url=canon, link_raw=loc, linktext="",
                    referer=url, depth=depth, is_redirect=True,  # depth kept (M9 semantics)
                    link_idx=0, parent_seq=seq, priority=0,
                )
            return
        if not received:
            return
        if ctype.startswith("image/"):
            try:
                px = imagecodec.decode(body)
            except imagecodec.CodecError as e:
                ob.patch_last("fetch", "error", f"decode: {e}")
                return
            iid = url.rsplit("/", 1)[-1].rsplit(".", 1)[0]
            ob.add(
                "image", url=url, url_md5=md5, image_id=iid,
                image_bytes=body, h=px.shape[0], w=px.shape[1],
                fmt=ctype.split("/", 1)[1], caption=fr["linktext"] or "",
                phash=hashing.phash64(px), referer=fr["referer"],
                enqueue_seq=seq, depth=depth,
            )
            return
        # HTML document.  Link FOLLOWING is the crawler core's job and happens
        # for every received page regardless of routes (PHPCrawl extracts
        # links before handleContent runs); routes gate only content
        # processing: pagination synthesis (list) and doc records (detail).
        is_list = not self.routes or not kinds or "list" in kinds
        html = htmltools.decode_body(body, ctype)
        # one M5 exclusion pass shared by the link and image extractors
        stripped = htmltools.exclude_sections(html)
        links = htmltools.find_links(html, url, aggressive=self.aggressive_links,
                                     stripped=stripped)
        # <img alt> text is the caption for image links found by the attr pass
        alts = dict(htmltools.find_images(html, url, stripped=stripped))
        lb = ob.bufs["link"]
        l_url, l_raw, l_text = lb["url"], lb["link_raw"], lb["linktext"]
        l_ref, l_depth, l_red = lb["referer"], lb["depth"], lb["is_redirect"]
        l_idx, l_pseq, l_prio = lb["link_idx"], lb["parent_seq"], lb["priority"]
        d1 = depth + 1
        for j, fl in enumerate(links):
            l_url.append(fl.url)
            l_raw.append(fl.link_raw)
            l_text.append(fl.linktext or alts.get(fl.url, ""))
            l_ref.append(url)
            l_depth.append(d1)
            l_red.append(False)
            l_idx.append(j)
            l_pseq.append(seq)
            l_prio.append(0)
        if self.synthesize_pagination and is_list:
            for k, purl in enumerate(htmltools.synthesize_pagination(url, html)):
                canon = ut.canonicalize(purl)
                if canon:
                    ob.add(
                        "link", url=canon, link_raw=purl, linktext="",
                        referer=url, depth=d1, is_redirect=False,
                        link_idx=len(links) + k, parent_seq=seq, priority=0,
                    )
        want_doc = "detail" in kinds if self.routes else True
        if want_doc and len(body) > self.min_doc_bytes and not truncated:
            self._doc_row(ob, url, md5, html, seq, links)

    def _doc_row(self, ob: OutBuilder, url: str, md5: str, html: str, seq: int,
                 links: list | None = None) -> None:
        lines = self._html_to_lines(html)
        # M18/M28/A3: content = extracted MAIN content (nav/link blocks
        # suppressed, p-ratio or line-density path) so every downstream
        # hash/quality/dedup value is boilerplate-free; summary fields still
        # scan the full line set (labels may sit outside the dense block)
        content = self._main_content(html) or "\n".join(lines)
        summary = texttools.extract_summary(lines, htmltools.page_title(html))
        # M25 — {title, url} attachment-link harvest into the doc record
        # (ExtractContent.class.php:741-788): page links with doc extensions
        atts = [
            {"title": fl.linktext, "url": fl.url}
            for fl in (links or [])
            if _att_ext_of(fl.url)
        ]
        sh = hashing.simhash64(content)
        ob.add(
            "doc", url=url, url_md5=md5, doc_id=hashing.doc_id(content),
            title=summary["title"], doc_ori_no=summary["doc_ori_no"],
            author=summary["author"], tags=summary["tags"],
            publish_time=summary["publish_time"], t_valid=summary["t_valid"],
            content=content, negs=texttools.named_entities(content),
            simhash=sh - (1 << 64) if sh >= (1 << 63) else sh,
            enqueue_seq=seq,
            doc_lang=texttools.lang_id(content),
            doc_quality=texttools.quality_score(content),
            doc_tokens=texttools.token_count(content),
            attachments=atts,
        )


_EMPTY_PAGES = pa.table({
    "url": pa.array([], pa.string()), "status": pa.array([], pa.int16()),
    "content_type": pa.array([], pa.string()), "body": pa.array([], pa.large_binary()),
    "location": pa.array([], pa.string()), "fail_attempts": pa.array([], pa.int32()),
})
_EMPTY_IMAGES = pa.table({
    "image_id": pa.array([], pa.string()), "bytes": pa.array([], pa.large_binary()),
    "fmt": pa.array([], pa.string()),
})


class RealFetchExtract(SyntheticFetchExtract):
    """S3 complete — the SAME extract engine over a real HTTP wire
    (stages/httpfetch.HttpClient).  Every gate, route, retry count and
    output row is the synthetic fetcher's code; only ``_fetch_raw`` and the
    retry loop (which must re-issue the request, PHPCrawler.class.php:
    735-751) differ.  Selected by ``CrawlSpec.fetcher = "http"``."""

    def __init__(self, user_agent: str = "lightcrawler-ray/0.1",
                 connect_timeout_s: float = 60.0, stream_timeout_s: float = 60.0,
                 proxy: tuple = (), **kw):
        import socket

        from ..state.clientcache import DnsCache
        from .httpfetch import HttpClient, TransportError

        kw.pop("pages_ref", None)
        kw.pop("images_ref", None)
        super().__init__(pages_ref=_EMPTY_PAGES, images_ref=_EMPTY_IMAGES, **kw)
        self.dns = DnsCache(resolver=socket.gethostbyname)  # T4, real resolver
        self._TransportError = TransportError
        self._last_spill: dict | None = None
        self.http = HttpClient(
            cookies=self.cookies, dns=self.dns, send_data=self.send_data,
            user_agent=user_agent, connect_timeout_s=connect_timeout_s,
            stream_timeout_s=stream_timeout_s,
            content_size_limit=self.content_size_limit,
            proxy=proxy,
            stream_to_file_rules=self.stream_to_file_rules,
            spill_dir=self.spill_dir,
        )

    def _fetch_raw(self, url: str) -> tuple[int, str, bytes, str, int]:
        try:
            status, ctype, body, loc, self._last_spill = self.http.fetch(url)
        except self._TransportError:
            self._last_spill = None
            return 599, "", b"", "", 0  # retryable transport failure
        return status, ctype, body, loc, 0

    def _fetch(self, url: str) -> tuple[int, str, bytes, str, int, bool, dict | None]:
        """Real retry loop: re-ISSUE the request on error/5xx up to
        retry_limit attempts (the synthetic loop instead consumes the
        fixture's fail_attempts budget).  A stream-to-file receive (O3
        spill) happened inside the client — uncapped, never truncated."""
        attempts = 0
        while True:
            attempts += 1
            status, ctype, body, loc, _ = self._fetch_raw(url)
            if status < 500 or attempts >= max(1, self.retry_limit):
                break
        spill = self._last_spill
        if spill is not None:
            return status, ctype, b"", loc, attempts, False, spill
        truncated = len(body) > self.content_size_limit
        if truncated:
            body = body[: self.content_size_limit]
        return status, ctype, body, loc, attempts, truncated, None


def make_fetcher(pages_ref, images_ref, fetch_kwargs: dict) -> SyntheticFetchExtract:
    """Build the spec-selected fetch primitive (one per ``FetchWorker``, plus
    the lazy-robots politeness partitions' own)."""
    kw = dict(fetch_kwargs)
    kind = kw.pop("fetcher", "synthetic")
    if kind == "http":
        return RealFetchExtract(**kw)
    kw.pop("user_agent", None)
    kw.pop("connect_timeout_s", None)
    kw.pop("stream_timeout_s", None)
    kw.pop("proxy", None)
    return SyntheticFetchExtract(pages_ref=pages_ref, images_ref=images_ref, **kw)


def fetch_robots(fetcher: SyntheticFetchExtract, host: str, port: int) -> dict | None:
    """S4 — fetch + parse ``http://<host>[:<port>]/robots.txt`` through
    ``fetcher`` (PHPCrawlerRobotsTxtParser.class.php:29-151; the reference
    requests {scheme}://{host}:{port}/robots.txt).  Returns the rules, or
    None when the file is missing or sets no Disallow and no Crawl-delay."""
    from ..functions import robotstxt

    hp = host if port in (0, 80, 443) else f"{host}:{port}"
    status, _, body, _, _ = fetcher._fetch_raw(f"http://{hp}/robots.txt")
    if status == 200 and body:
        rules = robotstxt.parse_robots_txt(str(body, "utf-8", "replace"))
        if rules["disallow"] or rules["delay_ms"]:
            return rules
    return None


def to_wire(t: pa.Table) -> pa.Buffer:
    """A fused-output table as one Arrow IPC stream buffer — the form a
    fetch batch leaves its worker in.  Ray pickles a ``pa.Buffer`` as one
    out-of-band blob, where its own ``pa.Table`` reducer walks every chunk
    of every ``OUT_SCHEMA`` column in Python on both ends."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, OUT_SCHEMA) as w:
        w.write_table(t)
    return sink.getvalue()


def from_wire(*bufs: pa.Buffer) -> pa.Table:
    """The fused-output table of one or more ``to_wire`` buffers, in order;
    the columns are zero-copy views of the buffers."""
    tables = [pa.ipc.open_stream(b).read_all() for b in bufs]
    return pa.concat_tables(tables) if tables else OUT_SCHEMA.empty_table()


def split_outputs(out_table: pa.Table) -> dict[str, pa.Table]:
    """Partition a fused-output table by kind — the one split every round
    uses (``pipelines/crawl._split_project``)."""
    import pyarrow.compute as pc

    return {
        k: out_table.filter(pc.equal(out_table.column("kind"), k))
        for k in ("fetch", "link", "image", "doc", "attach")
    }
