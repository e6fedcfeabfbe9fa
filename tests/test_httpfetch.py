"""S3 complete — the real HTTP fetch path against an in-process http.server.

Covers the client semantics the reference implements in
PHPCrawlerHTTPRequest.class.php (gzip, redirects-not-followed, cookies,
basic-auth, POST overlays, size cap, retry re-issue) AND the end-to-end
observability of T3/T9: fixture endpoints 403 unless the expected
Cookie / POST overlay is present, so the crawl OUTPUT — not just the
counters — proves the client state works.
"""

from __future__ import annotations

import base64
import gzip
import http.server
import os
import threading

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

AUTH_OK = "Basic " + base64.b64encode(b"user:pw").decode()

# deterministic pseudo-PDF payload, 4× the 16 KiB cap the spill tests use
PDF_PAYLOAD = b"%PDF-1.4\n" + bytes(range(256)) * 256 + b"\n%%EOF"

_PAGE = (
    "<html><head><title>{title}</title></head><body><p>{body}</p></body></html>"
)


def _doc(title: str, pad: str = "") -> bytes:
    # distinct body per page (titles alone would trip the simhash near-dup gate)
    body = (f"本{title}就数据要素流通与交易平台建设提出第{len(title)}号要求，" + pad) * 8
    return _PAGE.format(title=title, body=body).encode("utf-8")


class _Handler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive → connection reuse observable
    flaky_counts: dict[str, int] = {}

    def log_message(self, *a):  # quiet
        pass

    def _send(self, status: int, body: bytes, ctype: str = "text/html",
              extra: dict | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        for k, v in (extra or {}).items():
            self.send_header(k, v)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        p = self.path
        if p == "/robots.txt":
            self._send(200, b"User-agent: *\nDisallow: /blocked/\n", "text/plain")
        elif p == "/":
            self._send(200, (
                '<html><body>'
                '<a href="/a.html">甲</a>'
                '<a href="/sub/setcookie.html">cookie</a>'
                '<a href="/private/secret.html">secret</a>'
                '<a href="/redirect">moved</a>'
                '<a href="/flaky">flaky</a>'
                '<a href="/blocked/x.html">blocked</a>'
                '<a href="/files/report.pdf">附件</a>'
                '</body></html>'
            ).encode())
        elif p == "/fanout.html":
            # 70 pages (all 404) plus the cookie-gated page: one round of 71
            self._send(200, (
                "<html><body>"
                + "".join(f'<a href="/fan/{i}.html">{i}</a>' for i in range(70))
                + '<a href="/private/secret.html">secret</a></body></html>'
            ).encode())
        elif p == "/a.html":
            self._send(200, _doc("甲页", "甲页包含与众不同的第一号正文材料。"))
        elif p == "/target.html":
            self._send(200, _doc("目标页", "重定向落点内容完全不同于其他页面。"))
        elif p == "/redirect":
            self._send(301, b"", extra={"Location": "/target.html"})
        elif p == "/gz.html":
            if "gzip" in (self.headers.get("Accept-Encoding") or ""):
                raw = gzip.compress(_doc("压缩页"))
                self._send(200, raw, extra={"Content-Encoding": "gzip"})
            else:
                self._send(200, _doc("压缩页"))
        elif p == "/sub/setcookie.html":
            self._send(200, _doc("授权页", "本页签发会话凭据并介绍签发流程。"), extra={"Set-Cookie": "sid=ok; Path=/"})
        elif p == "/private/secret.html":
            if "sid=ok" in (self.headers.get("Cookie") or ""):
                self._send(200, _doc("机密页", "需要会话凭据方可访问的保密材料内容。"))
            else:
                self._send(403, b"forbidden")
        elif p == "/auth/page.html":
            if self.headers.get("Authorization") == AUTH_OK:
                self._send(200, _doc("认证页"))
            else:
                self._send(401, b"auth required")
        elif p == "/post.html":
            self._send(403, b"POST only")
        elif p == "/flaky":
            n = _Handler.flaky_counts.get(p, 0)
            _Handler.flaky_counts[p] = n + 1
            if n < 2:
                self._send(500, b"boom")
            else:
                self._send(200, _doc("终于成功", "前两次请求失败之后重试成功的页面。"))
        elif p == "/big.bin":
            self._send(200, b"x" * 100_000, "text/plain")
        elif p in ("/files/report.pdf", "/files/copy.pdf"):
            self._send(200, PDF_PAYLOAD, "application/pdf")
        elif p == "/files/gz.pdf":
            if "gzip" in (self.headers.get("Accept-Encoding") or ""):
                self._send(200, gzip.compress(PDF_PAYLOAD), "application/pdf",
                           extra={"Content-Encoding": "gzip"})
            else:
                self._send(200, PDF_PAYLOAD, "application/pdf")
        else:
            self._send(404, b"not found")

    def do_POST(self):
        n = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(n).decode()
        if self.path == "/post.html" and "token=t123" in body:
            self._send(200, _doc("表单页"))
        else:
            self._send(403, b"bad form")


@pytest.fixture(scope="module")
def server():
    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    yield f"127.0.0.1:{srv.server_address[1]}"
    srv.shutdown()


def _client(**kw):
    from lightcrawler_ray.stages.httpfetch import HttpClient

    return HttpClient(**kw)


class TestHttpClient:
    def test_basic_get_and_reuse(self, server):
        c = _client()
        st, ct, body, loc, _ = c.fetch(f"http://{server}/a.html")
        assert st == 200 and ct == "text/html" and "甲页".encode() in body
        c.fetch(f"http://{server}/target.html")
        assert c.requests_sent == 2 and c.connections_opened == 1  # keep-alive reuse
        c.close()

    def test_gzip_decode(self, server):
        c = _client()
        st, _, body, _, _ = c.fetch(f"http://{server}/gz.html")
        assert st == 200 and "压缩页".encode() in body  # decoded, not raw gzip
        c.close()

    def test_redirect_not_followed(self, server):
        c = _client()
        st, _, _, loc, _ = c.fetch(f"http://{server}/redirect")
        assert st == 301 and loc == "/target.html"
        c.close()

    def test_cookie_roundtrip(self, server):
        c = _client()
        st, _, _, _, _ = c.fetch(f"http://{server}/private/secret.html")
        assert st == 403  # no cookie yet
        c.fetch(f"http://{server}/sub/setcookie.html")  # Set-Cookie: sid=ok
        st, _, body, _, _ = c.fetch(f"http://{server}/private/secret.html")
        assert st == 200 and "机密页".encode() in body
        c.close()

    def test_basic_auth_overlay(self, server):
        from lightcrawler_ray.state.clientcache import SendDataCache

        c = _client(send_data=SendDataCache(auth_rules=((r"/auth/", "user", "pw"),)))
        st, _, body, _, _ = c.fetch(f"http://{server}/auth/page.html")
        assert st == 200 and "认证页".encode() in body
        assert _client().fetch(f"http://{server}/auth/page.html")[0] == 401
        c.close()

    def test_post_overlay(self, server):
        from lightcrawler_ray.state.clientcache import SendDataCache

        c = _client(send_data=SendDataCache(post_rules=((r"/post\.html", (("token", "t123"),)),)))
        st, _, body, _, _ = c.fetch(f"http://{server}/post.html")
        assert st == 200 and "表单页".encode() in body
        assert _client().fetch(f"http://{server}/post.html")[0] == 403  # GET without overlay
        c.close()

    def test_size_cap(self, server):
        c = _client(content_size_limit=10_000)
        st, _, body, _, _ = c.fetch(f"http://{server}/big.bin")
        assert st == 200 and len(body) == 10_001  # cap + 1 → truncation detectable
        c.close()

    def test_transport_error(self, server):
        from lightcrawler_ray.stages.httpfetch import TransportError

        c = _client(connect_timeout_s=0.5)
        with pytest.raises(TransportError):
            c.fetch("http://127.0.0.1:9/never.html")  # closed port


class TestRealFetchExtract:
    def _fx(self, **kw):
        from lightcrawler_ray.stages.fetch import RealFetchExtract

        return RealFetchExtract(**kw)

    def test_retry_reissues_request(self, server):
        _Handler.flaky_counts.clear()
        fx = self._fx(retry_limit=3)
        status, ctype, body, loc, attempts, trunc, _ = fx._fetch(f"http://{server}/flaky")
        assert status == 200 and attempts == 3  # two 500s re-issued, then 200
        assert "终于成功".encode() in body

    def test_truncation_marks_incomplete(self, server):
        fx = self._fx(content_size_limit=10_000)
        status, _, body, _, _, trunc, _ = fx._fetch(f"http://{server}/big.bin")
        assert status == 200 and trunc and len(body) == 10_000

    def test_transport_maps_to_599(self, server):
        fx = self._fx(retry_limit=2, connect_timeout_s=0.5)
        status, _, _, _, attempts, _, _ = fx._fetch("http://127.0.0.1:9/x")
        assert status == 599 and attempts == 2

    def test_process_one_doc_row(self, server):
        fx = self._fx()
        rows = fx._process_one({
            "url": f"http://{server}/a.html", "url_md5": "0" * 32,
            "host": "127.0.0.1", "depth": 0, "priority": 0, "enqueue_seq": 0,
            "referer": "", "linktext": "",
        })
        kinds = {r["kind"] for r in rows}
        assert "fetch" in kinds and "doc" in kinds
        doc = next(r for r in rows if r["kind"] == "doc")
        assert doc["doc_id"] and "甲页" in (doc["title"] or "")


def _empty_fixture_paths(tmp_path) -> dict[str, str]:
    from lightcrawler_ray.stages.fetch import _EMPTY_IMAGES, _EMPTY_PAGES

    robots_t = pa.table({
        "host": pa.array([], pa.string()), "delay_ms": pa.array([], pa.int64()),
        "disallow": pa.array([], pa.list_(pa.string())),
    })
    paths = {}
    for name, t in (("pages", _EMPTY_PAGES), ("images", _EMPTY_IMAGES), ("robots", robots_t)):
        p = os.path.join(tmp_path, f"{name}.parquet")
        pq.write_table(t, p)
        paths[name] = p
    return paths


def _run_http_crawl(tmp_path, server, job_name: str, seeds=("/",), **spec_kw):
    """Run the full engine against the live server from the ``seeds`` paths;
    returns (stats, fetched-url set, url → title docs dict)."""
    from lightcrawler_ray.pipelines.crawl import CrawlJob
    from lightcrawler_ray.stages.frontier import CrawlSpec

    _Handler.flaky_counts.clear()
    paths = _empty_fixture_paths(tmp_path)
    spec = CrawlSpec(**{
        **dict(fetcher="http", max_depth=2, follow_mode=2, robots_source="fetch",
               seen_shards=2, fetch_concurrency=1, local_round_threshold=4096,
               redirects_till_content=False),
        **spec_kw,
    })
    seeds = pa.table({
        "url": pa.array([f"http://{server}{p}" for p in seeds]),
        "depth": pa.array([0] * len(seeds), pa.int32()),
        "priority": pa.array([0] * len(seeds), pa.int32()),
    })
    job = CrawlJob(spec, seeds, paths["pages"], paths["images"], paths["robots"],
                   str(tmp_path / job_name))
    s = job.run(max_rounds=5)
    from lightcrawler_ray import storage

    fetched = {}
    docs = {}
    for d in sorted(os.listdir(job.job_dir)):
        fdir = os.path.join(job.job_dir, d, "frontier")
        ddir = os.path.join(job.job_dir, d, "docs")
        if d.startswith("epoch=") and os.path.isdir(fdir):
            t = storage.load_table(fdir)
            if t.num_columns:
                for u in t.column("url").to_pylist():
                    fetched[u] = True
        if d.startswith("epoch=") and os.path.isdir(ddir):
            t = storage.load_table(ddir)
            if t.num_columns:
                for r in t.select(["url", "title"]).to_pylist():
                    docs[r["url"]] = r["title"]
    job.shutdown()
    return s, fetched, docs


def test_crawl_over_real_http(ray_session, tmp_path, server):
    """The full engine — frontier, seen set, politeness, routes, sinks —
    crawling a live HTTP server, with robots.txt fetched over the wire and a
    cookie-gated page whose fetch SUCCEEDS only because an earlier page's
    Set-Cookie landed in the worker's jar (T3 observable end-to-end)."""
    s, fetched, docs = _run_http_crawl(tmp_path, server, "httpjob")
    base = f"http://{server}"
    assert f"{base}/a.html" in docs
    assert f"{base}/target.html" in docs, "redirect Location must be followed"
    assert f"{base}/private/secret.html" in docs, "cookie from earlier page must unlock"
    assert not any("/blocked/" in u for u in fetched), "fetched robots.txt must gate"
    assert s["retries"] >= 2, "flaky page retries re-issued over the wire"
    assert s["documents_received"] >= 4


def test_lazy_robots_over_http_reads_the_origin_port(ray_session, tmp_path, server):
    """Lazy robots against an origin on a non-default port: the politeness
    partition asks that port for /robots.txt, so its Disallow gates."""
    _, fetched, docs = _run_http_crawl(tmp_path, server, "lazyjob", robots_source="lazy")
    base = f"http://{server}"
    assert f"{base}/a.html" in docs
    assert not any("/blocked/" in u for u in fetched), "lazy robots.txt must gate"


def test_client_state_shared_by_small_and_large_rounds(ray_session, tmp_path, server):
    """One fetch client per worker, whatever the round size: the Set-Cookie
    page comes in a 2-URL round, the cookie-gated page in the 71-URL round
    after it, and the gated page's doc is written."""
    from lightcrawler_ray import storage

    _, fetched, docs = _run_http_crawl(tmp_path, server, "cookiejob",
                                       seeds=("/sub/setcookie.html", "/fanout.html"))
    base = f"http://{server}"
    rounds = {}
    job_dir = tmp_path / "cookiejob"
    for d in sorted(os.listdir(job_dir)):
        fdir = os.path.join(job_dir, d, "frontier")
        t = storage.load_table(fdir) if os.path.isdir(fdir) else None
        if t is not None and t.num_columns:
            urls = t.column("url").to_pylist()
            rounds.update({u: len(urls) for u in urls})
    assert rounds[f"{base}/sub/setcookie.html"] <= 64
    assert rounds[f"{base}/private/secret.html"] > 64
    assert f"{base}/private/secret.html" in docs, "the cookie must reach the gated page"


# ---------------------------------------------------------------------------
# Proxy (PHPCrawlerHTTPRequest.class.php setProxy :314-330): plain-http
# requests carry the ABSOLUTE URI on the request line (:987-991) plus
# Proxy-Authorization (:1028-1033), and the socket goes to the proxy.

PROXY_OK = "Basic " + base64.b64encode(b"puser:ppw").decode()


class _ProxyHandler(http.server.BaseHTTPRequestHandler):
    """Forwarding HTTP proxy that records each request line + auth header."""

    protocol_version = "HTTP/1.1"
    log: list = []  # (request_target, proxy_authorization)
    require_auth = ""  # expected Proxy-Authorization value; "" = open proxy

    def log_message(self, *a):
        pass

    def _relay(self):
        from urllib.parse import urlsplit

        _ProxyHandler.log.append(
            (self.path, self.headers.get("Proxy-Authorization") or "")
        )
        if _ProxyHandler.require_auth and (
            self.headers.get("Proxy-Authorization") != _ProxyHandler.require_auth
        ):
            body = b"proxy auth required"
            self.send_response(407)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        u = urlsplit(self.path)
        if u.scheme != "http" or not u.netloc:  # origin-form = client bug
            body = b"expected absolute-form request target"
            self.send_response(400)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        import http.client as hc

        n = int(self.headers.get("Content-Length") or 0)
        req_body = self.rfile.read(n) if n else None
        hdrs = {
            k: v for k, v in self.headers.items()
            if k.lower() not in ("proxy-authorization", "connection", "host")
        }
        hdrs["Host"] = u.netloc
        conn = hc.HTTPConnection(u.hostname, u.port or 80, timeout=10)
        path = (u.path or "/") + (f"?{u.query}" if u.query else "")
        conn.request(self.command, path, body=req_body, headers=hdrs)
        r = conn.getresponse()
        data = r.read()
        conn.close()
        self.send_response(r.status)
        passthrough = {"content-type", "location", "set-cookie", "content-encoding"}
        for k, v in r.getheaders():
            if k.lower() in passthrough:
                self.send_header(k, v)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = _relay
    do_POST = _relay


@pytest.fixture(scope="module")
def proxy():
    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ProxyHandler)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    yield ("127.0.0.1", srv.server_address[1])
    srv.shutdown()


class TestProxy:
    def test_absolute_uri_and_auth_header(self, server, proxy):
        _ProxyHandler.log.clear()
        _ProxyHandler.require_auth = PROXY_OK
        c = _client(proxy=(proxy[0], proxy[1], "puser", "ppw"))
        st, _, body, _, _ = c.fetch(f"http://{server}/a.html")
        assert st == 200 and "甲页".encode() in body
        target, auth = _ProxyHandler.log[-1]
        assert target == f"http://{server}/a.html"  # absolute URI, :987-991
        assert auth == PROXY_OK  # :1028-1033
        c.close()

    def test_unauthenticated_is_refused(self, server, proxy):
        _ProxyHandler.require_auth = PROXY_OK
        c = _client(proxy=proxy)  # no credentials
        st, _, _, _, _ = c.fetch(f"http://{server}/a.html")
        assert st == 407
        c.close()

    def test_cookie_and_post_overlays_ride_the_proxy(self, server, proxy):
        from lightcrawler_ray.state.clientcache import SendDataCache

        _ProxyHandler.require_auth = ""
        c = _client(
            proxy=proxy,
            send_data=SendDataCache(post_rules=((r"/post\.html", (("token", "t123"),)),)),
        )
        c.fetch(f"http://{server}/sub/setcookie.html")
        st, _, body, _, _ = c.fetch(f"http://{server}/private/secret.html")
        assert st == 200 and "机密页".encode() in body  # cookie forwarded
        st, _, body, _, _ = c.fetch(f"http://{server}/post.html")
        assert st == 200 and "表单页".encode() in body  # POST form forwarded
        c.close()


def test_crawl_via_proxy_output_unchanged(ray_session, tmp_path, server, proxy):
    """The VERDICT bar: the same crawl through the proxy yields the same
    output, and every page request went absolute-form with auth."""
    _ProxyHandler.require_auth = PROXY_OK
    _ProxyHandler.log.clear()
    s1, fetched1, docs1 = _run_http_crawl(tmp_path, server, "directjob")
    n_direct = len(_ProxyHandler.log)
    s2, fetched2, docs2 = _run_http_crawl(
        tmp_path, server, "proxyjob", proxy=(proxy[0], proxy[1], "puser", "ppw")
    )
    assert docs2 == docs1 and set(fetched2) == set(fetched1)
    assert s2["documents_received"] == s1["documents_received"]
    proxied = _ProxyHandler.log[n_direct:]
    assert proxied, "proxy leg saw no traffic"
    assert all(t.startswith("http://") for t, _ in proxied)
    assert all(a == PROXY_OK for _, a in proxied)


# ---------------------------------------------------------------------------
# O3 stream-to-file (PHPCrawlerHTTPRequest.class.php:459-488): content types
# registered for file receive spill UNCAPPED to a worker-local file; the
# fetch result carries (path, size, md5) and an empty body.


class TestStreamToFile:
    def test_spill_complete_and_uncapped(self, server, tmp_path):
        cap = 16_384
        assert len(PDF_PAYLOAD) > 4 * cap
        c = _client(content_size_limit=cap,
                    stream_to_file_rules=("application/pdf",),
                    spill_dir=str(tmp_path))
        st, ct, body, _, spill = c.fetch(f"http://{server}/files/report.pdf")
        assert st == 200 and ct == "application/pdf"
        assert body == b"", "spilled body must never be buffered in memory"
        assert spill is not None and spill["size"] == len(PDF_PAYLOAD)
        with open(spill["path"], "rb") as f:
            assert f.read() == PDF_PAYLOAD, "payload 4x the cap lands COMPLETE"
        import hashlib

        assert spill["md5"] == hashlib.md5(PDF_PAYLOAD).hexdigest()
        c.close()

    def test_spill_is_content_addressed(self, server, tmp_path):
        c = _client(stream_to_file_rules=("application/pdf",),
                    spill_dir=str(tmp_path))
        s1 = c.fetch(f"http://{server}/files/report.pdf")[4]
        s2 = c.fetch(f"http://{server}/files/copy.pdf")[4]
        assert s1["path"] == s2["path"], "identical payloads collapse on disk"
        c.close()

    def test_spill_gzip_streamed(self, server, tmp_path):
        c = _client(stream_to_file_rules=("application/pdf",),
                    spill_dir=str(tmp_path))
        st, _, body, _, spill = c.fetch(f"http://{server}/files/gz.pdf")
        assert st == 200 and body == b""
        with open(spill["path"], "rb") as f:
            assert f.read() == PDF_PAYLOAD, "gzip decoded on the fly"
        c.close()

    def test_nonmatching_type_still_capped(self, server, tmp_path):
        c = _client(content_size_limit=1024,
                    stream_to_file_rules=("application/pdf",),
                    spill_dir=str(tmp_path))
        st, _, body, _, spill = c.fetch(f"http://{server}/big.bin")
        assert st == 200 and spill is None
        assert len(body) == 1025, "limit+1 so the caller's truncation mark fires"
        c.close()


def test_crawl_spills_oversized_attachment(ray_session, tmp_path, server):
    """The VERDICT bar end-to-end: a payload 4x the cap crawled through the
    engine lands COMPLETE in attachments/, the fetch worker's builder never
    holds the payload, and the fetches table carries received_to_file +
    tmp_path."""
    cap = 16_384
    s, fetched, _ = _run_http_crawl(
        tmp_path, server, "spilljob",
        routes=((r"\.pdf$", "attachment"),),
        content_size_limit=cap,
        stream_to_file_rules=("application/pdf",),
        spill_dir=str(tmp_path / "spill"),
    )
    from lightcrawler_ray import storage

    job_dir = str(tmp_path / "spilljob")
    atts = []
    for d in sorted(os.listdir(job_dir)):
        adir = os.path.join(job_dir, d, "attachments")
        if d.startswith("epoch=") and os.path.isdir(adir):
            t = storage.load_table(adir)
            if t.num_columns and t.num_rows:
                atts.extend(t.to_pylist())
    pdf_url = f"http://{server}/files/report.pdf"
    assert any(a["url"] == pdf_url for a in atts), atts
    row = next(a for a in atts if a["url"] == pdf_url)
    assert row["bytes"] == PDF_PAYLOAD, "oversized payload lands COMPLETE"
    assert row["received_to_file"] is True
    assert row["tmp_path"] and os.path.exists(row["tmp_path"])
    assert row["att_ext"] == "pdf" and row["att_type"] == 6
    import hashlib

    assert row["doc_id"] == hashlib.md5(PDF_PAYLOAD).hexdigest()


def test_spill_builder_never_buffers_payload(server, tmp_path):
    """Memory bound at the source: the fused fetch/extract OutBuilder holds
    a null payload + path for a spilled attachment (the bytes appear only at
    the sink's hydration)."""
    from lightcrawler_ray.stages.fetch import OutBuilder, RealFetchExtract

    f = RealFetchExtract(
        routes=((r"\.pdf$", "attachment"),),
        content_size_limit=16_384,
        stream_to_file_rules=("application/pdf",),
        spill_dir=str(tmp_path),
    )
    ob = OutBuilder()
    f._process_into(
        {"url": f"http://{server}/files/report.pdf", "url_md5": "m",
         "host": "127.0.0.1",
         "depth": 0, "priority": 0, "enqueue_seq": 0, "referer": "", "linktext": ""},
        ob,
    )
    assert ob.bufs["attach"]["image_bytes"] == [None]
    assert ob.bufs["attach"]["received_to_file"] == [True]
    builder_payload_bytes = sum(
        len(b) for b in ob.bufs["attach"]["image_bytes"] if b
    )
    assert builder_payload_bytes == 0
    fetch_buf = ob.bufs["fetch"]
    assert fetch_buf["received_to_file"] == [True]
    assert fetch_buf["bytes_received"][0] == len(PDF_PAYLOAD)
    assert fetch_buf["tmp_path"][0].endswith(".bin")
    # sink hydration restores the payload from the spill file
    import pyarrow.compute as pc

    from lightcrawler_ray.pipelines.crawl import _att_rows, _hydrate_spilled

    out = ob.build()
    t = _hydrate_spilled(_att_rows(out.filter(pc.equal(out.column("kind"), "attach"))))
    assert t.column("bytes")[0].as_py() == PDF_PAYLOAD
    f.http.close()
