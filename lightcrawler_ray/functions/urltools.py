"""URL split / normalize / resolve / canonicalize (SURVEY.md M1-M3).

Semantics re-expressed from the reference:

- split (M1): ``vendor/PHPCrawl_083/libs/Utils/PHPCrawlerUtils.class.php:27-106``
  — protocol/host/path/file/query/domain/port; host lowercased; ``domain`` is
  the host minus its first label unless the host is an IPv4 literal; default
  port 80/443; default path "/".
- normalize (M2): ``PHPCrawlerUtils.class.php:126-193`` — rebuild from parts,
  strip ``:80``/``:443`` for http/https, strip a bare trailing "/" (i.e.
  ``http://h/`` → ``http://h``).  The north_rule extends this to full RFC 3986
  normalization (percent-encoding case, dot-segment removal) plus stable
  query-parameter ordering — both implemented here.
- resolve (M3): ``PHPCrawlerUtils.class.php:234-328`` and
  ``libs/Formatter.class.php:11-60`` — HTML-entity decode, strip CR/LF, strip
  ``#fragment``, drop ``javascript:`` (and other non-fetchable schemes),
  handle ``//host``, ``/abs``, ``./``, ``../`` (iterative path pop),
  ``?query``-only, and bare-relative links against the document base.

All functions are pure; the batch wrappers at the bottom are what
``map_batches`` stages call (compiled regexes at module import — i.e. once per
worker process, the moral equivalent of per-actor init for stateless fns).
"""

from __future__ import annotations

import functools
import hashlib
import html as _html
import re

import numpy as np
import pyarrow as pa

# Schemes the crawler will never fetch (reference drops javascript: links in
# PHPCrawlerUtils.class.php:262; we extend to the obvious non-fetchables).
_DROP_SCHEMES = ("javascript:", "mailto:", "tel:", "data:", "ftp:", "file:", "about:")

_SCHEME_RE = re.compile(r"^([a-zA-Z][a-zA-Z0-9+.-]*):")
_IPV4_RE = re.compile(r"^\d{1,3}(?:\.\d{1,3}){3}$")
_WS_RE = re.compile(r"[\r\n\t]+")
_DEFAULT_PORT = {"http": 80, "https": 443}

# RFC 3986 unreserved characters — percent-escapes of these are decoded.
_UNRESERVED = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~"
)
_PCT_RE = re.compile(r"%([0-9a-fA-F]{2})")

# canonical-identity fast path: scheme://host[/path] with lowercase host,
# no port/auth/query/fragment/%-escape/whitespace; path either absent or
# ≥2 chars (a bare "/" is stripped by the slow path, so it must not match)
_CANON_FAST_RE = re.compile(r"^https?://[a-z0-9][a-z0-9.-]*(?:/[^\s?#%]+)?$")


def _norm_pct(s: str) -> str:
    """RFC 3986 6.2.2.1/6.2.2.2: uppercase percent-escapes, decode unreserved."""

    def fix(m: re.Match) -> str:
        ch = chr(int(m.group(1), 16))
        return ch if ch in _UNRESERVED else "%" + m.group(1).upper()

    return _PCT_RE.sub(fix, s)


def remove_dot_segments(path: str) -> str:
    """RFC 3986 5.2.4 — also the reference's iterative ``../`` pop
    (PHPCrawlerUtils.class.php:283-301)."""
    out: list[str] = []
    for seg in path.split("/"):
        if seg == ".":
            continue
        if seg == "..":
            if len(out) > 1:
                out.pop()
            continue
        out.append(seg)
    # preserve trailing slash for "/a/." and "/a/.."
    if path.endswith(("/.", "/..")) and (not out or out[-1] != ""):
        out.append("")
    res = "/".join(out)
    return res if res.startswith("/") else "/" + res


def split_url(url: str) -> dict[str, str | int] | None:
    """M1 — parse into protocol/host/port/path/file/query/domain.

    Returns None for URLs without an http(s) scheme+host.
    """
    m = _SCHEME_RE.match(url)
    if not m:
        return None
    scheme = m.group(1).lower()
    rest = url[m.end():]
    if not rest.startswith("//"):
        return None
    rest = rest[2:]
    # split off path/query/fragment
    cut = len(rest)
    for ch in "/?#":
        i = rest.find(ch)
        if i != -1:
            cut = min(cut, i)
    authority, tail = rest[:cut], rest[cut:]
    # userinfo
    auth = ""
    if "@" in authority:
        auth, authority = authority.rsplit("@", 1)
    host, port_s = authority, ""
    if ":" in authority:
        host, port_s = authority.rsplit(":", 1)
        if not port_s.isdigit():
            host, port_s = authority, ""
    host = host.lower()
    port = int(port_s) if port_s else _DEFAULT_PORT.get(scheme, 0)
    # path / query / fragment
    frag = ""
    if "#" in tail:
        tail, frag = tail.split("#", 1)
    query = ""
    if "?" in tail:
        path, query = tail.split("?", 1)
    else:
        path = tail
    if not path:
        path = "/"
    # directory + file split (reference keeps both; file = last segment w/ dot)
    last = path.rsplit("/", 1)[-1]
    file = last if "." in last else ""
    directory = path[: len(path) - len(file)] if file else path
    # domain = host minus first label, IP-guarded (PHPCrawlerUtils.class.php:60-74)
    if _IPV4_RE.match(host) or "." not in host:
        domain = host
    else:
        domain = host.split(".", 1)[1]
    return {
        "protocol": scheme,
        "auth": auth,
        "host": host,
        "port": port,
        "path": directory,
        "file": file,
        "query": query,
        "fragment": frag,
        "domain": domain,
    }


def canonicalize(url: str) -> str | None:
    """M2 + north_rule — full canonical form.

    Steps: strip CR/LF/tab + surrounding space; lowercase scheme and host;
    drop default port; remove dot-segments; normalize percent-encoding; sort
    query parameters stably by (key, value); drop fragment; strip a bare
    trailing "/" (reference PHPCrawlerUtils.class.php:185-193).

    Returns None for non-http(s) URLs.
    """
    # Already-canonical fast path (provably identity, differential-tested):
    # lowercase scheme+host, no port/auth/query/fragment/percent/whitespace,
    # and a path that is absent or longer than a bare "/".  Dot segments
    # ("." / ".." exactly) are excluded by the substring guards — "..." and
    # ".x" segments are NOT dot segments and pass through unchanged on the
    # slow path too.  The crawl hot path resolves most hrefs into exactly
    # this shape, skipping the full parse/rebuild per link.
    if _CANON_FAST_RE.match(url) and "/./" not in url and "/../" not in url \
            and not url.endswith(("/.", "/..")):
        return url
    url = _WS_RE.sub("", url).strip()
    p = split_url(url)
    if p is None or p["protocol"] not in ("http", "https"):
        return None
    scheme = p["protocol"]
    host = p["host"]
    if not host:
        return None
    port = p["port"]
    netloc = host if port == _DEFAULT_PORT[scheme] else f"{host}:{port}"
    if p["auth"]:
        netloc = f'{p["auth"]}@{netloc}'
    path = _norm_pct(remove_dot_segments(str(p["path"]) + str(p["file"])))
    query = str(p["query"])
    if query:
        params = [tuple(kv.split("=", 1)) if "=" in kv else (kv, None) for kv in query.split("&") if kv]
        params.sort(key=lambda kv: (kv[0], kv[1] if kv[1] is not None else ""))
        query = "&".join(k if v is None else f"{k}={v}" for k, v in (( _norm_pct(k), None if v is None else _norm_pct(v)) for k, v in params))
    out = f"{scheme}://{netloc}{path}"
    if query:
        out += f"?{query}"
    elif path == "/":
        out = out[:-1]  # bare trailing slash strip (M2)
    return out


def resolve(base: str, link: str) -> str | None:
    """M3 — resolve an href found in a document at ``base`` to a canonical
    absolute URL, or None when the link is not fetchable.
    """
    if link is None:
        return None
    if "&" in link:  # html.unescape's own fast path, without the call
        link = _html.unescape(link)
    link = _WS_RE.sub("", link).strip()
    if not link:
        return None
    # every drop scheme and _SCHEME_RE match requires a ':' — one C scan
    # sends scheme-less (relative) links straight to the resolution branches
    if ":" in link:
        if link.lower().startswith(_DROP_SCHEMES):
            return None
        # strip fragment early (reference strips trailing #anchor, :247)
        link = link.split("#", 1)[0]
        if not link:
            return None  # pure-fragment link points at the same doc
        if _SCHEME_RE.match(link):
            return canonicalize(link)
    else:
        link = link.split("#", 1)[0]
        if not link:
            return None
    bp = _split_base(base)
    if bp is None:
        return None
    scheme = bp["protocol"]
    port = bp["port"]
    netloc = bp["host"] if port == _DEFAULT_PORT.get(scheme) else f'{bp["host"]}:{port}'
    if link.startswith("//"):
        return canonicalize(f"{scheme}:{link}")
    if link.startswith("/"):
        return canonicalize(f"{scheme}://{netloc}{link}")
    if link.startswith("?"):
        return canonicalize(f'{scheme}://{netloc}{bp["path"]}{bp["file"]}{link}')
    # bare-relative: against the base *directory*
    return canonicalize(f'{scheme}://{netloc}{bp["path"]}{link}')


@functools.lru_cache(maxsize=1)
def _split_base(base: str) -> dict[str, str | int] | None:
    """``split_url(base)`` memoized for the last base: find_links resolves
    every relative href of a page against the same base.  The returned dict
    is shared between calls — callers must not mutate it."""
    return split_url(base)


def url_md5(url: str) -> str:
    """T1/D1 — the frontier's distinct_hash: md5 hex of the canonical URL
    (reference PHPCrawlerURLCacheBase.class.php:85-93)."""
    return hashlib.md5(url.encode("utf-8", "surrogatepass")).hexdigest()


def host_of(url: str) -> str:
    p = split_url(url)
    return str(p["host"]) if p else ""


# ---------------------------------------------------------------------------
# Batch wrappers (what map_batches calls) — Arrow column in, numpy out.


def canonicalize_batch(urls: pa.Array | np.ndarray | list[str]) -> np.ndarray:
    vals = urls.to_pylist() if isinstance(urls, (pa.Array, pa.ChunkedArray)) else list(urls)
    return np.array([canonicalize(u) or "" for u in vals], dtype=object)


def md5_batch(urls: pa.Array | list[str]) -> np.ndarray:
    vals = urls.to_pylist() if isinstance(urls, (pa.Array, pa.ChunkedArray)) else list(urls)
    return np.array([url_md5(u) for u in vals], dtype=object)


def host_batch(urls: pa.Array | list[str]) -> np.ndarray:
    vals = urls.to_pylist() if isinstance(urls, (pa.Array, pa.ChunkedArray)) else list(urls)
    return np.array([host_of(u) for u in vals], dtype=object)
