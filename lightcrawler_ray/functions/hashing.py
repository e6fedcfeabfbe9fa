"""Content hashing: md5 doc ids, simhash, perceptual hash, minhash.

Reference semantics re-expressed:

- ``doc_id`` = md5 of whitespace-squashed content (worker/SpiderFrame.class.php:256-258).
- simhash: the reference delegates to an external Flask sidecar
  (worker/FlaskRestClient.class.php:41-53); here it is computed locally —
  64-bit simhash over token hashes with bit-vote aggregation (Charikar 2002,
  public algorithm).
- phash: the graft's image analog of simhash (BASELINE.json input_hint) —
  DCT-based 64-bit perceptual hash (mean-pool to 32×32 gray → 2-D DCT-II →
  top-left 8×8 minus DC → median threshold), the standard public pHash recipe.
- minhash: k-permutation MinHash via universal hashing (a*x+b mod p), for the
  MinHash-LSH near-dup operator (extras/dedupe.py).

Everything here is numpy-vectorized per batch.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter

import numpy as np

_WS_SQUASH = re.compile(r"[\s　]+")  # includes CJK ideographic space (M14)
_TOKEN_RE = re.compile(r"[\w一-鿿]+", re.UNICODE)

_MERSENNE = (1 << 61) - 1


def squash_ws(text: str) -> str:
    """M14 — whitespace+U+3000 squash applied before content hashing.

    ``str.split()`` splits on exactly the codepoints ``Py_UNICODE_ISSPACE``
    accepts — the same predicate CPython's ``re`` uses for ``\\s`` on str
    (and U+3000 is Unicode whitespace), so this equals
    ``_WS_SQUASH.sub("", text)`` bit-for-bit at a fraction of the cost
    (differential-tested in tests/test_texttools.py)."""
    return "".join(text.split())


def doc_id(content: str) -> str:
    """D2 — md5 hex of the squashed content."""
    return hashlib.md5(squash_ws(content).encode("utf-8", "surrogatepass")).hexdigest()


# token-hash memo: tokens repeat heavily (CJK docs reuse a small vocabulary),
# so each worker amortizes the digest cost to once per distinct token.
# The hash is md5 bytes [8:16] little-endian — the low 64 bits of md5 read as
# a little-endian 128-bit number, i.e. DuckDB's md5_number_lower(token) —
# chosen so SQL oracles can replay simhash signatures bit-for-bit.
_TOK_CACHE: dict[str, int] = {}
_TOK_CACHE_MAX = 1 << 20


def _tok_hash(t: str) -> int:
    h = _TOK_CACHE.get(t)
    if h is None:
        h = int.from_bytes(
            hashlib.md5(t.encode("utf-8", "surrogatepass")).digest()[8:], "little"
        )
        if len(_TOK_CACHE) < _TOK_CACHE_MAX:
            _TOK_CACHE[t] = h
    return h


def token_hashes(text: str) -> np.ndarray:
    """Stable 64-bit hashes of the text's tokens (words + CJK runs)."""
    toks = _TOKEN_RE.findall(text.lower())
    if not toks:
        return np.empty(0, dtype=np.uint64)
    return np.fromiter(map(_tok_hash, toks), dtype=np.uint64, count=len(toks))


def simhash64(text: str) -> int:
    """T8/D3 — 64-bit simhash (unsigned int returned as python int).

    Computed over (distinct token, count) pairs — identical to the per-
    occurrence formulation but hashes each distinct token once."""
    toks = _TOKEN_RE.findall(text.lower())
    if not toks:
        return 0
    counts = Counter(toks)  # C-speed counting (was a Python dict loop)
    hs = np.fromiter(map(_tok_hash, counts.keys()), dtype=np.uint64, count=len(counts))
    w = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    # bit j of hash i via unpackbits on the little-endian byte view — the
    # (n,64) 0/1 matrix the old shift-broadcast built, without the n×64
    # uint64 intermediate; votes = w·bits − (tot − w·bits) = 2·w·bits − tot.
    # Both byte views are pinned to '<u8' so bit j is bit j on any host.
    bits = np.unpackbits(hs.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8),
                         axis=1, bitorder="little")
    votes = w @ bits.astype(np.int64)
    sig = (votes * 2 - w.sum() > 0).astype(np.uint8)
    return int(np.packbits(sig, bitorder="little").view("<u8")[0])


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized hamming distance between uint64 arrays."""
    x = np.bitwise_xor(a.astype(np.uint64), b.astype(np.uint64))
    # popcount via byte view + unpackbits
    return np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)


def simhash_bands(sig: np.ndarray, bands: int = 4) -> np.ndarray:
    """Split 64-bit signatures into ``bands`` keys of 64/bands bits each —
    two docs within hamming distance < bands share ≥1 band key (pigeonhole),
    which is the groupby key for the near-dup shuffle (D3)."""
    sig = sig.astype(np.uint64)
    width = np.uint64(64 // bands)
    mask = np.uint64((1 << int(width)) - 1)
    out = np.empty((sig.size, bands), dtype=np.uint64)
    for b in range(bands):
        out[:, b] = (sig >> (np.uint64(b) * width)) & mask
    return out


# ---------------------------------------------------------------------------
# Perceptual hash (images)

_DCT32 = None


def _dct_matrix(n: int = 32) -> np.ndarray:
    global _DCT32
    if _DCT32 is None:
        k = np.arange(n)[:, None]
        i = np.arange(n)[None, :]
        m = np.sqrt(2.0 / n) * np.cos((2 * i + 1) * k * np.pi / (2 * n))
        m[0, :] = np.sqrt(1.0 / n)
        _DCT32 = m
    return _DCT32


def _mean_pool_rect(gray: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize HxW to out_h×out_w by area mean-pooling (no PIL here)."""
    h, w = gray.shape
    ys = (np.arange(out_h + 1) * h // out_h).astype(np.int64)
    xs = (np.arange(out_w + 1) * w // out_w).astype(np.int64)
    c = np.zeros((h + 1, w + 1), dtype=np.float64)
    c[1:, 1:] = gray.astype(np.float64).cumsum(0).cumsum(1)
    area = (ys[1:, None] - ys[:-1, None]) * (xs[None, 1:] - xs[None, :-1])
    s = c[ys[1:, None], xs[None, 1:]] - c[ys[:-1, None], xs[None, 1:]] \
        - c[ys[1:, None], xs[None, :-1]] + c[ys[:-1, None], xs[None, :-1]]
    return s / np.maximum(area, 1)


def _mean_pool(gray: np.ndarray, out: int = 32) -> np.ndarray:
    """Resize HxW to out×out by area mean-pooling (no PIL in this container)."""
    return _mean_pool_rect(gray, out, out)


def phash64(pixels: np.ndarray) -> int:
    """64-bit DCT perceptual hash of an (h, w, 3) uint8 image.

    Returned as a *signed* int64-compatible python int (the images table
    stores phash:int64 per the input_hint)."""
    gray = pixels.astype(np.float64) @ np.array([0.299, 0.587, 0.114])
    small = _mean_pool(gray, 32)
    m = _dct_matrix(32)
    d = m @ small @ m.T
    block = d[:8, :8].flatten()
    med = np.median(block[1:])  # exclude DC from the median
    bits = (block > med).astype(np.uint64)
    val = int((bits << np.arange(64, dtype=np.uint64)).sum())
    return val - (1 << 64) if val >= (1 << 63) else val  # to signed int64 range


def dhash64(pixels: np.ndarray) -> int:
    """64-bit difference hash of an (h, w, 3) uint8 image — the gradient
    perceptual-hash family (pool to an 8×9 grid, bit = left-to-right
    brightness increase).  Complements phash64: dhash keys on local
    gradients where phash keys on low-frequency structure, so running both
    catches near-dups either alone misses.  Signed int64 like phash64."""
    gray = pixels.astype(np.float64) @ np.array([0.299, 0.587, 0.114])
    small = _mean_pool_rect(gray, 8, 9)
    bits = (small[:, 1:] > small[:, :-1]).astype(np.uint64).flatten()
    val = int((bits << np.arange(64, dtype=np.uint64)).sum())
    return val - (1 << 64) if val >= (1 << 63) else val


def hist16(pixels: np.ndarray) -> np.ndarray:
    """16-bin luminance histogram of an (h, w, 3) uint8 image in EXACT
    integer arithmetic (lum = (299R + 587G + 114B) // 1000, bin = lum >> 4)
    so partial sums merge bit-identically in any order and the SQL oracle
    replays the binning from stored per-image histograms."""
    px = pixels.astype(np.int64)
    lum = (px[:, :, 0] * 299 + px[:, :, 1] * 587 + px[:, :, 2] * 114) // 1000
    return np.bincount((lum >> 4).ravel(), minlength=16).astype(np.int64)


# ---------------------------------------------------------------------------
# MinHash

def minhash_params(k: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=k, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, _MERSENNE, size=k, dtype=np.int64).astype(np.uint64)
    return a, b


def minhash_signature(hs: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """k-perm MinHash of a set of 64-bit token/shingle hashes.

    Uses (a*x + b) mod (2^61-1) universal hashing in uint64 arithmetic
    (python-object fallback avoided by masking to 61 bits first)."""
    if hs.size == 0:
        return np.full(a.size, np.iinfo(np.uint64).max, dtype=np.uint64)
    x = (hs & np.uint64(_MERSENNE)).astype(np.uint64)
    with np.errstate(over="ignore"):
        prod = a[:, None] * x[None, :] + b[:, None]  # mod 2^64 wrap is fine for hashing
    return prod.min(axis=1)


def minhash_signatures_batch(
    hs_list: list[np.ndarray], a: np.ndarray, b: np.ndarray,
    cap: int = 1 << 18,
) -> np.ndarray:
    """MinHash signatures for a whole BATCH of shingle-hash sets at once —
    value-identical to ``minhash_signature`` per doc (test-pinned), but one
    (k × N) universal-hash matrix + one segmented ``minimum.reduceat`` per
    doc GROUP instead of a small numpy call per doc.  Groups are capped at
    ``cap`` total shingles so the intermediate stays ~k·cap·8 B (~134 MB at
    k=64) regardless of block size.  Returns a (len(hs_list), k) uint64
    array; empty sets get the all-max signature."""
    k = a.size
    out = np.full((len(hs_list), k), np.iinfo(np.uint64).max, dtype=np.uint64)
    i, d = 0, len(hs_list)
    while i < d:
        j, tot = i, 0
        while j < d and (tot == 0 or tot + hs_list[j].size <= cap):
            tot += hs_list[j].size
            j += 1
        idx = [q for q in range(i, j) if hs_list[q].size]
        if idx:
            sizes = np.array([hs_list[q].size for q in idx], dtype=np.int64)
            starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            x = (np.concatenate([hs_list[q] for q in idx]) & np.uint64(_MERSENNE))
            with np.errstate(over="ignore"):
                prod = a[:, None] * x[None, :] + b[:, None]
            out[idx, :] = np.minimum.reduceat(prod, starts, axis=1).T
        i = j
    return out


def shingle_hashes(text: str, n: int = 3) -> np.ndarray:
    """Hashes of the text's word n-gram shingles (md5 low-64 little-endian,
    i.e. DuckDB md5_number_lower — SQL oracles replay the minhash exactly)."""
    toks = _TOKEN_RE.findall(text.lower())
    if len(toks) < n:
        joined = ["\x1f".join(toks)] if toks else []
    else:
        joined = ["\x1f".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]
    out = np.empty(len(joined), dtype=np.uint64)
    for i, s in enumerate(joined):
        out[i] = int.from_bytes(
            hashlib.md5(s.encode("utf-8", "surrogatepass")).digest()[8:], "little"
        )
    return out
