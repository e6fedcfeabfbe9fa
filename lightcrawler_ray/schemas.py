"""Arrow schemas for every logical table the engine touches.

The reference declares its schemas in SQL DDL (`sql/db.sql:1-61`) and DAO
field maps (`worker/DaoXlegalLawContentRecord.class.php:29-51`); here they are
explicit ``pyarrow.Schema`` objects so every ``map_batches`` stage can assert
its contract and every sink writes a stable layout.
"""

from __future__ import annotations

import pyarrow as pa

# ---------------------------------------------------------------------------
# Frontier row — reference: PHPCrawlerURLDescriptor
# (vendor/PHPCrawl_083/libs/PHPCrawlerURLDescriptor.class.php:7-66) persisted
# in the `urls` table (sql/db.sql:1-23).  `epoch` + `enqueue_seq` replace the
# reference's in_process/processed mutable flags: a row's state is which
# round's frontier partition it sits in, and FIFO-within-priority pop order
# (PHPCrawlerSQLiteURLCache.class.php:54-84) is reproduced by sorting on
# (priority desc, enqueue_seq asc).
FRONTIER = pa.schema(
    [
        ("url_md5", pa.string()),        # distinct_hash: md5(canonical url), hex
        ("url", pa.string()),            # url_rebuild (canonicalized)
        ("host", pa.string()),           # partition key: hash(host)
        ("link_raw", pa.string()),       # href as found in the source doc
        ("linktext", pa.string()),       # anchor text (the graft's caption analog)
        ("referer", pa.string()),        # refering_url
        ("depth", pa.int32()),           # url_link_depth
        ("priority", pa.int32()),        # priority_level (regex-assigned)
        ("is_redirect", pa.bool_()),
        ("enqueue_seq", pa.int64()),     # deterministic tie-break within priority
        ("epoch", pa.int32()),           # crawl round that enqueued this row
    ]
)

# Fetched-document row — reference: PHPCrawlerDocumentInfo
# (vendor/PHPCrawl_083/libs/PHPCrawlerDocumentInfo.class.php, populated in
# PHPCrawlerHTTPRequest.class.php:363-510).  Out-links are kept as a list of
# structs so extraction stays columnar until the flat_map explode.
LINK = pa.struct(
    [
        ("url", pa.string()),
        ("link_raw", pa.string()),
        ("linktext", pa.string()),
        ("is_redirect", pa.bool_()),
    ]
)

FETCH = pa.schema(
    [
        ("url_md5", pa.string()),
        ("url", pa.string()),
        ("host", pa.string()),
        ("status", pa.int16()),
        ("content_type", pa.string()),
        ("body", pa.large_binary()),
        ("referer", pa.string()),
        ("depth", pa.int32()),
        ("priority", pa.int32()),
        ("enqueue_seq", pa.int64()),
        ("bytes", pa.int64()),
        ("error", pa.string()),
        ("attempts", pa.int16()),        # retry count actually consumed (≤3)
        ("fetch_ms", pa.float64()),
        ("truncated", pa.bool_()),       # content_size_limit hit (O3)
        ("received", pa.bool_()),        # content-type receive gate passed (M10)
        ("epoch", pa.int32()),
    ]
)

# Image+caption payload row — the graft's authoritative store
# (BASELINE.json input_hint).  The reference analog of bytes/fmt is the
# attachment blob sink (worker/SpiderFrame.class.php:328-381), of caption is
# linktext/title, of phash is the simhash column.
IMAGES = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
    ]
)

# Extracted content record — reference: XlegalLawContentRecord
# (worker/XlegalLawContentRecord.class.php:9-29, sql/db.sql:25-40).  JSON-string
# nests become real Arrow nested types.
DOCUMENT = pa.schema(
    [
        ("doc_id", pa.string()),         # md5(whitespace-squashed content)
        ("url", pa.string()),
        ("url_md5", pa.string()),
        ("doc_ori_no", pa.string()),     # official document number ('' if absent)
        ("doc_type", pa.int8()),         # 1..8 enum (worker/DaoUrlCache.class.php:14-21)
        ("title", pa.string()),
        ("author", pa.string()),
        ("tags", pa.string()),
        ("content", pa.large_string()),
        ("attachments", pa.list_(pa.struct([("title", pa.string()), ("url", pa.string())]))),
        ("negs", pa.list_(pa.string())),  # 《…》 named-entity spans (M23)
        ("publish_time", pa.int64()),    # unix epoch seconds, 0 if absent (M21)
        ("t_valid", pa.int64()),
        ("t_invalid", pa.int64()),
        ("simhash", pa.uint64()),
        ("epoch", pa.int32()),
    ]
)

# Per-round crawl metrics — reference: PHPCrawlerStatus counters
# (PHPCrawlerStatusHandler.class.php:94-122, report PHPCrawler.class.php:1001-1046).
METRICS = pa.schema(
    [
        ("epoch", pa.int32()),
        ("links_followed", pa.int64()),
        ("documents_received", pa.int64()),
        ("bytes_received", pa.int64()),
        ("errors", pa.int64()),
        ("retries", pa.int64()),
        ("fetch_ms_sum", pa.float64()),
        ("images_written", pa.int64()),
        ("urls_enqueued", pa.int64()),
        ("urls_deduped", pa.int64()),
    ]
)


def empty_table(schema: pa.Schema) -> pa.Table:
    """An empty Arrow table with the given schema (for zero-row rounds)."""
    return schema.empty_table()
