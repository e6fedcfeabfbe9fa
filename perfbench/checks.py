"""Correctness checks applied to every crawl job and every ops pass.

Crawl jobs are compared with ``pipelines.simulator.simulate`` (the
reference-semantics golden run, cached next to its fixtures), and their
gate counts are reconciled from the epoch tables alone: per epoch,
``candidates in - filtered - seen-dropped = winners = frontier rows``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np
import pyarrow as pa


_IMAGE_SAMPLE = 16


class CheckFailed(Exception):
    pass


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def epoch_dirs(job_dir: str) -> list[str]:
    return sorted(os.path.join(job_dir, d) for d in os.listdir(job_dir) if d.startswith("epoch="))


def load_epoch_table(ed: str, name: str) -> pa.Table | None:
    from lightcrawler_ray import storage

    p = os.path.join(ed, name)
    if not os.path.isdir(p):
        return None
    t = storage.load_table(p)
    return t if t.num_columns else None


def golden(job, paths: dict) -> dict:
    """Golden crawl order, seen membership and image captions for this job's
    spec on these fixtures.

    The spec is the job's own (seed scope derived, same shape fields), so
    the simulator filters exactly as the engine does.  The cached run sits
    in the fixtures' own directory (named by every generator parameter and
    the generator's version) under a digest of the spec, so a change to
    either computes it again."""
    digest = hashlib.md5(repr(job.spec).encode()).hexdigest()[:16]
    path = os.path.join(os.path.dirname(paths["seeds"]), f"golden-{digest}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    import pyarrow.parquet as pq

    from lightcrawler_ray.pipelines import simulator
    from lightcrawler_ray.pipelines.crawl import load_robots

    run = simulator.simulate(dataclasses.replace(job.spec), pq.read_table(paths["seeds"]),
                             paths["pages"], paths["images"], load_robots(paths["robots"]))
    g = {"order": run.order, "seen": sorted(run.seen),
         "captions": {r["image_id"]: r["caption"] for r in run.images}}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(g, f)
    os.replace(tmp, path)
    return g


def check_parity(job, g: dict) -> None:
    order = job.crawl_order()
    _expect(order == g["order"], f"crawl order differs from the simulator "
                                 f"({len(order)} vs {len(g['order'])} URLs)")
    members = job.seen.members()
    _expect(members == g["seen"], f"seen membership differs from the simulator "
                                  f"({len(members)} vs {len(g['seen'])} keys)")


def check_images(job, g: dict, images_path: str, seed: int) -> int:
    """Decoded-pixel PSNR >= 40 (exact for lossless formats) and caption
    equality on a fixed-seed sample of the job's image rows."""
    import pyarrow.parquet as pq

    from lightcrawler_ray.functions import imagecodec

    rows = [t for t in (load_epoch_table(ed, "images") for ed in epoch_dirs(job.job_dir)) if t]
    _expect(bool(rows), "no image rows written")
    imgs = pa.concat_tables(rows)
    rng = np.random.default_rng(seed)
    pick = rng.choice(imgs.num_rows, size=min(_IMAGE_SAMPLE, imgs.num_rows), replace=False)
    sample = imgs.take(pa.array(np.sort(pick))).to_pylist()
    ref = pq.read_table(images_path, columns=["image_id", "bytes"])
    ref_bytes = dict(zip(ref.column("image_id").to_pylist(), ref.column("bytes").to_pylist()))
    for r in sample:
        iid = r["image_id"]
        _expect(iid in g["captions"], f"image {iid} not in the golden run")
        _expect(r["caption"] == g["captions"][iid], f"caption differs for image {iid}")
        got, want = imagecodec.decode(r["bytes"]), imagecodec.decode(ref_bytes[iid])
        if r["fmt"] in ("png", "bmp"):
            _expect(np.array_equal(got, want), f"lossless image {iid} differs")
        else:
            _expect(imagecodec.psnr(got, want) >= 40.0, f"image {iid} PSNR below 40 dB")
    return imgs.num_rows


def count_rows(job_dir: str, name: str) -> int:
    return sum(t.num_rows for t in (load_epoch_table(ed, name) for ed in epoch_dirs(job_dir)) if t)


def check_routed(job, truth: tuple[int, int]) -> None:
    docs, atts = count_rows(job.job_dir, "docs"), count_rows(job.job_dir, "attachments")
    _expect((docs, atts) == truth, f"routed docs/attachments {docs}/{atts}, site truth "
                                   f"{truth[0]}/{truth[1]}")


def epoch_candidates(job, ed: str, prev: str | None) -> pa.Table:
    """The rows the round at ``ed`` filtered: the seed table for epoch 0,
    else the previous epoch's links checkpoint."""
    if prev is None:
        return job._seed_table()
    t = load_epoch_table(prev, "links")
    return t if t is not None else pa.table({})


def content_seq_for(job, prev: str | None) -> int:
    """The M9 content boundary the round used (from the previous epoch's
    done marker; before any epoch, redirect-only until content is found)."""
    if prev is None:
        return (1 << 62) if job.spec.redirects_till_content else -1
    with open(os.path.join(prev, "_EPOCH_DONE"), encoding="utf-8") as f:
        return int(json.load(f).get("content_seq", -1))


def epochs(job):
    """Yield ``(epoch_dir, candidates, content_seq)`` in crawl order."""
    prev = None
    for ed in epoch_dirs(job.job_dir):
        yield ed, epoch_candidates(job, ed, prev), content_seq_for(job, prev)
        prev = ed


def gate_counts(ed: str, n_in: int, kept: pa.Table, prior: set[str]):
    """Reconcile one epoch; returns ``(counts, probe_keys, frontier)``.

    ``probe_keys`` are the kept candidates' distinct keys in
    ``(parent_seq, link_idx)`` order, the keys the seen gate is asked about.
    ``prior`` (keys fetched in earlier epochs) gains this epoch's winners."""
    if kept.num_rows:
        order = np.lexsort((kept.column("link_idx").to_numpy(),
                            kept.column("parent_seq").to_numpy()))
        md5 = np.asarray(kept.column("url_md5").to_pylist(), dtype=object)[order]
        _, first = np.unique(md5, return_index=True)
        keys = md5[np.sort(first)].tolist()
    else:
        keys = []
    winners = [m for m in keys if m not in prior]
    front = load_epoch_table(ed, "frontier")
    fmd5 = front.column("url_md5").to_pylist() if front is not None else []
    rec = {"epoch": os.path.basename(ed), "cands_in": n_in, "filtered": n_in - kept.num_rows,
           "seen_dropped": kept.num_rows - len(winners), "winners": len(winners),
           "fetched": len(fmd5)}
    _expect(rec["cands_in"] - rec["filtered"] - rec["seen_dropped"] == rec["winners"]
            == rec["fetched"] and set(winners) == set(fmd5),
            f"gate counts do not reconcile: {rec}")
    prior.update(winners)
    return rec, keys, front


def reconcile(job, filt) -> list[dict]:
    """Per-epoch gate counts from outside the engine; raises on mismatch.
    ``filt`` is a ``CandidateFilter`` built from the job's spec and robots."""
    prior: set[str] = set()
    out = []
    for ed, cands, cs in epochs(job):
        kept = filt(cands, content_seq=cs) if cands.num_rows else cands
        out.append(gate_counts(ed, cands.num_rows, kept, prior)[0])
    return out


def make_filter(job):
    from lightcrawler_ray.stages.frontier import CandidateFilter

    f = CandidateFilter(job.spec)
    f.robots = job.robots
    return f


def oracle_compare(engine_df, oracle_df) -> list[str]:
    """Column names, row count, and order-insensitive values (floats to
    1e-9), plus raw dtype-kind gaps — the rule of tools/sweep_oracle.py,
    whose normalizers are reused."""
    from tools.sweep_oracle import _norm, _type_gaps

    bad = [f"TYPE {gap}" for gap in _type_gaps(engine_df, oracle_df)]
    a, b = _norm(engine_df), _norm(oracle_df)
    if list(a.columns) != list(b.columns):
        return bad + [f"cols {list(a.columns)} vs {list(b.columns)}"]
    if len(a) != len(b):
        return bad + [f"rows {len(a)} vs {len(b)}"]
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if np.issubdtype(a[c].dtype, np.floating):
            if not np.allclose(av, bv, rtol=1e-9, atol=1e-9, equal_nan=True):
                bad.append(c)
        elif (av != bv).sum():
            bad.append(c)
    return bad
