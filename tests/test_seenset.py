"""The seen shards' one membership structure: exact 128-bit (hi, lo) keys,
answered through ``gate_parts`` for the crawl gate and ``check_and_add``."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from lightcrawler_ray.state.seenset import KeyTable, md5hex_to_u64_pairs


def _hex(hi: int, lo: int) -> str:
    return f"{hi:016x}{lo:016x}"


# keys sharing hi but not lo, sharing lo but not hi, and the unsigned extremes
_TWINS = [_hex(7, 1), _hex(7, 2), _hex(7, 3), _hex(5, 2), _hex(9, 2), _hex(2**64 - 1, 0)]


def test_md5_pairs_split_each_key_into_hi_lo():
    keys = [hashlib.md5(str(i).encode()).hexdigest() for i in range(50)] + _TWINS
    hi, lo = md5hex_to_u64_pairs(keys)
    assert hi.dtype == lo.dtype == np.uint64
    assert list(zip(hi.tolist(), lo.tolist())) == [(int(k[:16], 16), int(k[16:], 16)) for k in keys]
    assert md5hex_to_u64_pairs([])[0].size == 0


@pytest.mark.parametrize("bad", [[""], ["abc"], ["0" * 31, "0" * 33], ["0" * 32, "g" * 32]])
def test_malformed_keys_raise(bad):
    with pytest.raises(ValueError):
        md5hex_to_u64_pairs(bad)


def test_key_table_matches_a_set_of_pairs():
    """Random batches over few distinct hi and lo values, so most hi runs
    hold several keys; a Python set of pairs is the reference."""
    rng = np.random.default_rng(3)
    his = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    los = np.array([0, 5, 2**32 + 5, 2**63 + 1, 2**64 - 1], dtype=np.uint64)
    t, ref = KeyTable(), set()
    for _ in range(20):
        hi, lo = rng.choice(his, 12), rng.choice(los, 12)
        pos, found = t.locate(hi, lo)
        assert found.tolist() == [p in ref for p in zip(hi.tolist(), lo.tolist())]
        new = sorted(set(zip(hi.tolist(), lo.tolist())) - ref)
        nh = np.array([h for h, _ in new], dtype=np.uint64)
        nl = np.array([lo_ for _, lo_ in new], dtype=np.uint64)
        npos, nfound = t.locate(nh, nl)
        assert not nfound.any()
        t.insert(nh, nl, npos)
        ref.update(new)
        assert list(zip(t.hi.tolist(), t.lo.tolist())) == sorted(ref)
    assert t.members() == sorted(_hex(h, lo_) for h, lo_ in ref)
    assert KeyTable().members() == []


def _part(keys: list[str], seq, idx) -> dict:
    hi, lo = md5hex_to_u64_pairs(keys)
    return {"hi": hi, "lo": lo, "seq": np.asarray(seq, np.int64),
            "idx": np.asarray(idx, np.int64), "row": np.arange(len(keys), dtype=np.int64),
            "dups": 0}


@pytest.mark.parametrize("mode", ["exact", "cuckoo"])
def test_gate_parts_winner_is_min_seq_idx_per_128_bit_key(mode):
    from lightcrawler_ray.state.seenset import SeenShard

    rng = np.random.default_rng(11)
    blocks = [[_TWINS[i] for i in rng.integers(0, len(_TWINS), 15)] for _ in range(3)]
    order = rng.permutation(45)  # distinct (seq, idx) for every row
    parts = [_part(keys, order[b * 15:(b + 1) * 15] // 4, order[b * 15:(b + 1) * 15] % 4)
             for b, keys in enumerate(blocks)]
    best: dict[str, tuple] = {}
    for b, (keys, p) in enumerate(zip(blocks, parts)):
        for r, key in enumerate(keys):
            best[key] = min(best.get(key, (np.inf,)), (p["seq"][r], p["idx"][r], b, r))
    shard = SeenShard(0, 1 << 10, mode)
    counts, *rows = shard.gate_parts(*parts)
    got = {(b, int(r)) for b, rs in enumerate(rows) for r in rs}
    assert got == {(b, r) for *_, b, r in best.values()}
    assert counts[0].sum() == len(best) == len(set(sum(blocks, [])))
    assert counts[1].tolist() == [15, 15, 15]
    if mode == "exact":
        # a later round: only keys new at 128 bits win, even when they
        # share hi or lo with a member
        later = [_TWINS[0], _hex(7, 4), _hex(6, 2), _TWINS[3], _hex(7, 4)]
        counts, rows = shard.gate_parts(_part(later, [0, 2, 0, 0, 1], [0, 0, 0, 0, 0]))
        assert rows.tolist() == [2, 4]
        assert counts[:, 0].tolist() == [2, 5]
        assert shard.dump_members() == sorted(set(_TWINS + later))


@pytest.mark.parametrize("k", [1, 3])
def test_check_and_add_first_sighting_masks(ray_session, k):
    from lightcrawler_ray.state.seenset import SeenSet

    s = SeenSet(k, 1 << 10, "exact")
    try:
        a = _TWINS[:4]
        b = _TWINS[2:] + [_TWINS[4], _hex(7, 4)]
        assert s.check_and_add(a).tolist() == [True] * 4
        assert s.check_and_add(b).tolist() == [False, False, True, True, False, True]
        assert s.check_and_add([]).tolist() == []
        assert s.members() == sorted(set(a + b))
    finally:
        s.shutdown()


@pytest.mark.parametrize("mode", ["exact", "cuckoo"])
def test_snapshot_restore_round_trips_membership(ray_session, mode):
    from lightcrawler_ray.state.seenset import SeenSet

    keys = [hashlib.md5(f"u{i}".encode()).hexdigest() for i in range(200)] + _TWINS
    fresh = [hashlib.md5(f"v{i}".encode()).hexdigest() for i in range(50)]
    a, b = SeenSet(2, 1 << 10, mode), SeenSet(2, 1 << 10, mode)
    try:
        a.check_and_add(keys)
        b.restore(a.snapshot())
        assert not b.check_and_add(keys).any()
        assert b.check_and_add(fresh).all()
        loads = [st["load_factor"] for st in b.stats()]
        if mode == "exact":
            assert loads == [0.0, 0.0]
            assert a.members() == sorted(keys)
            assert b.members() == sorted(keys + fresh)
        else:
            assert min(loads) > 0
    finally:
        a.shutdown()
        b.shutdown()


@pytest.mark.parametrize("mode", ["both", "Exact", ""])
def test_unknown_seen_mode_raises(mode):
    from lightcrawler_ray.state.seenset import SeenSet, SeenShard

    with pytest.raises(ValueError, match="seen_mode"):
        SeenSet(2, 16, mode)
    with pytest.raises(ValueError, match="seen_mode"):
        SeenShard(0, 16, mode)
