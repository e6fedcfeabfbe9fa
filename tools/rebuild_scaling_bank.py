"""Summarize one or more scaling hunt JSONLs into a scaling bank JSON.

Collects every streamed ``{"pair": ...}`` record, re-grades nothing (each
pair carries the gate verdict computed live by the bench protocol that ran
it), and summarizes with bench.summarize_pairs — the
median-of-at-grade-quiet-pairs rule over the recorded bank, plus the graded
and all-pair efficiency lists for audit.  The committed SCALING_r05.json is
not this script's output: it holds round notes, the protocol and a
mechanism experiment, and none of the ``sources``/``graded_effs``/
``all_effs`` fields written here.

Usage: python tools/rebuild_scaling_bank.py OUT.json hunt1.jsonl [hunt2.jsonl ...]
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import summarize_pairs  # noqa: E402


def load_pairs(paths: list[str]) -> list[dict]:
    pairs = []
    for path in paths:
        for line in open(path):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
            except json.JSONDecodeError:
                continue
            if "pair" in d:
                pairs.append(d["pair"])
    return pairs


def main() -> None:
    out, *srcs = sys.argv[1:]
    pairs = load_pairs(srcs)
    if not pairs:
        raise SystemExit("no pairs found")
    summary = summarize_pairs(pairs)
    summary["sources"] = [Path(s).name for s in srcs]
    graded = [p["scaling_efficiency"] for p in pairs
              if p["quiet"] and not p["host_degraded"]]
    summary["graded_effs"] = sorted(graded)
    summary["all_effs"] = sorted(p["scaling_efficiency"] for p in pairs)
    with open(out, "w") as f:
        json.dump(summary, f, indent=1)
    print(f"{out}: {len(pairs)} pairs, {len(graded)} at-grade, "
          f"headline {summary['scaling_efficiency']} ({summary['headline_basis']})")


if __name__ == "__main__":
    main()
