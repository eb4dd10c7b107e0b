"""Summarize the spans a traced run wrote: calls, inclusive and self time
per span name, optionally only inside spans of one name.

    python3 perfbench/spans.py .perfbench_out/spans-train-sbm-seed1.jsonl
    python3 perfbench/spans.py FILE --within unfold.propagate

With ``--within NAME`` only spans that have an ancestor named NAME count,
and each line also gives its inclusive time as a share of NAME's total.
``--tag`` counts only ``NAME`` spans with that tag (model spans are tagged
with their backend), e.g. ``--within model.forward --tag unrolled``.
"""

import argparse
import json
import sys
from collections import defaultdict


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def summarize(spans, within=None, tag=None):
    """{name: [calls, inclusive s, self s]} and the total inclusive time of
    the outermost ``within`` spans (None without ``within``)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    inside = [within is None] * len(spans)
    root_total = 0.0 if within else None
    for i, s in enumerate(spans):
        p = s["parent"]
        parent_inside = p >= 0 and inside[p]
        is_root = s["name"] == within and (tag is None or s["tag"] == tag)
        if within is not None:
            inside[i] = parent_inside or is_root
            if is_root and not parent_inside:
                root_total += s["end"] - s["start"]
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for i, s in enumerate(spans):
        if not inside[i]:
            continue
        dur = s["end"] - s["start"]
        row = table[s["name"]]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child[i]
    return dict(table), root_total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("file")
    parser.add_argument("--within")
    parser.add_argument("--tag")
    args = parser.parse_args(argv)
    table, total = summarize(load(args.file), args.within, args.tag)
    print(f"{'span':34} {'calls':>8} {'inclusive_s':>12} {'self_s':>10}"
          + (f" {'share':>7}" if total else ""))
    for name, (calls, incl, self_s) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        share = f" {incl / total:7.3f}" if total else ""
        print(f"{name:34} {calls:8d} {incl:12.4f} {self_s:10.4f}{share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
