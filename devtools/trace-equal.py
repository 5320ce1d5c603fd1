#!/usr/bin/env python3
"""Compare two Chrome-trace JSON files as multisets of spans.

    devtools/trace-equal.py a.trace.json b.trace.json

Span and parent ids (`args.span`, `args.parent`) are allocation order: a
change that reorders same-instant work renumbers them without changing any
span. So each span is keyed by its content -- name, ts, dur, pid, tid and
its other args -- plus its parent's key in place of the two ids (a root, or
a span whose parent is not in the file, keys its parent as absent). The two
files are equal when their key multisets are. Exits 0 and prints the span
count when they are; otherwise prints the first few spans each file holds
more often than the other and exits 1.

The benchmark writes only the first spans of a run (in `(start, end, id)`
order), so two runs whose spans tie on `(start, end)` at that cut can hold
different spans there; the report then names them.
"""

import json
import sys
from collections import Counter
from decimal import Decimal

SHOWN = 5


def keys(path):
    with open(path) as f:
        # Timestamps compare exactly, not as binary floats.
        events = json.load(f, parse_float=Decimal)["traceEvents"]
    by_id = {e["args"]["span"]: e for e in events}
    memo = {}

    def key(e):
        sid = e["args"]["span"]
        if sid not in memo:
            args = tuple(sorted((k, v) for k, v in e["args"].items() if k not in ("span", "parent")))
            parent = by_id.get(e["args"]["parent"])
            up = key(parent) if parent is not None else None
            memo[sid] = (e["name"], e["ts"], e["dur"], e["pid"], e["tid"], args, up)
        return memo[sid]

    return Counter(key(e) for e in events), len(events)


def show(k):
    name, ts, dur, pid, tid, args, up = k
    text = f"{name} ts={ts} dur={dur} pid={pid} tid={tid} {dict(args)}"
    return text + (f" <- {up[0]} ts={up[1]}" if up else "")


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    (a, na), (b, nb) = keys(sys.argv[1]), keys(sys.argv[2])
    if a == b:
        print(f"equal: {na} spans")
        return 0
    print(f"differ: {na} vs {nb} spans")
    for label, extra in (("only in a", a - b), ("only in b", b - a)):
        items = list(extra.items())
        print(f"{label}: {sum(extra.values())}")
        for k, n in items[:SHOWN]:
            print(f"  {n} x {show(k)}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
