#!/usr/bin/env python3
"""Reader for the span files the benchmark runner writes with --trace 1.

Each line is one span: {"run", "id", "parent", "name", "start_ns", "end_ns"}.
`run` identifies one rep (one whole workload: set-up plus schedule); `parent`
is the id of the enclosing span, -1 for a root. Spans of a rep hang under
its "rep" root, which covers set-up plus schedule; the leaves are the
benchmark's calls into the program. The direct layer probes are roots of
their own.

    python3 e2e_bench/spans.py FILE

prints, per root name, the tree aggregated over every run by name path:
calls, inclusive ms and self ms (inclusive minus the children's inclusive
time), then the structural checks run.py also applies.
"""
import json
import sys
from collections import defaultdict


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _children(spans):
    kids = defaultdict(list)
    for s in spans:
        kids[(s["run"], s["parent"])].append(s)
    return kids


def dur_ns(s):
    return s["end_ns"] - s["start_ns"]


def child_sum_violations(spans):
    """Spans whose children's inclusive time exceeds their own."""
    kids = _children(spans)
    bad = []
    for s in spans:
        total = sum(dur_ns(c) for c in kids[(s["run"], s["id"])])
        if total > dur_ns(s):
            bad.append(f'run {s["run"]} span {s["id"]} {s["name"]}: children {total} ns '
                       f'> {dur_ns(s)} ns')
    return bad


def per_run(spans):
    """{run: {"wall_ns", "coverage", "layers": {name: summed ns}}} for every
    run that has a "rep" root. coverage is the time inside calls into the
    program (the leaf spans under the rep) divided by the rep's wall; the
    rest is the benchmark's own loop and grouping overhead."""
    kids = _children(spans)
    out = {}
    for s in spans:
        if s["parent"] == -1 and s["name"] == "rep":
            out[s["run"]] = {"wall_ns": dur_ns(s), "leaf_ns": 0, "layers": defaultdict(int)}
    for s in spans:
        r = out.get(s["run"])
        if r is None or s["parent"] == -1:
            continue
        r["layers"][s["name"]] += dur_ns(s)
        if not kids[(s["run"], s["id"])]:
            r["leaf_ns"] += dur_ns(s)
    for r in out.values():
        r["coverage"] = r["leaf_ns"] / r["wall_ns"] if r["wall_ns"] else 0.0
    return out


def tree(spans):
    """Aggregate by name path: {path tuple: [calls, inclusive ns, self ns]}."""
    by_id = {(s["run"], s["id"]): s for s in spans}
    kids = _children(spans)
    agg = defaultdict(lambda: [0, 0, 0])
    for s in spans:
        path = [s["name"]]
        p = s["parent"]
        while p != -1:
            parent = by_id[(s["run"], p)]
            path.append(parent["name"])
            p = parent["parent"]
        row = agg[tuple(reversed(path))]
        inc = dur_ns(s)
        row[0] += 1
        row[1] += inc
        row[2] += inc - sum(dur_ns(c) for c in kids[(s["run"], s["id"])])
    return agg


def format_tree(spans):
    agg = tree(spans)
    lines = [f'{"span (aggregated over runs)":<44}{"calls":>8}{"incl ms":>12}{"self ms":>12}']
    for path in sorted(agg, key=lambda p: (p[0], p)):
        calls, inc, self_ns = agg[path]
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(f"{label:<44}{calls:>8}{inc / 1e6:>12.3f}{self_ns / 1e6:>12.3f}")
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spans = load(argv[1])
    print(format_tree(spans))
    runs = per_run(spans)
    for run, r in sorted(runs.items()):
        print(f'run {run}: wall {r["wall_ns"] / 1e6:.3f} ms, span_coverage {r["coverage"]:.4f}')
    bad = child_sum_violations(spans)
    for line in bad:
        print("VIOLATION", line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
