#!/usr/bin/env python3
"""Bench trending: compare a fresh benchmark run against run-store history.

Reads the columnar run-store written by the bench binaries (obs::RunStore,
see src/obs/run_store.hpp for the on-disk format) and compares the newest
run's metric values against the median of the stored history for the same
configuration (matched by config hash, so quick and full runs trend
separately). Direction is inferred from the metric name: time/byte-like
columns (``*_ms``, ``*_ns``, ``*_us``, ``*per_event``, ``*_bytes``) must
not grow, speedup/ratio-like columns must not shrink; anything else is
reported but never gated.

Usage:
  scripts/bench_trend.py --runstore data/runstore [--bench BENCH_PR6.json]
                         [--run-id <id>] [--tolerance 0.10]
                         [--min-history 2] [--mode warn|enforce]

Exit status: 0 when clean (or ``--mode warn``), 1 when a regression is
flagged under ``--mode enforce``, 2 on usage errors. CI runs warn mode on
pull requests and enforce mode on main.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import struct
import sys

COLUMN_MAGIC = b"CFRC"
COLUMN_VERSION = 1
COLUMN_HEADER = struct.Struct("<4sHH")
COLUMN_RECORD = struct.Struct("<Qd")

LOWER_IS_BETTER = ("_ms", "_ns", "_us", "per_event", "_bytes")
HIGHER_IS_BETTER = ("speedup", "ratio", "per_second")

# Google Benchmark reports real_time/cpu_time in each benchmark's own
# ``time_unit`` (set by ->Unit(...)); nanoseconds per unit.
NS_PER_TIME_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def to_ns(value, time_unit):
    """A Google Benchmark time in ``time_unit`` (ns/us/ms/s) as nanoseconds."""
    if time_unit not in NS_PER_TIME_UNIT:
        raise ValueError(f"unknown benchmark time_unit {time_unit!r}")
    return value * NS_PER_TIME_UNIT[time_unit]


def micro_rows(micro):
    """Tracked rows of a Google Benchmark JSON document, times in ns.

    Aggregate rows (mean/median/stddev of repetitions) are dropped; only
    per-run iterations are tracked.
    """
    rows = []
    for b in micro.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        unit = b.get("time_unit", "ns")
        rows.append({"name": b["name"],
                     "real_time_ns": to_ns(b["real_time"], unit),
                     "cpu_time_ns": to_ns(b["cpu_time"], unit),
                     "items_per_second": b.get("items_per_second")})
    return rows


def read_manifest(store_dir):
    """Manifest rows as a list of dicts (row, run_id, git_sha, config_hash)."""
    rows = []
    path = os.path.join(store_dir, "manifest.tsv")
    if not os.path.exists(path):
        return rows
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(f"malformed manifest line: {line!r}")
            rows.append({
                "row": int(fields[0]),
                "run_id": fields[1],
                "git_sha": fields[2],
                "config_hash": fields[3],
            })
    return rows


def read_column(store_dir, name):
    """All (row, value) records of a column, in append order."""
    path = os.path.join(store_dir, "columns", name + ".col")
    if not os.path.exists(path):
        return []
    with open(path, "rb") as fh:
        header = fh.read(COLUMN_HEADER.size)
        if len(header) < COLUMN_HEADER.size:
            return []
        magic, version, _reserved = COLUMN_HEADER.unpack(header)
        if magic != COLUMN_MAGIC:
            raise ValueError(f"bad column magic in {path}")
        if version != COLUMN_VERSION:
            raise ValueError(f"unsupported column version {version} in {path}")
        records = []
        while True:
            raw = fh.read(COLUMN_RECORD.size)
            if len(raw) < COLUMN_RECORD.size:  # clean EOF or torn tail
                break
            records.append(COLUMN_RECORD.unpack(raw))
        return records


def list_columns(store_dir):
    columns_dir = os.path.join(store_dir, "columns")
    if not os.path.isdir(columns_dir):
        return []
    return sorted(
        name[:-len(".col")] for name in os.listdir(columns_dir)
        if name.endswith(".col"))


def append_run(store_dir, key, values):
    """Python-side writer (tests, backfills): one manifest row + values.

    ``key`` is a (run_id, git_sha, config_hash) triple; ``values`` maps
    column name -> float or list of floats. Matches the C++ writer
    byte-for-byte.
    """
    os.makedirs(os.path.join(store_dir, "columns"), exist_ok=True)
    manifest = os.path.join(store_dir, "manifest.tsv")
    row = len(read_manifest(store_dir))
    sane = [str(field).replace("\t", "_").replace("\n", "_") for field in key]
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("\t".join([str(row)] + sane) + "\n")
    for name, value in values.items():
        path = os.path.join(store_dir, "columns", name + ".col")
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        with open(path, "ab") as fh:
            if fresh:
                fh.write(COLUMN_HEADER.pack(COLUMN_MAGIC, COLUMN_VERSION, 0))
            series = value if isinstance(value, (list, tuple)) else [value]
            for v in series:
                fh.write(COLUMN_RECORD.pack(row, float(v)))
    return row


def direction(column):
    """'down' (lower is better), 'up', or None (untrended)."""
    if any(column.endswith(suffix) or suffix in column.rsplit(".", 1)[-1]
           for suffix in HIGHER_IS_BETTER):
        return "up"
    if any(column.endswith(suffix) for suffix in LOWER_IS_BETTER):
        return "down"
    return None


def per_row_value(records, row_ids):
    """Median per row for rows in ``row_ids`` (a row may hold a series)."""
    grouped = {}
    for row, value in records:
        if row in row_ids:
            grouped.setdefault(row, []).append(value)
    return {row: statistics.median(series) for row, series in grouped.items()}


def trend(store_dir, fresh_run_id, tolerance, min_history):
    """Compares the fresh run against history; returns a list of findings.

    Each finding: dict with column, status ('ok', 'regression',
    'improvement', 'no-history', 'untrended'), fresh, baseline, delta.
    """
    manifest = read_manifest(store_dir)
    fresh_rows = [r for r in manifest if r["run_id"] == fresh_run_id]
    if not fresh_rows:
        raise ValueError(f"run id {fresh_run_id!r} has no manifest rows in {store_dir}")
    config_hashes = {r["config_hash"] for r in fresh_rows}
    fresh_ids = {r["row"] for r in fresh_rows}
    history_ids = {
        r["row"] for r in manifest
        if r["config_hash"] in config_hashes and r["run_id"] != fresh_run_id
    }

    findings = []
    for column in list_columns(store_dir):
        records = read_column(store_dir, column)
        fresh_values = per_row_value(records, fresh_ids)
        if not fresh_values:
            continue  # this run did not produce the column
        fresh = statistics.median(fresh_values.values())
        history = sorted(per_row_value(records, history_ids).values())
        finding = {"column": column, "fresh": fresh, "baseline": None,
                   "delta": None, "status": "ok", "history": len(history)}
        sense = direction(column)
        if len(history) < min_history:
            finding["status"] = "no-history"
            findings.append(finding)
            continue
        baseline = statistics.median(history)
        finding["baseline"] = baseline
        if baseline != 0:
            finding["delta"] = (fresh - baseline) / abs(baseline)
        if sense is None:
            finding["status"] = "untrended"
        elif finding["delta"] is None:
            finding["status"] = "ok"
        elif sense == "down" and finding["delta"] > tolerance:
            finding["status"] = "regression"
        elif sense == "up" and finding["delta"] < -tolerance:
            finding["status"] = "regression"
        elif sense == "down" and finding["delta"] < -tolerance:
            finding["status"] = "improvement"
        elif sense == "up" and finding["delta"] > tolerance:
            finding["status"] = "improvement"
        findings.append(finding)
    return findings


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runstore", required=True, help="run-store directory")
    parser.add_argument("--bench", help="fresh BENCH_*.json (source of the run id)")
    parser.add_argument("--run-id", help="fresh run id (overrides --bench context)")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed relative drift (default 0.10)")
    parser.add_argument("--min-history", type=int, default=2,
                        help="history rows required before gating (default 2)")
    parser.add_argument("--mode", choices=("warn", "enforce"), default="warn",
                        help="warn: report only; enforce: exit 1 on regression")
    args = parser.parse_args(argv)

    run_id = args.run_id
    if run_id is None and args.bench:
        with open(args.bench, encoding="utf-8") as fh:
            run_id = json.load(fh).get("context", {}).get("run_id")
    if run_id is None:
        parser.error("need --run-id or a --bench file with context.run_id")

    try:
        findings = trend(args.runstore, run_id, args.tolerance, args.min_history)
    except ValueError as err:
        print(f"bench_trend: {err}", file=sys.stderr)
        return 1 if args.mode == "enforce" else 0

    regressions = [f for f in findings if f["status"] == "regression"]
    width = max((len(f["column"]) for f in findings), default=10)
    print(f"bench_trend: run {run_id} vs stored history "
          f"(tolerance {args.tolerance:.0%}, min history {args.min_history})")
    for f in findings:
        fresh = f"{f['fresh']:.6g}"
        if f["baseline"] is None:
            print(f"  {f['column']:<{width}}  {fresh:>12}  "
                  f"[{f['status']}: {f['history']} stored run(s)]")
        else:
            delta = "n/a" if f["delta"] is None else f"{f['delta']:+.1%}"
            print(f"  {f['column']:<{width}}  {fresh:>12}  vs median "
                  f"{f['baseline']:.6g}  {delta:>8}  [{f['status']}]")
    if regressions:
        print(f"bench_trend: {len(regressions)} regression(s) beyond "
              f"{args.tolerance:.0%} tolerance", file=sys.stderr)
        return 1 if args.mode == "enforce" else 0
    print("bench_trend: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
