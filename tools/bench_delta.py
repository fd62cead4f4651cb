#!/usr/bin/env python3
"""Before/after table of the rows in collected BENCH_*.json files.

Usage: bench_delta.py BASELINE_DIR CURRENT_DIR [GLOB...]

Every bench writes one format (bench/bench_util.h, BenchRows):

    {"bench": <name>, "rows": [{"name": str, "metric": str, "value": number,
                                "unit": str, "better": VERDICT}, ...]}

where VERDICT is one of:
    higher   a larger value is an improvement
    lower    a smaller value is an improvement
    neutral  informational; a move carries no verdict
    zero     a self-check count; any non-zero value is BAD

Rows are paired by (file, name, metric) across the two directories and the
trend column comes from the row's own `better`: "better" or "WORSE" when
the value moved by more than 5%, "~" otherwise. A `zero` row reads "ok" at
0 and BAD otherwise, with or without a baseline. Rows or files present in
only one run print "-" for the missing side, so a cold baseline cache
never fails the step.
A file that is not valid JSON, or that breaks the format (a bad field, an
unknown `better`, a duplicate (name, metric)), is reported with its path
and row index and makes the exit status 1. Stdlib only.
"""

import glob
import json
import math
import os
import sys

VERDICTS = ("higher", "lower", "neutral", "zero")
FIELDS = {"name": str, "metric": str, "value": (int, float), "unit": str,
          "better": str}


class BenchFormatError(Exception):
    pass


def load_rows(path):
    """Returns {(name, metric): row} for `path`; raises BenchFormatError."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        raise BenchFormatError(f"{path}: {err}") from err
    if not isinstance(doc, dict) or not isinstance(doc.get("bench"), str) \
            or not isinstance(doc.get("rows"), list):
        raise BenchFormatError(f"{path}: expected {{\"bench\": str, "
                               f"\"rows\": [...]}}")
    rows = {}
    for i, row in enumerate(doc["rows"]):
        where = f"{path}: row {i}"
        if not isinstance(row, dict) or set(row) != set(FIELDS):
            raise BenchFormatError(f"{where}: expected exactly the fields "
                                   f"{', '.join(FIELDS)}")
        for field, kind in FIELDS.items():
            if not isinstance(row[field], kind) or isinstance(row[field],
                                                              bool):
                raise BenchFormatError(f"{where}: bad {field} "
                                       f"{row[field]!r}")
        if not row["name"] or not row["metric"]:
            raise BenchFormatError(f"{where}: empty name or metric")
        if not math.isfinite(row["value"]):
            raise BenchFormatError(f"{where}: value is not finite")
        if row["better"] not in VERDICTS:
            raise BenchFormatError(f"{where}: better must be one of "
                                   f"{'|'.join(VERDICTS)}")
        key = (row["name"], row["metric"])
        if key in rows:
            raise BenchFormatError(f"{where}: duplicate {key[0]} {key[1]}")
        rows[key] = row
    return rows


def trend(better, before, after):
    """The verdict column for one paired row."""
    if better == "zero":
        return "" if after is None else "BAD" if after else "ok"
    if before is None or after is None:
        return ""
    if better == "neutral" or abs(after - before) <= 0.05 * abs(before):
        return "~"
    return "better" if (after > before) == (better == "higher") else "WORSE"


def fmt(value):
    return "-" if value is None else f"{value:.6g}"


def print_file(name, base, cur):
    """Prints the table of one BENCH file; `base`/`cur` may be None."""
    print(f"\n== {name} ==")
    if cur is None:
        print("  (missing from the current run)")
    if base is None:
        print("  (no baseline: first run or cold cache)")
    base, cur = base or {}, cur or {}
    keys = list(cur) + [k for k in base if k not in cur]
    width = max([len(n) for n, _ in keys] + [4])
    mwidth = max([len(m) for _, m in keys] + [6])
    print(f"  {'name':<{width}} {'metric':<{mwidth}} {'before':>12} "
          f"{'after':>12} {'delta':>8} {'trend':>7}")
    for key in keys:
        row = cur.get(key) or base[key]
        before = base[key]["value"] if key in base else None
        after = cur[key]["value"] if key in cur else None
        delta = f"{after / before:.2f}x" if before and after is not None \
            else "-"
        print(f"  {key[0]:<{width}} {key[1]:<{mwidth}} {fmt(before):>12} "
              f"{fmt(after):>12} {delta:>8} "
              f"{trend(row['better'], before, after):>7}")


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 2
    base_dir, cur_dir = argv[1], argv[2]
    patterns = argv[3:] or ["BENCH_*.json"]
    files = sorted({os.path.basename(p)
                    for pat in patterns
                    for d in (cur_dir, base_dir)
                    for p in glob.glob(os.path.join(d, pat))})
    if not files:
        print("bench_delta: no bench JSON found")
        return 0
    errors = 0
    for name in files:
        runs = []
        for d in (base_dir, cur_dir):
            path = os.path.join(d, name)
            try:
                runs.append(load_rows(path) if os.path.exists(path) else None)
            except BenchFormatError as err:
                print(f"bench_delta: {err}", file=sys.stderr)
                errors += 1
                runs.append(None)
        print_file(name, *runs)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
