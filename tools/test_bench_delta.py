#!/usr/bin/env python3
"""Tests of tools/bench_delta.py (stdlib unittest).

Run: python3 tools/test_bench_delta.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_delta  # noqa: E402


def row(name, metric, value, better="higher", unit="1/s"):
    return {"name": name, "metric": metric, "value": value, "unit": unit,
            "better": better}


class BenchDeltaTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.base = os.path.join(self._tmp.name, "base")
        self.cur = os.path.join(self._tmp.name, "cur")
        os.mkdir(self.base)
        os.mkdir(self.cur)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, directory, rows, name="BENCH_x.json"):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as f:
            json.dump({"bench": "x", "rows": rows}, f)

    def run_tool(self):
        """Returns (exit status, stdout, stderr) of the tool on both dirs."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = bench_delta.main(["bench_delta.py", self.base, self.cur])
        return rc, out.getvalue(), err.getvalue()

    def line_of(self, text, name, metric):
        for line in text.splitlines():
            if line.split()[:2] == [name, metric]:
                return line.split()
        self.fail(f"no line for {name} {metric} in:\n{text}")

    def test_each_verdict(self):
        cases = [  # (better, before, after, expected trend)
            ("higher", 100, 120, "better"),
            ("higher", 100, 80, "WORSE"),
            ("lower", 100, 80, "better"),
            ("lower", 100, 120, "WORSE"),
            ("higher", 100, 104, "~"),
            ("lower", -1.0, -1.0, "~"),
            ("neutral", 100, 300, "~"),
            ("zero", 0, 0, "ok"),
            ("zero", None, 2, "BAD"),
            ("zero", 0, None, ""),
        ]
        for better, before, after, expected in cases:
            self.assertEqual(bench_delta.trend(better, before, after),
                             expected, (better, before, after))
        self.write(self.base, [row("c", "up", 100), row("c", "down", 100)])
        self.write(self.cur, [row("c", "up", 150), row("c", "down", 50)])
        rc, out, _ = self.run_tool()
        self.assertEqual(rc, 0)
        self.assertEqual(self.line_of(out, "c", "up")[-2:], ["1.50x",
                                                             "better"])
        self.assertEqual(self.line_of(out, "c", "down")[-1], "WORSE")

    def test_nonzero_zero_row_is_bad_without_baseline(self):
        self.write(self.cur, [row("check", "mismatches", 1, "zero", "count"),
                              row("check", "clean", 0, "zero", "count")])
        rc, out, _ = self.run_tool()
        self.assertEqual(rc, 0)
        self.assertIn("no baseline", out)
        self.assertEqual(self.line_of(out, "check", "mismatches")[-1], "BAD")
        self.assertEqual(self.line_of(out, "check", "clean")[-1], "ok")

    def test_rows_in_one_run_only(self):
        self.write(self.base, [row("old", "qps", 5), row("both", "qps", 1)])
        self.write(self.cur, [row("new", "qps", 7), row("both", "qps", 1)])
        rc, out, _ = self.run_tool()
        self.assertEqual(rc, 0)
        self.assertEqual(self.line_of(out, "old", "qps")[2:4], ["5", "-"])
        self.assertEqual(self.line_of(out, "new", "qps")[2:4], ["-", "7"])
        self.assertEqual(self.line_of(out, "both", "qps")[-1], "~")

    def test_file_in_one_run_only(self):
        self.write(self.base, [row("a", "qps", 1)], "BENCH_gone.json")
        rc, out, _ = self.run_tool()
        self.assertEqual(rc, 0)
        self.assertIn("missing from the current run", out)
        self.assertEqual(self.line_of(out, "a", "qps")[2:4], ["1", "-"])

    def test_malformed_rows_fail_naming_file_and_row(self):
        bad_rows = [
            dict(row("a", "qps", 1), better="up"),
            dict(row("a", "qps", 1), value="1"),
            dict(row("a", "qps", 1), value=True),
            {"name": "a", "metric": "qps", "value": 1, "unit": "1/s"},
            dict(row("a", "qps", 1), extra=0),
            row("", "qps", 1),
        ]
        for bad in bad_rows:
            self.write(self.cur, [row("ok", "qps", 1), bad])
            rc, _, err = self.run_tool()
            self.assertEqual(rc, 1, bad)
            self.assertIn(os.path.join(self.cur, "BENCH_x.json") + ": row 1",
                          err)

    def test_duplicate_row_fails(self):
        self.write(self.base, [row("a", "qps", 1), row("b", "qps", 2),
                               row("a", "qps", 3)])
        rc, _, err = self.run_tool()
        self.assertEqual(rc, 1)
        self.assertIn(os.path.join(self.base, "BENCH_x.json") + ": row 2",
                      err)
        self.assertIn("duplicate a qps", err)

    def test_other_schema_fails(self):
        with open(os.path.join(self.cur, "BENCH_x.json"), "w",
                  encoding="utf-8") as f:
            json.dump({"cells": [{"items_per_s": 1.0}]}, f)
        rc, _, err = self.run_tool()
        self.assertEqual(rc, 1)
        self.assertIn("BENCH_x.json", err)


if __name__ == "__main__":
    unittest.main()
