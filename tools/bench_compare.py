#!/usr/bin/env python3
"""Benchmark regression gate: diff fresh BENCH_*.json files against committed baselines.

Usage:
    bench_compare.py --baseline bench/baselines --current build [--threshold 0.25]

Every BENCH_*.json in the baseline directory is compared with the file of
the same name in the current directory; a baseline without a current file
fails. Files without a baseline are not gated. Every gated bench writes one
document shape (bench/bench_report.h):

    {"bench": NAME, "config": {KEY: VALUE, ...},
     "rows": [{"name": ..., "metric": ..., "value": ..., "unit": ..., "gate": ...}]}

and every pair is compared the same way:

  config     each key must hold the same value on both sides: rates measured
             under different flags, thread counts or build types are not
             comparable, and silently gating nothing is worse than failing.
  rows       keyed by (name, metric) and compared asymmetrically: a baseline
             row missing from the current run fails (a gated metric stopped
             being measured), while a current row the baseline lacks is
             warned and skipped - new rows gate only after the baseline is
             refreshed.
  tight      deterministic simulation output. A drop of more than
             min(threshold, 1%) fails: enough slack for floating-point drift
             across compilers, tight enough that a real behavioural shift
             (which the wall-clock threshold would hide) fails loudly.
  noisy      wall-clock rates. A drop of more than the threshold fails
             (default 25%; CI runners are noisy, calibrate there, not here).
  invariant  a verdict the bench computed; the current value must be true.

A rate whose baseline is not positive is skipped, and a document that
compared no rate at all fails. Only regressions gate; improvements are
reported and pass. To refresh a baseline after an intentional change, copy
the current file over the committed one (the gate prints the command).

Stdlib only - no third-party imports.
"""

import argparse
import glob
import json
import os
import sys

GATES = ("tight", "noisy", "invariant")
TIGHT_LIMIT = 0.01


class SchemaError(Exception):
    """A file that cannot be read as a bench document."""


def parse_document(doc, source):
    """Validates a loaded bench document and indexes its rows by (name, metric)."""
    if not isinstance(doc, dict) or not isinstance(doc.get("bench"), str):
        raise SchemaError(f"{source}: no 'bench' name")
    if not isinstance(doc.get("config"), dict):
        raise SchemaError(f"{source}: no 'config' object")
    if not isinstance(doc.get("rows"), list):
        raise SchemaError(f"{source}: no 'rows' list")
    rows = {}
    for row in doc["rows"]:
        if not isinstance(row, dict) or not all(
                isinstance(row.get(field), str) for field in ("name", "metric", "unit")):
            raise SchemaError(f"{source}: row {row} needs a string name, metric and unit")
        key = (row["name"], row["metric"])
        label = f"{row['metric']}[{row['name']}]"
        if row.get("gate") not in GATES:
            raise SchemaError(f"{source}: {label}: unknown gate {row.get('gate')!r} "
                              f"(known: {', '.join(GATES)})")
        value = row.get("value")
        if isinstance(value, bool) != (row["gate"] == "invariant") or not isinstance(
                value, (int, float)):
            raise SchemaError(f"{source}: {label}: value {value!r} must be true/false for "
                              f"an invariant and a number otherwise")
        if key in rows:
            raise SchemaError(f"{source}: duplicate row {label}")
        rows[key] = row
    return {"bench": doc["bench"], "config": doc["config"], "rows": rows}


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as error:
        raise SchemaError(f"cannot read {path}: {error}") from None
    return parse_document(doc, path)


def compare(baseline, current, threshold):
    """Gates one parsed document pair; returns (report lines, failures)."""
    if baseline["bench"] != current["bench"]:
        return [], [f"baseline is '{baseline['bench']}' but current is '{current['bench']}' "
                    f"- wrong file pairing?"]
    lines, failures = [], []
    for key in sorted(baseline["config"].keys() | current["config"].keys()):
        base, cur = baseline["config"].get(key), current["config"].get(key)
        lines.append(f"  config {key}: baseline {base}, current {cur}")
        if base != cur:
            failures.append(f"config mismatch on '{key}': baseline ran with {base}, current "
                            f"with {cur} - align the bench flags or refresh the baseline")
    missing = [f"{metric}[{name}]" for name, metric in baseline["rows"]
               if (name, metric) not in current["rows"]]
    if missing:
        failures.append(f"rows missing from current run: {', '.join(missing)} - "
                        f"a gated metric is no longer measured")

    rates_compared = 0
    for key, row in current["rows"].items():
        label = f"{row['metric']}[{row['name']}]"
        base = baseline["rows"].get(key)
        if base is None:
            lines.append(f"  {label}: not in baseline; skipped (refresh the baseline to gate it)")
        elif base["gate"] != row["gate"]:
            failures.append(f"{label}: gate changed from {base['gate']} to {row['gate']} - "
                            f"refresh the baseline")
        elif row["gate"] == "invariant":
            lines.append(f"  {label}: {'ok' if row['value'] else 'VIOLATED'}")
            if not row["value"]:
                failures.append(f"{label} no longer holds")
        elif base["value"] <= 0:
            lines.append(f"  {label}: baseline {base['value']:.0f} not positive; skipped")
        else:
            limit = min(threshold, TIGHT_LIMIT) if row["gate"] == "tight" else threshold
            rates_compared += 1
            change = (row["value"] - base["value"]) / base["value"]
            verdict = "ok"
            if change < -limit:
                verdict = "REGRESSION"
                failures.append(f"{label}: {base['value']:.0f} -> {row['value']:.0f} "
                                f"({change:+.1%}, limit -{limit:.0%})")
            lines.append(f"  {label}: {base['value']:.0f} -> {row['value']:.0f} "
                         f"({change:+.1%}, {row['gate']}) {verdict}")
    if rates_compared == 0:
        failures.append("no rates were compared - the gate gated nothing")
    return lines, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="directory of committed BENCH_*.json baselines")
    parser.add_argument("--current", required=True,
                        help="directory of freshly produced BENCH_*.json files")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="maximum tolerated relative regression (default 0.25 = 25%%)")
    args = parser.parse_args(argv)

    baselines = sorted(glob.glob(os.path.join(args.baseline, "BENCH_*.json")))
    if not baselines:
        print(f"bench_compare: no BENCH_*.json in {args.baseline} - the gate gated nothing")
        return 1
    failed = []
    for baseline_path in baselines:
        current_path = os.path.join(args.current, os.path.basename(baseline_path))
        print(f"bench_compare: {os.path.basename(baseline_path)} "
              f"(threshold {args.threshold:.0%})")
        try:
            lines, failures = compare(load(baseline_path), load(current_path), args.threshold)
        except SchemaError as error:
            lines, failures = [], [str(error)]
        for line in lines:
            print(line)
        for failure in failures:
            print(f"  FAIL: {failure}")
        if failures:
            failed.append((baseline_path, current_path))

    if failed:
        print("\nFAIL: benchmark regression gate\n\nIf intentional, refresh the baselines:")
        for baseline_path, current_path in failed:
            print(f"  cp {current_path} {baseline_path}")
        return 1
    print("\nPASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
