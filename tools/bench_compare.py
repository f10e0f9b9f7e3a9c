#!/usr/bin/env python3
"""Compare perfbench runs of two commits, workload by workload.

Usage:

    tools/bench_compare.py [--spec BENCHMARK.json] [--base LABEL] RUNS...
    tools/bench_compare.py --self-test

Each RUNS file holds one run per line: a side label, the workload name
and the JSON result line perfbench/run.py prints last, separated by
whitespace, e.g.

    parent service_mix {"correct": true, "attempted": 900, ...}
    change service_mix {"correct": true, "attempted": 900, ...}

Run the two commits alternately (parent, change, parent, ...) so that
slow spells of a shared host hit both sides; the i-th run of one side
is paired with the i-th run of the other on the same workload. The side
named by --base (default: the first label seen) is the reference.

For every workload and metric the report gives each side's median and
interquartile range, the relative change of the medians, and how many
pairs the change won. A metric whose median is worse than the base's by
more than its BENCHMARK.json bound is flagged REGRESSION; so is a run
that reports correct: false or failed operations. A gain is marked
"gain" when the change won at least 9 of 10 pairs (scaled to the pair
count) and its median beat the base's by more than the base's IQR.
Exits 1 when anything is flagged. Reads BENCHMARK.json; writes nothing.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_metric_specs(path):
    """name -> {"better": "lower"|"higher", "bound": float or None}."""
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    specs = {}
    for group in ("end_to_end", "per_layer"):
        for m in spec.get(group, []):
            specs[m["name"]] = {"better": m["better"],
                                "bound": m.get("bound"),
                                "unit": m.get("unit", "")}
    return specs


def parse_runs(lines):
    """[(side, workload, result dict)] from 'side workload {json}' lines."""
    runs = []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) != 3:
            raise ValueError("line %d: want '<side> <workload> <json>'" %
                             number)
        try:
            result = json.loads(parts[2])
        except ValueError as e:
            raise ValueError("line %d: bad JSON (%s)" % (number, e))
        runs.append((parts[0], parts[1], result))
    return runs


def quartiles(values):
    """(q1, median, q3), linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(runs, specs, base=None):
    """Report lines and the number of flagged findings."""
    sides = []
    for side, _, _ in runs:
        if side not in sides:
            sides.append(side)
    if len(sides) != 2:
        raise ValueError("want runs of exactly two sides, got %r" % sides)
    base = base or sides[0]
    if base not in sides:
        raise ValueError("base side %r not among %r" % (base, sides))
    change = sides[1] if sides[0] == base else sides[0]

    by_workload = {}
    for side, workload, result in runs:
        by_workload.setdefault(workload, {base: [], change: []})
        by_workload[workload][side].append(result)

    out = []
    flagged = 0
    for workload in sorted(by_workload):
        sets = by_workload[workload]
        pairs = min(len(sets[base]), len(sets[change]))
        out.append("%s: %d %s vs %d %s runs, %d pairs" %
                   (workload, len(sets[base]), base, len(sets[change]),
                    change, pairs))
        for side in (base, change):
            for i, r in enumerate(sets[side]):
                if not r.get("correct", False) or r.get("failed", 0) > 0:
                    flagged += 1
                    out.append("  REGRESSION %s run %d: correct=%s failed=%s"
                               % (side, i, r.get("correct"),
                                  r.get("failed")))
        if pairs == 0:
            continue
        names = [n for n in sets[base][0].get("metrics", {})
                 if all(n in r.get("metrics", {})
                        for r in sets[base][:pairs] + sets[change][:pairs])]
        rows = [("metric", base + " median [IQR]", change + " median [IQR]",
                 "change", "wins", "")]
        for name in names:
            spec = specs.get(name, {"better": "lower", "bound": None})
            lower = spec["better"] == "lower"
            b = [r["metrics"][name]["value"] for r in sets[base][:pairs]]
            c = [r["metrics"][name]["value"] for r in sets[change][:pairs]]
            bq1, bmed, bq3 = quartiles(b)
            cq1, cmed, cq3 = quartiles(c)
            wins = sum(1 for x, y in zip(b, c) if (y < x if lower else y > x))
            rel = (cmed - bmed) / abs(bmed) if bmed != 0 else 0.0
            worse = rel if lower else -rel
            notes = []
            bound = spec["bound"]
            if bound is not None and worse > bound:
                flagged += 1
                notes.append("REGRESSION (bound %g)" % bound)
            beat = (bmed - cmed) if lower else (cmed - bmed)
            if wins * 10 >= 9 * pairs and beat > bq3 - bq1:
                notes.append("gain")
            rows.append((name, "%.4g [%.4g-%.4g]" % (bmed, bq1, bq3),
                         "%.4g [%.4g-%.4g]" % (cmed, cq1, cq3),
                         "%+.1f%%" % (100.0 * rel), "%d/%d" % (wins, pairs),
                         " ".join(notes)))
        widths = [max(len(row[i]) for row in rows) for i in range(5)]
        for row in rows:
            out.append(("  %-*s  %*s  %*s  %*s  %*s  %s" %
                        (widths[0], row[0], widths[1], row[1], widths[2],
                         row[2], widths[3], row[3], widths[4], row[4],
                         row[5])).rstrip())
    return out, flagged


# --------------------------------------------------------------------------
# Self-test: fixture runs with known medians, wins and one regression.

FIXTURE_SPECS = {
    "latency_p50_ms": {"better": "lower", "bound": 0.25, "unit": "ms"},
    "volumes_per_s": {"better": "higher", "bound": 0.25, "unit": "1/s"},
    "peak_rss_mb": {"better": "lower", "bound": 0.1, "unit": "MiB"},
    "delay.mdelays_per_s": {"better": "higher", "bound": None, "unit": "M/s"},
}


def fixture_line(side, latency, vps, rss, mdelays, correct=True, failed=0):
    metrics = {"latency_p50_ms": {"value": latency, "unit": "ms"},
               "volumes_per_s": {"value": vps, "unit": "1/s"},
               "peak_rss_mb": {"value": rss, "unit": "MiB"},
               "delay.mdelays_per_s": {"value": mdelays, "unit": "M/s"}}
    return "%s mix %s" % (side, json.dumps(
        {"correct": correct, "attempted": 10, "failed": failed,
         "metrics": metrics}))


def self_test():
    failures = []
    lines = []
    # Ten alternating pairs: latency falls 9.0 -> 2.5 ms (the change wins
    # every pair), volumes/s is flat, RSS rises 20% (beyond its 0.1
    # bound), the unbounded per-layer rate triples.
    for i in range(10):
        lines.append(fixture_line("parent", 9.0 + 0.1 * i, 88.0, 13.0,
                                  100.0 + i))
        lines.append(fixture_line("change", 2.5 + 0.01 * i, 88.0, 15.6,
                                  300.0 + i))
    report, flagged = compare(parse_runs(lines), FIXTURE_SPECS)
    text = "\n".join(report)
    row = {l.split()[0]: l for l in report if l.startswith("  ") and
           l.split()[0] in FIXTURE_SPECS}
    if flagged != 1:
        failures.append("want 1 flagged finding (RSS), got %d:\n%s" %
                        (flagged, text))
    if "REGRESSION" not in row.get("peak_rss_mb", ""):
        failures.append("peak_rss_mb +20%% not flagged:\n" + text)
    for name in ("latency_p50_ms", "volumes_per_s", "delay.mdelays_per_s"):
        if "REGRESSION" in row.get(name, "REGRESSION"):
            failures.append("%s flagged or missing:\n%s" % (name, text))
    if " 10/10 " not in row.get("latency_p50_ms", "") + " " or \
            "gain" not in row.get("latency_p50_ms", ""):
        failures.append("latency win 10/10 + gain not reported:\n" + text)
    if "gain" in row.get("volumes_per_s", ""):
        failures.append("flat volumes_per_s reported as a gain:\n" + text)
    # Medians and IQR of the parent latency 9.0..9.9: 9.45 [9.225-9.675].
    if "9.45 [9.225-9.675]" not in row.get("latency_p50_ms", ""):
        failures.append("parent latency median/IQR wrong:\n" + text)
    # A failed run is flagged even when every metric is fine.
    bad = [fixture_line("parent", 9.0, 88.0, 13.0, 100.0),
           fixture_line("change", 9.0, 88.0, 13.0, 100.0, failed=2)]
    _, flagged = compare(parse_runs(bad), FIXTURE_SPECS)
    if flagged != 1:
        failures.append("a run with failed operations was not flagged")
    # --base picks the reference side regardless of line order.
    swapped = [fixture_line("change", 2.5, 88.0, 13.0, 300.0),
               fixture_line("parent", 9.0, 88.0, 13.0, 100.0)]
    report, _ = compare(parse_runs(swapped), FIXTURE_SPECS, base="parent")
    if not any(l.startswith("  latency_p50_ms") and "-72.2%" in l
               for l in report):
        failures.append("--base did not make parent the reference:\n" +
                        "\n".join(report))
    # The real BENCHMARK.json declares a bound for every end-to-end metric.
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        specs = load_metric_specs(spec_path)
        with open(spec_path, encoding="utf-8") as f:
            declared = json.load(f)
        for m in declared["end_to_end"]:
            if specs[m["name"]]["bound"] is None:
                failures.append("end-to-end metric %s has no bound" %
                                m["name"])
    for f in failures:
        print("SELF-TEST FAIL:", f)
    if failures:
        return 1
    print("bench_compare self-test: ok")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="*", help="files of tagged run lines "
                        "('-' for standard input)")
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    parser.add_argument("--base", help="side label of the reference commit")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.runs:
        parser.error("no run files given")
    lines = []
    for path in args.runs:
        if path == "-":
            lines.extend(sys.stdin.read().splitlines())
        else:
            with open(path, encoding="utf-8") as f:
                lines.extend(f.read().splitlines())
    try:
        report, flagged = compare(parse_runs(lines),
                                  load_metric_specs(args.spec), args.base)
    except ValueError as e:
        print("bench_compare: %s" % e, file=sys.stderr)
        return 2
    print("\n".join(report))
    if flagged:
        print("bench_compare: %d finding(s) flagged" % flagged)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
