#!/usr/bin/env python3
"""Perf trend: summarize the drift across an ordered series of BENCH records.

Usage:
    tools/perf_trend.py [--out REPORT.md] [--fail-on-drift PCT] FILE [FILE ...]

Each FILE is a JSON array of perf records in the BENCH_e6.json format
(tools/perf_gate.py documents the schema); the files are taken in the
order given, oldest first — e.g. the committed baseline followed by a
fresh run, or a whole directory of dated snapshots.  Where the gate is a
binary pass/fail against ONE baseline, the trend report shows the
*trajectory*: per configuration key (workload, backend, n, host_threads,
batch_width, active_panels — the gate's key, with the same batch_width=1
and active_panels=1 defaults for old records; host_threads is the
all-pairs worker lane count and 1 elsewhere), the first and last
wall_seconds / pe_ops_per_sec, the relative
drift between them, and the worst single-step jump along the series.

Output is a markdown table (stdout, or --out FILE for the CI artifact).
Configurations missing from some files are reported with the files they
do appear in; a simd-variant change along the series is flagged in the
notes column (dispatch changes explain wall-clock jumps).

Exit status: 0 normally, 1 when --fail-on-drift PCT is given and any
configuration's wall clock drifted more than PCT percent first -> last,
2 on malformed input.  Without --fail-on-drift the report never fails:
the hard gate is perf_gate.py; this tool is the context around it.
"""

import json
import sys

KEY_FIELDS = ("workload", "backend", "n", "host_threads", "batch_width",
              "active_panels")
KEY_DEFAULTS = {"batch_width": 1, "active_panels": 1}


def load_records(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"perf_trend: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(data, list):
        print(f"perf_trend: {path}: expected a JSON array of records", file=sys.stderr)
        sys.exit(2)
    records = {}
    for record in data:
        try:
            key = tuple(
                record[field] if field not in KEY_DEFAULTS
                else record.get(field, KEY_DEFAULTS[field])
                for field in KEY_FIELDS)
            float(record["wall_seconds"])
        except (TypeError, KeyError) as err:
            print(f"perf_trend: {path}: malformed record {record!r}: missing {err}",
                  file=sys.stderr)
            sys.exit(2)
        if key in records:
            print(f"perf_trend: {path}: duplicate configuration {key}", file=sys.stderr)
            sys.exit(2)
        records[key] = record
    return records


def describe(key):
    return "/".join(str(part) for part in key)


def pct(first, last):
    """Relative change first -> last as a signed percentage string."""
    if first <= 0:
        return "n/a"
    return f"{100.0 * (last - first) / first:+.1f}%"


def trend_rows(paths, series):
    """One row per configuration key seen anywhere in the series."""
    keys = sorted({key for records in series for key in records})
    rows = []
    for key in keys:
        points = [(path, records[key]) for path, records in zip(paths, series)
                  if key in records]
        walls = [float(r["wall_seconds"]) for _, r in points]
        notes = []
        if len(points) < len(paths):
            present = ", ".join(p for p, _ in points)
            notes.append(f"only in {present}")
        simds = [r.get("simd") for _, r in points if r.get("simd") is not None]
        if len(set(simds)) > 1:
            notes.append("simd " + " -> ".join(dict.fromkeys(simds)))
        steps = [r.get("simd_steps") for _, r in points]
        if len(set(steps)) > 1:
            notes.append("simd_steps changed (workload changed; refresh baseline)")

        worst_jump = 0.0
        for prev, cur in zip(walls, walls[1:]):
            if prev > 0:
                worst_jump = max(worst_jump, (cur - prev) / prev)

        ops = [r.get("pe_ops_per_sec") for _, r in points]
        have_ops = all(isinstance(o, (int, float)) for o in ops) and len(ops) > 0
        rows.append({
            "key": key,
            "wall_first": walls[0],
            "wall_last": walls[-1],
            "wall_drift": pct(walls[0], walls[-1]),
            "worst_jump": worst_jump,
            "ops_first": float(ops[0]) if have_ops else None,
            "ops_last": float(ops[-1]) if have_ops else None,
            "ops_drift": pct(float(ops[0]), float(ops[-1])) if have_ops else "n/a",
            "notes": "; ".join(notes),
        })
    return rows


def render_markdown(paths, rows):
    lines = ["# Perf trend", ""]
    lines.append(f"Series ({len(paths)} file(s), oldest first): " +
                 ", ".join(f"`{p}`" for p in paths))
    lines.append("")
    lines.append("| configuration | wall first | wall last | drift | worst step "
                 "| ops first | ops last | ops drift | notes |")
    lines.append("|---|---|---|---|---|---|---|---|---|")
    for row in rows:
        ops_first = f"{row['ops_first']:.3e}" if row["ops_first"] is not None else "-"
        ops_last = f"{row['ops_last']:.3e}" if row["ops_last"] is not None else "-"
        lines.append(
            f"| {describe(row['key'])} "
            f"| {row['wall_first']:.4f}s | {row['wall_last']:.4f}s "
            f"| {row['wall_drift']} | {row['worst_jump']:+.1%} "
            f"| {ops_first} | {ops_last} | {row['ops_drift']} "
            f"| {row['notes']} |")
    lines.append("")
    return "\n".join(lines) + "\n"


def main(argv):
    args = argv[1:]
    out_path = None
    fail_on_drift = None
    paths = []
    i = 0
    while i < len(args):
        if args[i] == "--out":
            if i + 1 >= len(args):
                print("perf_trend: --out needs a file argument", file=sys.stderr)
                return 2
            out_path = args[i + 1]
            i += 2
        elif args[i] == "--fail-on-drift":
            if i + 1 >= len(args):
                print("perf_trend: --fail-on-drift needs a percentage", file=sys.stderr)
                return 2
            try:
                fail_on_drift = float(args[i + 1])
            except ValueError:
                print("perf_trend: --fail-on-drift must be a number", file=sys.stderr)
                return 2
            i += 2
        else:
            paths.append(args[i])
            i += 1
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    series = [load_records(path) for path in paths]
    rows = trend_rows(paths, series)
    report = render_markdown(paths, rows)
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(report)
        print(f"perf_trend: wrote {out_path} ({len(rows)} configuration(s))")
    else:
        sys.stdout.write(report)

    if fail_on_drift is not None:
        drifted = [
            row for row in rows
            if row["wall_first"] > 0 and
            100.0 * (row["wall_last"] - row["wall_first"]) / row["wall_first"]
            > fail_on_drift
        ]
        for row in drifted:
            print(f"perf_trend: DRIFT {describe(row['key'])}: wall "
                  f"{row['wall_first']:.4f}s -> {row['wall_last']:.4f}s "
                  f"({row['wall_drift']}) exceeds {fail_on_drift:.1f}%")
        if drifted:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
