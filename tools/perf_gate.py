#!/usr/bin/env python3
"""Perf gate: compare a fresh BENCH_e6.json against the committed baseline.

Usage:
    tools/perf_gate.py BASELINE.json CURRENT.json

Both files are JSON arrays of perf records sharing the metrics schema's
run-field names (workload, backend, n, host_threads, simd_steps,
wall_seconds, pe_ops_per_sec) — the format bench_e6_sim_throughput writes
via bench::write_perf_records.

Records are matched on the configuration key (workload, backend, n,
host_threads, batch_width, active_panels); a record without a batch_width
field counts as batch_width 1, and one without an active_panels field as
active_panels 1, so baselines predating multi-destination batching
(docs/batching.md) and the active-panel schedule (docs/tiling.md) keep
matching.  host_threads holds the all-pairs worker lane count (the
caller's lane included) and is 1 for every other workload; the name is
kept so older baselines keep matching.  For every matched pair the gate
fails when

    current.wall_seconds > baseline.wall_seconds * (1 + threshold)

where threshold defaults to 0.15 (15 %) and can be overridden with the
PERF_GATE_THRESHOLD environment variable (a fraction, e.g. 0.25).

The pe_ops_per_sec throughput check FAILS the gate too: the gate checks
current < baseline / (1 + ops_threshold), where ops_threshold defaults to
the wall-clock threshold and can be loosened independently with
PERF_GATE_OPS_THRESHOLD (throughput derives from wall clock and
simd_steps, so it flags the same regressions plus step-count drift; it
soaked as warn-only and its noise tracks the wall-clock check's).  A
record missing pe_ops_per_sec skips that check silently (older baselines
predate the field).

Records may carry a "simd" field naming the dispatched kernel variant
(scalar/avx2/avx512, or none on the word backend).  It is informational
and deliberately NOT part of the configuration key — a baseline recorded
on an AVX-512 host still matches a current run on an AVX2 host — but a
variant mismatch is reported alongside a failing comparison so dispatch
changes are traceable from the gate output.

A changed simd_steps count for a matched configuration is reported as a
warning, not a failure: step counts are workload properties, and a step
change means the workload itself changed, so the wall-clock comparison is
apples-to-oranges — the baseline should be refreshed (tools/run_benchmarks.sh)
in the same commit.  Configurations present in only one file are warned
about and skipped.

Exit status: 0 when every matched configuration is within the threshold,
1 on any regression, 2 on malformed input.
"""

import json
import os
import sys

KEY_FIELDS = ("workload", "backend", "n", "host_threads", "batch_width",
              "active_panels")

# Key fields absent from older records, with the value they imply.
KEY_DEFAULTS = {"batch_width": 1, "active_panels": 1}


def load_records(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"perf_gate: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(data, list):
        print(f"perf_gate: {path}: expected a JSON array of records", file=sys.stderr)
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
            print(f"perf_gate: {path}: malformed record {record!r}: missing {err}",
                  file=sys.stderr)
            sys.exit(2)
        if key in records:
            print(f"perf_gate: {path}: duplicate configuration {key}", file=sys.stderr)
            sys.exit(2)
        records[key] = record
    return records


def describe(key):
    return "/".join(str(part) for part in key)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        threshold = float(os.environ.get("PERF_GATE_THRESHOLD", "0.15"))
    except ValueError:
        print("perf_gate: PERF_GATE_THRESHOLD must be a number", file=sys.stderr)
        return 2
    if threshold < 0:
        print("perf_gate: PERF_GATE_THRESHOLD must be >= 0", file=sys.stderr)
        return 2
    try:
        ops_threshold = float(os.environ.get("PERF_GATE_OPS_THRESHOLD", str(threshold)))
    except ValueError:
        print("perf_gate: PERF_GATE_OPS_THRESHOLD must be a number", file=sys.stderr)
        return 2
    if ops_threshold < 0:
        print("perf_gate: PERF_GATE_OPS_THRESHOLD must be >= 0", file=sys.stderr)
        return 2

    baseline = load_records(argv[1])
    current = load_records(argv[2])

    for key in sorted(set(baseline) - set(current)):
        print(f"perf_gate: warning: {describe(key)} in baseline only — skipped")
    for key in sorted(set(current) - set(baseline)):
        print(f"perf_gate: warning: {describe(key)} in current only — skipped")

    regressions = 0
    compared = 0
    for key in sorted(set(baseline) & set(current)):
        base, cur = baseline[key], current[key]
        if base.get("simd_steps") != cur.get("simd_steps"):
            print(f"perf_gate: warning: {describe(key)}: simd_steps changed "
                  f"{base.get('simd_steps')} -> {cur.get('simd_steps')} — the workload "
                  f"itself changed; refresh the baseline")
        base_wall = float(base["wall_seconds"])
        cur_wall = float(cur["wall_seconds"])
        ratio = cur_wall / base_wall if base_wall > 0 else float("inf")
        regressed = False
        verdict = "ok"
        if cur_wall > base_wall * (1 + threshold):
            verdict = "REGRESSION"
            regressed = True
        compared += 1
        print(f"perf_gate: {describe(key)}: wall {base_wall:.4f}s -> {cur_wall:.4f}s "
              f"({ratio:.2f}x baseline) [{verdict}]")

        # Throughput check, hard-failing: see the module docstring.
        try:
            base_ops = float(base["pe_ops_per_sec"])
            cur_ops = float(cur["pe_ops_per_sec"])
        except (TypeError, KeyError, ValueError):
            regressions += regressed
            continue
        if base_ops > 0 and cur_ops < base_ops / (1 + ops_threshold):
            regressed = True
            detail = ""
            if base.get("simd") != cur.get("simd"):
                detail = (f" (simd variant changed: {base.get('simd')} -> "
                          f"{cur.get('simd')})")
            print(f"perf_gate: {describe(key)}: pe_ops_per_sec dropped "
                  f"{base_ops:.3e} -> {cur_ops:.3e} "
                  f"({cur_ops / base_ops:.2f}x baseline) — throughput degradation "
                  f"beyond {ops_threshold:.0%} [REGRESSION]{detail}")
        regressions += regressed

    if compared == 0:
        print("perf_gate: no overlapping configurations to compare", file=sys.stderr)
        return 2
    limit = f"{threshold:.0%}"
    if regressions:
        print(f"perf_gate: FAIL — {regressions}/{compared} configuration(s) regressed "
              f"more than {limit} vs baseline")
        return 1
    print(f"perf_gate: PASS — {compared} configuration(s) within {limit} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
