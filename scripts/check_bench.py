#!/usr/bin/env python3
"""CI perf-regression gate over tssa-bench-v1 result files.

Compares one or more --json result files (written by the bench binaries via
bench/bench_common.h BenchReport) against the committed baseline
bench/baseline.json and exits non-zero on a regression:

  * kernel_launches: deterministic, gated EXACTLY. Any increase over the
    baseline fails; any decrease passes but is reported so the baseline can
    be refreshed to lock in the improvement.
  * ns_per_iter: only gated for records with "time_gated": true (wall-clock
    best-of-N over the real executor). Times are normalized by the run's
    calib_ns (a fixed arithmetic loop timed on the same machine), so a slower
    CI runner does not fail the gate; the normalized ratio must stay within
    --threshold (default 1.25 = +25%). A baseline record with a zero
    ns_per_iter or calib_ns is corrupt, and fails the gate by name rather
    than crashing the division.
  * extra.rejected / extra.fallback: serving records carry the engine's
    load-shed and degraded-request counters. A record whose baseline shed
    nothing must still shed nothing — throughput numbers from a run that
    silently rejected or degraded part of its traffic are not comparable to
    the baseline, so that is a hard failure, not a note. Records whose
    baseline already sheds (the overload sweep) are exempt.
  * extra.kv_pages: the decode bench's KV-cache page high-water mark over a
    deterministic session mix. Gated EXACTLY like kernel_launches: any
    increase means the paged allocator holds more memory for the same
    traffic. extra.kv_leaked (pages still in use after drain) must stay at
    the baseline's zero — a leak is a hard failure.
  * extra.compiles: the serving engine's program-compile count over a
    deterministic request sequence. Gated EXACTLY like kernel_launches: with
    symbolic program keys (DESIGN.md §13) the count stays flat while shape
    diversity grows, so any increase means a request pattern started missing
    the polymorphic cache and re-specializing.

  * sim_us: the simulated device clock behind the paper's Figs. 5/7/8 — a
    deterministic model output (fig5, fig6 and tune_search records carry
    it). Gated EXACTLY in both directions, to a relative tolerance of
    SIM_US_RTOL, wherever both the baseline and the current record carry
    it: a drift down is as much a change to the paper's numbers as a drift
    up. A record carrying it on one side only is reported, not gated.

Everything else in the records (latency percentiles, reuse rates) is
informational: printed on drift, never fatal.

Usage:
  check_bench.py --baseline bench/baseline.json out/fig5.json out/fig6.json
  check_bench.py --baseline bench/baseline.json --filter=shard/ out/shard.json
  check_bench.py --baseline bench/baseline.json --update out/*.json   # re-baseline
  check_bench.py --self-test                      # gate-logic unit checks

--filter=SUBSTRING gates only records whose "<binary>/<name>" key contains
SUBSTRING, on both sides: non-matching baseline entries are not reported
missing, so a CI leg that runs a single bench binary can gate just its own
records. A filter that matches nothing is an error (a typo must not turn
into a silent pass), and --filter cannot be combined with --update (a
partial rewrite would drop every other baseline entry).

Re-baselining (--update) rewrites the baseline from the given result files;
commit the result. Do this when a change legitimately alters launch counts
or speeds things up (see README "CI bench gate").
"""

import argparse
import json
import sys

BASELINE_SCHEMA = "tssa-bench-baseline-v1"
RESULT_SCHEMA = "tssa-bench-v1"

# extra.* counters that are deterministic for a fixed request sequence and
# therefore gated exactly, kernel_launches-style: any increase fails, any
# decrease is a re-baseline note.
EXACT_EXTRA_GATES = {
    "kv_pages": ("KV_PAGES", "the paged KV cache now holds more pages for "
                 "the same deterministic session mix"),
    "compiles": ("COMPILES", "the program cache now compiles more programs "
                 "for the same deterministic request sequence (a request "
                 "pattern stopped hitting the polymorphic key, DESIGN.md "
                 "§13)"),
}

# sim_us is gated exactly in both directions; this relative tolerance only
# absorbs float formatting round-trips through JSON.
SIM_US_RTOL = 1e-9

# The autotuner's measured-win floor: a tune_search summary record whose
# extra.tuned_wins falls below this means the measured shortlist stopped
# finding wall-clock wins on enough workloads (DESIGN.md §15).
TUNED_WINS_FLOOR = 2


def load_results(paths):
    """Returns {key: (record, calib_ns)} for every record in every file."""
    entries = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        if doc.get("schema") != RESULT_SCHEMA:
            sys.exit(f"{path}: expected schema {RESULT_SCHEMA!r}, "
                     f"got {doc.get('schema')!r}")
        calib = float(doc["calib_ns"])
        if calib <= 0:
            sys.exit(f"{path}: non-positive calib_ns")
        for record in doc["results"]:
            key = f"{doc['binary']}/{record['name']}"
            if key in entries:
                sys.exit(f"{path}: duplicate record key {key!r}")
            entries[key] = (record, calib)
    return entries


def write_baseline(entries, path):
    doc = {"schema": BASELINE_SCHEMA, "entries": {}}
    for key in sorted(entries):
        record, calib = entries[key]
        entry = dict(record)
        entry["calib_ns"] = calib
        doc["entries"][key] = entry
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote baseline with {len(entries)} entries to {path}")


def apply_filter(entries, substring):
    """Keeps only entries whose key contains `substring` (no-op if falsy)."""
    if not substring:
        return entries
    return {key: value for key, value in entries.items() if substring in key}


def compare(current, baseline, threshold):
    """Gates `current` ({key: (record, calib)}) against `baseline` entries.

    Returns (failures, notes, checked) where `checked` counts the exact
    gates, time gates, and shed counters actually compared. Pure function of
    its inputs so --self-test can drive it without touching the filesystem.
    """
    failures = []
    notes = []
    checked = {"exact": 0, "times": 0, "shedding": 0, "tuning": 0}

    for key, (record, calib) in sorted(current.items()):
        # Tuner honesty gates are intrinsic to the record (the default run in
        # the same result file is the reference), so they apply whether or
        # not the key has a baseline entry yet.
        extra = record.get("extra", {})
        tuned_sim = extra.get("tuned_sim_us")
        default_sim = extra.get("default_sim_us")
        if tuned_sim is not None and default_sim is not None:
            checked["tuning"] += 1
            if tuned_sim > default_sim:
                failures.append(
                    f"TUNED_SIM {key}: tuned config modelled at "
                    f"{tuned_sim:.1f}us vs default {default_sim:.1f}us; the "
                    "search must never install a config it scored worse than "
                    "the default it started from")
        tuned_wins = extra.get("tuned_wins")
        if tuned_wins is not None:
            checked["tuning"] += 1
            if tuned_wins < TUNED_WINS_FLOOR:
                failures.append(
                    f"TUNED_WINS {key}: only {tuned_wins:.0f} workload(s) "
                    f"with a measured ns/iter win (floor "
                    f"{TUNED_WINS_FLOOR}); the measured shortlist stopped "
                    "beating the default heuristics")

        base = baseline.get(key)
        if base is None:
            notes.append(f"NEW       {key} (not in baseline; run --update "
                         "to start tracking it)")
            continue

        cur_launches = record.get("kernel_launches")
        base_launches = base.get("kernel_launches")
        if cur_launches is not None and base_launches is not None:
            checked["exact"] += 1
            if cur_launches > base_launches:
                failures.append(
                    f"LAUNCHES  {key}: {base_launches} -> {cur_launches} "
                    f"(+{cur_launches - base_launches}); kernel-launch counts "
                    "are deterministic, any increase is a regression")
            elif cur_launches < base_launches:
                notes.append(
                    f"IMPROVED  {key}: launches {base_launches} -> "
                    f"{cur_launches}; consider re-baselining to lock it in")

        cur_sim = record.get("sim_us")
        base_sim = base.get("sim_us")
        if cur_sim is not None and base_sim is not None:
            checked["exact"] += 1
            if abs(cur_sim - base_sim) > SIM_US_RTOL * max(abs(cur_sim),
                                                            abs(base_sim)):
                failures.append(
                    f"SIM_US    {key}: {base_sim!r} -> {cur_sim!r}; the "
                    "simulated clock is deterministic, any drift in either "
                    "direction changes the paper's numbers")
        elif cur_sim is not None or base_sim is not None:
            side = "current" if cur_sim is not None else "baseline"
            notes.append(f"SIM_US    {key}: only the {side} record carries "
                         "sim_us; not gated")

        cur_ns = record.get("ns_per_iter")
        base_ns = base.get("ns_per_iter")
        if (record.get("time_gated") and base.get("time_gated")
                and cur_ns is not None and base_ns is not None):
            checked["times"] += 1
            base_calib = float(base.get("calib_ns", 0.0))
            if base_ns <= 0 or base_calib <= 0:
                # Never divide by a corrupt baseline: fail the gate naming
                # the record instead of crashing with ZeroDivisionError.
                failures.append(
                    f"BASELINE  {key}: baseline has non-positive "
                    f"ns_per_iter ({base_ns}) or calib_ns ({base_calib}); "
                    "the entry is corrupt — re-baseline it with --update")
            else:
                ratio = (cur_ns / calib) / (base_ns / base_calib)
                if ratio > threshold:
                    failures.append(
                        f"TIME      {key}: normalized {ratio:.2f}x over "
                        f"baseline (raw {base_ns:.0f} -> {cur_ns:.0f} "
                        f"ns/iter, machine factor {calib / base_calib:.2f})")
                elif ratio < 1.0 / threshold:
                    notes.append(f"IMPROVED  {key}: normalized {ratio:.2f}x")

        # A record whose baseline shed/degraded nothing must still shed
        # nothing: its throughput and latency numbers only mean what the
        # baseline's meant if every request was actually served the same way.
        cur_extra = record.get("extra", {})
        base_extra = base.get("extra", {})

        # Deterministic extra counters (KV page high-water, program-compile
        # count) get the kernel_launches treatment — exact, any increase
        # fails, a decrease is a note to re-baseline.
        for counter, (label, why) in EXACT_EXTRA_GATES.items():
            cur_n = cur_extra.get(counter)
            base_n = base_extra.get(counter)
            if cur_n is None or base_n is None:
                continue
            checked["exact"] += 1
            if cur_n > base_n:
                failures.append(
                    f"{label:9s} {key}: {base_n:.0f} -> {cur_n:.0f} "
                    f"(+{cur_n - base_n:.0f}); {why}")
            elif cur_n < base_n:
                notes.append(
                    f"IMPROVED  {key}: {counter} {base_n:.0f} -> "
                    f"{cur_n:.0f}; consider re-baselining to lock it in")

        for counter in ("rejected", "fallback", "kv_leaked"):
            cur_n = cur_extra.get(counter)
            base_n = base_extra.get(counter)
            if cur_n is None or base_n is None:
                continue
            checked["shedding"] += 1
            if base_n == 0 and cur_n > 0:
                if counter == "kv_leaked":
                    detail = (f"{cur_n:.0f} KV pages still in use after "
                              "drain; the paged allocator leaked")
                else:
                    detail = (f"baseline served every request, this run "
                              f"{counter} {cur_n:.0f}; the numbers are not "
                              "comparable (silent load shedding/degradation)")
                failures.append(f"{counter.upper():9s} {key}: {detail}")

    missing = sorted(set(baseline) - set(current))
    for key in missing:
        notes.append(f"MISSING   {key} (in baseline but not in these "
                     "results; fine for partial runs)")
    return failures, notes, checked


def self_test():
    """In-memory unit checks of the gate logic; exits non-zero on failure."""

    def entry(key, **fields):
        base = {"name": key.split("/", 1)[1], "calib_ns": 100.0}
        base.update(fields)
        return base

    checks = []

    def expect(name, cond, detail=""):
        checks.append((name, bool(cond), detail))

    # Clean pass: identical current and baseline produce no failures.
    baseline = {
        "b/ok": entry("b/ok", time_gated=True, ns_per_iter=50.0,
                      kernel_launches=7,
                      extra={"compiles": 1, "rejected": 0}),
    }
    current = {
        "b/ok": ({"name": "ok", "time_gated": True, "ns_per_iter": 50.0,
                  "kernel_launches": 7,
                  "extra": {"compiles": 1, "rejected": 0}}, 100.0),
    }
    failures, notes, checked = compare(current, baseline, 1.25)
    expect("clean pass has no failures", not failures, repr(failures))
    expect("clean pass checked 2 exact + 1 time + 1 shed",
           checked == {"exact": 2, "times": 1, "shedding": 1, "tuning": 0},
           repr(checked))

    # Tuner honesty: a record whose tuned analytic score exceeds the default
    # fails by name, even when the key is not in the baseline yet (the gate
    # is intrinsic to the record, not baseline-relative).
    current = {"t/tune/lstm": ({"name": "tune/lstm",
                                "extra": {"tuned_sim_us": 120.0,
                                          "default_sim_us": 100.0}}, 100.0)}
    failures, _, checked = compare(current, {}, 1.25)
    expect("tuned sim regression fails without a baseline entry",
           len(failures) == 1 and failures[0].startswith("TUNED_SIM")
           and "t/tune/lstm" in failures[0], repr(failures))
    expect("tuning gate counted", checked["tuning"] == 1, repr(checked))
    current = {"t/tune/lstm": ({"name": "tune/lstm",
                                "extra": {"tuned_sim_us": 90.0,
                                          "default_sim_us": 100.0}}, 100.0)}
    failures, _, _ = compare(current, {}, 1.25)
    expect("tuned sim improvement passes", not failures, repr(failures))

    # Measured-win floor: fewer than TUNED_WINS_FLOOR winning workloads in
    # the summary record fails; meeting the floor passes.
    current = {"t/summary": ({"name": "summary",
                              "extra": {"tuned_wins": 1.0}}, 100.0)}
    failures, _, _ = compare(current, {}, 1.25)
    expect("tuned-wins below floor fails",
           len(failures) == 1 and failures[0].startswith("TUNED_WINS"),
           repr(failures))
    current = {"t/summary": ({"name": "summary",
                              "extra": {"tuned_wins": 2.0}}, 100.0)}
    failures, _, _ = compare(current, {}, 1.25)
    expect("tuned-wins at floor passes", not failures, repr(failures))

    # sim_us is gated exactly in BOTH directions: drift up and drift down
    # each fail by name; an identical value passes and counts as an exact
    # gate; a value carried on one side only is a note, not a failure.
    baseline = {"f/fig": entry("f/fig", sim_us=1000.0, kernel_launches=3)}
    for label, sim in (("up", 1000.001), ("down", 999.999)):
        current = {"f/fig": ({"name": "fig", "sim_us": sim,
                              "kernel_launches": 3}, 100.0)}
        failures, _, _ = compare(current, baseline, 1.25)
        expect(f"sim_us drift {label} fails",
               len(failures) == 1 and failures[0].startswith("SIM_US")
               and "f/fig" in failures[0], repr(failures))
    current = {"f/fig": ({"name": "fig", "sim_us": 1000.0,
                          "kernel_launches": 3}, 100.0)}
    failures, _, checked = compare(current, baseline, 1.25)
    expect("identical sim_us passes as an exact gate",
           not failures and checked["exact"] == 2, repr((failures, checked)))
    current = {"f/fig": ({"name": "fig", "sim_us": 1000.0 * (1 + 1e-12),
                          "kernel_launches": 3}, 100.0)}
    failures, _, _ = compare(current, baseline, 1.25)
    expect("sim_us within the round-trip tolerance passes", not failures,
           repr(failures))
    for label, cur_fields, base_fields in (
            ("current", {"sim_us": 5.0}, {}),
            ("baseline", {}, {"sim_us": 5.0})):
        current = {"f/one": ({"name": "one", **cur_fields}, 100.0)}
        failures, notes, checked = compare(
            current, {"f/one": entry("f/one", **base_fields)}, 1.25)
        expect(f"sim_us only on the {label} side is a note, not a failure",
               not failures and checked["exact"] == 0
               and any(n.startswith("SIM_US") and label in n for n in notes),
               repr((failures, notes)))

    # Zero-ns baseline record: must fail cleanly NAMING the record, not
    # crash with ZeroDivisionError.
    baseline = {"b/zero": entry("b/zero", time_gated=True, ns_per_iter=0.0)}
    current = {"b/zero": ({"name": "zero", "time_gated": True,
                           "ns_per_iter": 40.0}, 100.0)}
    try:
        failures, _, _ = compare(current, baseline, 1.25)
    except ZeroDivisionError:
        failures = None
    expect("zero baseline ns does not raise", failures is not None)
    expect("zero baseline ns fails the gate",
           failures is not None and len(failures) == 1, repr(failures))
    expect("zero-ns failure names the record",
           failures is not None and failures and "b/zero" in failures[0],
           repr(failures))

    # Zero calib_ns in the baseline entry: same clean failure.
    baseline = {"b/calib": entry("b/calib", time_gated=True,
                                 ns_per_iter=50.0, calib_ns=0.0)}
    current = {"b/calib": ({"name": "calib", "time_gated": True,
                            "ns_per_iter": 40.0}, 100.0)}
    try:
        failures, _, _ = compare(current, baseline, 1.25)
    except ZeroDivisionError:
        failures = None
    expect("zero baseline calib does not raise", failures is not None)
    expect("zero-calib failure names the record",
           failures is not None and len(failures) == 1
           and "b/calib" in failures[0], repr(failures))

    # extra.compiles is gated exactly: any increase fails by name...
    baseline = {"b/storm": entry("b/storm", extra={"compiles": 1})}
    current = {"b/storm": ({"name": "storm",
                            "extra": {"compiles": 34}}, 100.0)}
    failures, notes, _ = compare(current, baseline, 1.25)
    expect("compile-count increase fails",
           len(failures) == 1 and failures[0].startswith("COMPILES")
           and "b/storm" in failures[0], repr(failures))
    # ...and a decrease passes with a re-baseline note.
    current = {"b/storm": ({"name": "storm",
                            "extra": {"compiles": 0}}, 100.0)}
    failures, notes, _ = compare(current, baseline, 1.25)
    expect("compile-count decrease is a note, not a failure",
           not failures and any("compiles" in n for n in notes),
           repr((failures, notes)))

    # Slow normalized time still fails (guard must not swallow real gating).
    baseline = {"b/slow": entry("b/slow", time_gated=True, ns_per_iter=50.0)}
    current = {"b/slow": ({"name": "slow", "time_gated": True,
                           "ns_per_iter": 100.0}, 100.0)}
    failures, _, _ = compare(current, baseline, 1.25)
    expect("2x normalized slowdown fails",
           len(failures) == 1 and failures[0].startswith("TIME"),
           repr(failures))

    # Shard-scaling style: the same compile count at every shard count
    # passes; one shard record creeping up fails by name while its siblings
    # stay quiet.
    baseline = {
        f"s/scale_s{n}": entry(f"s/scale_s{n}", extra={"compiles": 38})
        for n in (1, 2, 4)
    }
    current = {
        f"s/scale_s{n}": ({"name": f"scale_s{n}",
                           "extra": {"compiles": 38}}, 100.0)
        for n in (1, 2, 4)
    }
    failures, _, checked = compare(current, baseline, 1.25)
    expect("flat per-shard compile counts pass",
           not failures and checked["exact"] == 3, repr(failures))
    current["s/scale_s4"] = ({"name": "scale_s4",
                              "extra": {"compiles": 39}}, 100.0)
    failures, _, _ = compare(current, baseline, 1.25)
    expect("one shard's extra compile fails by name",
           len(failures) == 1 and failures[0].startswith("COMPILES")
           and "s/scale_s4" in failures[0], repr(failures))

    # --filter: keeps matching keys, drops the rest.
    entries = {"shard_scaling/shard/scale_s1": 1, "serve_throughput/sweep": 2}
    kept = apply_filter(entries, "shard_scaling/")
    expect("filter keeps only matching keys",
           set(kept) == {"shard_scaling/shard/scale_s1"}, repr(kept))
    expect("empty filter is a no-op",
           apply_filter(entries, "") is entries)
    # Filtering both sides: a baseline-only record outside the filter is not
    # reported missing, while a regression inside the filter still fails.
    baseline = {
        "b/in": entry("b/in", extra={"compiles": 1}),
        "b/out": entry("b/out", extra={"compiles": 5}),
    }
    current = {"b/in": ({"name": "in", "extra": {"compiles": 2}}, 100.0)}
    failures, notes, _ = compare(apply_filter(current, "b/in"),
                                 apply_filter(baseline, "b/in"), 1.25)
    expect("filtered compare still catches the in-filter regression",
           len(failures) == 1 and "b/in" in failures[0], repr(failures))
    expect("filtered-out baseline entry is not reported missing",
           not any("b/out" in n for n in notes), repr(notes))

    bad = [(name, detail) for name, ok, detail in checks if not ok]
    for name, ok, _ in checks:
        print(f"  {'ok' if ok else 'FAIL'}  {name}")
    if bad:
        print(f"\nself-test: {len(bad)} of {len(checks)} checks failed:",
              file=sys.stderr)
        for name, detail in bad:
            print(f"  {name}: {detail}", file=sys.stderr)
        sys.exit(1)
    print(f"self-test: all {len(checks)} checks passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", nargs="*", help="tssa-bench-v1 JSON files")
    parser.add_argument("--baseline",
                        help="bench/baseline.json")
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="max allowed normalized ns_per_iter ratio "
                             "(default 1.25)")
    parser.add_argument("--filter", default=None, metavar="SUBSTRING",
                        help="gate only records whose <binary>/<name> key "
                             "contains SUBSTRING (both sides: non-matching "
                             "baseline entries are not reported missing)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the result files "
                             "instead of checking")
    parser.add_argument("--self-test", action="store_true",
                        help="run the gate logic's unit checks and exit")
    args = parser.parse_args()

    if args.self_test:
        self_test()
        return
    if not args.baseline:
        parser.error("--baseline is required unless --self-test")
    if not args.results:
        parser.error("at least one result file is required")

    if args.filter and args.update:
        parser.error("--filter cannot be combined with --update: rewriting "
                     "the baseline from a filtered subset would drop every "
                     "other entry")

    current = load_results(args.results)
    if args.update:
        write_baseline(current, args.baseline)
        return
    current = apply_filter(current, args.filter)
    if args.filter and not current:
        sys.exit(f"--filter={args.filter!r} matched no records in the given "
                 "result files; a typo must not become a silent pass")

    with open(args.baseline) as f:
        baseline_doc = json.load(f)
    if baseline_doc.get("schema") != BASELINE_SCHEMA:
        sys.exit(f"{args.baseline}: expected schema {BASELINE_SCHEMA!r}, "
                 f"got {baseline_doc.get('schema')!r}")
    baseline = apply_filter(baseline_doc["entries"], args.filter)

    failures, notes, checked = compare(current, baseline, args.threshold)

    for note in notes:
        print(note)
    print(f"checked {checked['exact']} exact counters, {checked['times']} "
          f"gated times, {checked['shedding']} shed/fallback counters, and "
          f"{checked['tuning']} tuner-honesty gates "
          f"against {len(baseline)} baseline entries")

    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print("\nIf this change is intentional, re-baseline:\n"
              "  python3 scripts/check_bench.py --baseline "
              "bench/baseline.json --update <result files>",
              file=sys.stderr)
        sys.exit(1)
    print("bench gate: OK")


if __name__ == "__main__":
    main()
