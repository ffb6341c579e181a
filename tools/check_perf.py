#!/usr/bin/env python3
"""Perf-regression gate for the batch-kernel benchmarks.

Compares a freshly generated bench artifact against the committed
baseline and exits non-zero when

  * any ``*_batch_ns_per_eval`` metric regressed by more than the
    threshold (default 25%, matching the headroom CI machines need
    over the machine that recorded the baseline), or
  * any key of the artifact ending in ``bit_identical`` (e.g.
    ``bit_identical``, ``adapter_bit_identical``) is not ``true``, or
    it has no such key at all — a correctness failure dressed up as a
    perf number.

Reference-path timings are reported but never gated: the scalar
oracle's speed is not a property this repo defends.

Bootstrap mode: when the baseline file does not exist yet — a brand
new benchmark landing in the same change as its first baseline, or a
bench gated on identity only — the gate warns and passes instead of
crashing, but still checks every ``*bit_identical`` key
(correctness does not bootstrap).

Usage:
    tools/check_perf.py CURRENT BASELINE [--threshold 0.25]
"""

import argparse
import json
import sys


def identity_failures(current):
    """Failures unless the artifact has a ``*bit_identical`` key and
    every such key is true."""
    keys = sorted(key for key in current if key.endswith("bit_identical"))
    if not keys:
        return ["artifact reports no *bit_identical key"]
    return [
        "%s is %r — a fast path diverged from its oracle"
        % (key, current[key])
        for key in keys
        if current[key] is not True
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="artifact JSON from this run")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional ns/eval regression (default 0.25)",
    )
    args = parser.parse_args()

    with open(args.current) as handle:
        current = json.load(handle)
    try:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
    except FileNotFoundError:
        print(
            "WARNING: no committed baseline at %s — bootstrap mode, "
            "timings not gated this run. Commit the current artifact "
            "as the baseline to arm the gate." % args.baseline,
            file=sys.stderr,
        )
        for key in sorted(current):
            if key.endswith("_ns_per_eval"):
                print("%-36s %8.2f ns (no baseline)"
                      % (key, current[key]))
        failures = identity_failures(current)
        if failures:
            print("\nFAIL:", file=sys.stderr)
            for failure in failures:
                print("  - " + failure, file=sys.stderr)
            return 1
        print("\nperf gate passed (bootstrap: no baseline)")
        return 0

    failures = identity_failures(current)

    gated = sorted(
        key
        for key in baseline
        if key.endswith("_batch_ns_per_eval")
    )
    if not gated:
        failures.append("baseline defines no *_batch_ns_per_eval keys")

    for key in gated:
        base = baseline[key]
        if key not in current:
            failures.append("current artifact is missing %s" % key)
            continue
        now = current[key]
        limit = base * (1.0 + args.threshold)
        ratio = now / base if base > 0 else float("inf")
        status = "OK" if now <= limit else "REGRESSION"
        print(
            "%-36s %8.2f ns (baseline %8.2f, %5.2fx, limit %8.2f) %s"
            % (key, now, base, ratio, limit, status)
        )
        if now > limit:
            failures.append(
                "%s regressed: %.2f ns vs baseline %.2f ns "
                "(>%.0f%% over)" % (key, now, base, args.threshold * 100)
            )

    for key in sorted(baseline):
        if key.endswith("_reference_ns_per_eval") and key in current:
            print(
                "%-36s %8.2f ns (baseline %8.2f, not gated)"
                % (key, current[key], baseline[key])
            )

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print("  - " + failure, file=sys.stderr)
        return 1

    print("\nperf gate passed (threshold %.0f%%)" % (args.threshold * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
