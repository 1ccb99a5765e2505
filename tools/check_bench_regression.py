#!/usr/bin/env python3
"""Gates merge-throughput regressions against a committed baseline.

Usage:
  check_bench_regression.py --baseline BENCH_merge.json \
      --current current.json [--threshold 0.15]
  check_bench_regression.py --baseline BENCH_merge.json \
      --current current.json --update

`current.json` is raw Google Benchmark JSON output, e.g.:

  ./build/bench_merge_throughput \
      '--benchmark_filter=BM_MergeParallel|BM_Bootstrap|BM_MergeDistributed' \
      --benchmark_format=json > current.json

The committed baseline (BENCH_merge.json at the repo root) is the
normalized form: a `families` map of benchmark family -> its gate metric
and one number per variant.  Each family names its own metric, so a
family that measures something other than a rate can join the gate;
today every family gates on events/s.  All metrics are
higher-is-better.

The gate fails (exit 1) when any baseline variant's current value drops
more than `--threshold` (default 15%) below its baseline, or when a
baseline variant is missing from the current run.  Variants only in the
current run are reported but do not fail the gate, so adding a sweep
point does not require touching the tool.

Faster-than-baseline runs pass but are reported too: a suspiciously
large speedup is worth a look (and a baseline refresh with --update,
which rewrites the baseline from the current run instead of checking).
--update keeps the family -> metric map of the existing baseline when
one is present, so a refresh cannot silently change what is gated;
without a readable baseline it seeds from the built-in defaults.

Legacy single-family baselines (a top-level `variants` map) are still
read, so the gate keeps working across the schema transition.

CI-variance note: the 15% default is deliberately loose — shared
runners jitter by a few percent run-to-run; the gate exists to catch
algorithmic regressions (2x slowdowns), not micro-noise.

Exit status: 0 gate passes (or baseline updated), 1 regression or
missing variant, 2 usage/input error.
"""

import argparse
import json
import sys
from pathlib import Path

# Family -> gate metric, used to seed a baseline when --update has no
# existing baseline to preserve.
DEFAULT_FAMILIES = {
    "BM_MergeParallel": "events/s",
    "BM_Bootstrap": "events/s",
    "BM_MergeDistributed": "events/s",
}


def variant_of(name: str) -> str:
    """BM_MergeParallel/4/process_time/real_time -> BM_MergeParallel/4."""
    parts = name.split("/")
    return "/".join(parts[:2])


def normalize(raw: dict, families: dict) -> dict:
    """Raw Google Benchmark JSON -> {family: {variant: value}}."""
    out = {family: {} for family in families}
    for b in raw.get("benchmarks", []):
        name = b.get("name", "")
        family = name.split("/", 1)[0]
        metric = families.get(family)
        if metric is None or "/" not in name:
            continue
        if b.get("run_type") == "aggregate":
            continue
        if metric not in b:
            continue
        out[family][variant_of(name)] = round(float(b[metric]), 1)
    return out


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        print(f"cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def baseline_families(baseline: dict) -> dict:
    """{family: {"metric": ..., "variants": {...}}} from either schema."""
    if "families" in baseline:
        return baseline["families"]
    if "variants" in baseline:  # legacy single-family schema
        return {
            baseline.get("family", "BM_MergeParallel"): {
                "metric": baseline.get("metric", "events/s"),
                "variants": baseline["variants"],
            }
        }
    return {}


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0])
    ap.add_argument("--baseline", required=True, type=Path,
                    help="normalized baseline JSON (committed)")
    ap.add_argument("--current", required=True, type=Path,
                    help="raw Google Benchmark JSON from the current run")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max fractional metric drop (default 0.15)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from the current run")
    args = ap.parse_args(argv[1:])

    if args.update:
        # Default families plus anything the existing baseline already
        # gates; the existing metric choice wins, so a refresh can add a
        # family but never silently change how one is measured.
        metric_map = dict(DEFAULT_FAMILIES)
        if args.baseline.exists():
            existing = baseline_families(load_json(args.baseline))
            metric_map.update(
                {f: spec["metric"] for f, spec in existing.items()})
        current = normalize(load_json(args.current), metric_map)
        families = {}
        for family in sorted(metric_map):
            variants = current.get(family, {})
            if not variants:
                print(f"no {family} {metric_map[family]} samples in "
                      f"{args.current}", file=sys.stderr)
                return 2
            families[family] = {
                "metric": metric_map[family],
                "variants": dict(sorted(variants.items())),
            }
        baseline = {
            "benchmark": "bench_merge_throughput",
            "threshold": args.threshold,
            "families": families,
        }
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"baseline updated: {args.baseline}")
        for family, spec in families.items():
            for name, value in spec["variants"].items():
                print(f"  {name:<24} {value:>14,.1f} {spec['metric']}")
        return 0

    base = baseline_families(load_json(args.baseline))
    if not base:
        print(f"baseline {args.baseline} has no families/variants",
              file=sys.stderr)
        return 2
    metric_map = {f: spec["metric"] for f, spec in base.items()}
    current = normalize(load_json(args.current), metric_map)
    if not any(current.values()):
        print(f"no gated samples in {args.current}", file=sys.stderr)
        return 2

    failed = False
    checked = 0
    print(f"{'variant':<24} {'baseline':>14} {'current':>14} {'delta':>8}")
    for family in sorted(base):
        base_variants = base[family].get("variants", {})
        cur_variants = current.get(family, {})
        for name, value in sorted(base_variants.items()):
            checked += 1
            cur = cur_variants.get(name)
            if cur is None:
                print(f"{name:<24} {value:>14,.1f} {'MISSING':>14} {'':>8}")
                failed = True
                continue
            delta = (cur - value) / value
            flag = ""
            if delta < -args.threshold:
                flag = "  << REGRESSION"
                failed = True
            print(f"{name:<24} {value:>14,.1f} {cur:>14,.1f} "
                  f"{delta:>+7.1%}{flag}")
        for name in sorted(set(cur_variants) - set(base_variants)):
            print(f"{name:<24} {'(new)':>14} {cur_variants[name]:>14,.1f}")

    if failed:
        print(f"FAIL: a gated metric regressed more than "
              f"{args.threshold:.0%} vs {args.baseline}")
        return 1
    print(f"OK: all {checked} variants within "
          f"{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
