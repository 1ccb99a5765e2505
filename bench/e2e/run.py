#!/usr/bin/env python3
"""jigbench runner: builds bench_e2e, generates its inputs, runs the
workloads, and summarises and compares the results (see README.md).

  run.py --workload W --seed N --seconds T --trace 0|1
      One repetition.  The last line of stdout is one JSON object:
      {"correct", "attempted", "failed", "metrics"} with every end-to-end
      metric of BENCHMARK.json (--trace 0) or every per-layer one (--trace 1).
  run.py [--seed S] [--reps 5] [--seconds T] [--workloads a,b] [--out F]
      Full report: the workloads interleaved over the repetitions, then one
      traced repetition each.  Exits 1 on any correctness failure.
  run.py compare A.json B.json
      Per (workload, metric) verdict against the BENCHMARK.json bounds.
  run.py pairs --base BIN --change BIN [--workloads a,b] [--pairs 10]
      Alternating base/change pairs and the gain rule.

Everything it builds or writes goes under $CARGO_TARGET_DIR (default
.bench_build) in the repository root.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS = ["offline", "live", "fleet", "distributed"]
RUN_TIMEOUT_S = 170
# A live/fleet repetition whose generator ran later than this is flagged
# (and still counted): its open loop did not hold the schedule.
LATE_FLAG_MS = 10.0
# Machine fields that make two results files incomparable when they differ.
MACHINE_KEYS = ["nproc", "cpu_model", "kernel", "build_type"]


class BenchError(Exception):
    pass


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def call(cmd, what):
    """Runs a build or gen step, its output on stderr, and waits for it."""
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError(f"{what} failed")


# ----------------------------------------------------------------- build

def build():
    build_dir = build_root() / "e2e"
    if not (build_dir / "CMakeCache.txt").exists():
        try:
            call(["cmake", "-S", str(HERE), "-B", str(build_dir),
                  "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
        except BenchError:
            shutil.rmtree(build_dir, ignore_errors=True)
            raise
    call(["cmake", "--build", str(build_dir), "-j", "4", "--target",
          "bench_e2e"], "build")
    return build_dir / "bench_e2e"


def gen(binary, seed, workloads):
    cache = build_root() / "e2e-cache" / f"seed-{seed}"
    parts = sorted({"fleet" if w == "fleet" else "main" for w in workloads})
    for part in parts:
        call([str(binary), "gen", "--seed", str(seed), "--cache", str(cache),
              "--only", part], f"gen {part} for seed {seed}")
    return cache


# ------------------------------------------------------------------ runs

def run_once(binary, workload, cache, seconds, trace_path=None):
    """One repetition in a fresh process; peak RSS comes from wait4."""
    work = build_root() / "e2e-work" / f"{workload}-{os.getpid()}"
    cmd = [str(binary), "run", workload, "--cache", str(cache),
           "--work", str(work), "--seconds", str(seconds)]
    if trace_path is not None:
        Path(trace_path).parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_path)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"bench_e2e run {workload} exited {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"bench_e2e run {workload} printed nothing")
    result = json.loads(lines[-1])
    result["metrics"]["peak_rss_mb"] = {
        "value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    return result


def thrown(workload, error):
    """A repetition that did not finish: it counts as a failure."""
    return {"workload": workload, "metrics": {}, "layers": {},
            "check": {"attempted": 1, "failed": 1,
                      "problems": [f"run failed: {error}"]}}


def select(result, specs, where):
    """The BENCHMARK.json metrics `specs`, taken from result[where]."""
    out = {}
    for spec in specs:
        got = result[where].get(spec["name"])
        if got is None or got["value"] is None:
            raise BenchError(f"{result['workload']}: no {spec['name']}")
        if got["unit"] != spec["unit"]:
            raise BenchError(f"{spec['name']}: unit {got['unit']}, "
                             f"BENCHMARK.json says {spec['unit']}")
        out[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    return out


def single_run(args):
    bench = load_benchmark()
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload}")
    binary = build()
    cache = gen(binary, args.seed, [args.workload])
    trace_path = None
    if args.trace:
        trace_path = build_root() / "e2e-traces" / f"trace-{args.workload}.json"
    result = run_once(binary, args.workload, cache, args.seconds, trace_path)
    check = result["check"]
    for problem in check["problems"]:
        log("problem:", problem)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    line = {
        "correct": check["failed"] == 0,
        "attempted": max(1, int(check["attempted"])),
        "failed": int(check["failed"]),
        "metrics": select(result, specs, "layers" if args.trace else "metrics"),
    }
    print(json.dumps(line))
    return 0


# ------------------------------------------------------------ statistics

def summarize(values):
    """Median, quartiles (statistics.quantiles, n=4) and count."""
    values = sorted(values)
    if not values:
        return None
    if len(values) == 1:
        v = values[0]
        return {"median": v, "q1": v, "q3": v, "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def relative_spread(values):
    """Distance between the quartiles as a share of the median."""
    s = summarize(values)
    if s is None or s["median"] == 0:
        return 0.0
    return (s["q3"] - s["q1"]) / abs(s["median"])


def better_than(a, b, better):
    return a < b if better == "lower" else a > b


def judge(base, change, bound, better):
    """Verdict for one (workload, metric) and how much worse the change's
    median is, as a share of the base's.  A spread wider than the bound
    reads 'unresolved', never 'unchanged', unless every change run beats
    every base run."""
    mb = statistics.median(base)
    mc = statistics.median(change)
    worse = (mc - mb) / abs(mb) if mb else 0.0
    if better == "higher":
        worse = -worse
    spread = max(relative_spread(base), relative_spread(change))
    if all(better_than(c, b, better) for c in change for b in base):
        return "better", worse, spread
    if worse > bound:
        return "regressed", worse, spread
    if spread > bound:
        return "unresolved", worse, spread
    return "unchanged", worse, spread


def pair_stats(base, change, better):
    """Gain rule: the change wins >= 9/10 of the pairs (ties count for
    neither side) and the medians differ by more than the base's IQR."""
    wins = sum(1 for b, c in zip(base, change) if better_than(c, b, better))
    losses = sum(1 for b, c in zip(base, change) if better_than(b, c, better))
    sb, sc = summarize(base), summarize(change)
    iqr = sb["q3"] - sb["q1"]
    gain = (wins >= 0.9 * len(base)
            and better_than(sc["median"], sb["median"], better)
            and abs(sc["median"] - sb["median"]) > iqr)
    return {"wins": wins, "losses": losses, "pairs": len(base),
            "win_fraction": wins / len(base), "base": sb, "change": sc,
            "base_iqr": iqr, "gain": gain}


def metric_values(runs, workload, name, where="metrics", traced=False):
    return [r[where][name]["value"] for r in runs
            if r["workload"] == workload and r.get("traced") == traced
            and name in r[where] and r[where][name]["value"] is not None]


# ---------------------------------------------------------------- report

def cmake_build_type():
    cache = build_root() / "e2e" / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1]
    return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    """HEAD, with "-dirty" when tracked files differ from it."""
    if not (ROOT / ".git").exists():
        return "unknown"
    git = ["git", "-C", str(ROOT)]
    done = subprocess.run(git + ["rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if done.returncode != 0:
        return "unknown"
    dirty = subprocess.run(git + ["status", "--porcelain",
                                  "--untracked-files=no"],
                           capture_output=True, text=True).stdout.strip()
    return done.stdout.strip() + ("-dirty" if dirty else "")


def descriptor(seed):
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "kernel": platform.release(), "build_type": cmake_build_type(),
            "git_sha": git_sha(), "seed": seed}


def fmt(v):
    if v is None:
        return "-"
    if v == 0 or 0.01 <= abs(v) < 1e6:
        return f"{v:.4g}" if abs(v) < 1000 else f"{v:,.0f}"
    return f"{v:.3e}"


def print_report(results, bench, out=None):
    out = out or sys.stdout
    d = results["descriptor"]
    runs = results["runs"]
    p = lambda *a: print(*a, file=out)  # noqa: E731
    p(f"jigbench  seed {d['seed']}  {results['reps']} reps x "
      f"{results['seconds']} s  |  {d['nproc']} x {d['cpu_model']}  "
      f"kernel {d['kernel']}  {d['build_type']}  "
      f"sha {d['git_sha'][:12]}{d['git_sha'][40:]}")
    e2e = [m["name"] for m in bench["end_to_end"]]
    for w in results["workloads"]:
        mine = [r for r in runs if r["workload"] == w]
        p(f"\n== {w}")
        p(f"  {'metric':<24}{'unit':<11}{'median':>13}{'q1':>13}"
          f"{'q3':>13}{'n':>4}")
        extras = sorted({k for r in mine if not r.get("traced")
                         for k in r["metrics"]} - set(e2e))
        for name in e2e + extras:
            s = summarize(metric_values(runs, w, name))
            if s is None:
                continue
            unit = next(r["metrics"][name]["unit"] for r in mine
                        if name in r["metrics"])
            tag = "" if name in e2e else "  (not gated)"
            p(f"  {name:<24}{unit:<11}{fmt(s['median']):>13}"
              f"{fmt(s['q1']):>13}{fmt(s['q3']):>13}{s['n']:>4}{tag}")
        attempted = sum(r["check"]["attempted"] for r in mine)
        failed = sum(r["check"]["failed"] for r in mine)
        rate = failed / attempted if attempted else 1.0
        p(f"  {'error_rate':<24}{'fraction':<11}{fmt(rate):>13}"
          f"   ({failed} of {attempted} checked jframes)")
        for r in mine:
            for problem in r["check"]["problems"]:
                p(f"  PROBLEM rep {r.get('rep')}: {problem}")
        late = [(r.get("rep"), r["layers"]["gen.late_p99_ms"]["value"])
                for r in mine if "gen.late_p99_ms" in r["layers"]]
        if late:
            flagged = [f"rep {rep} ({v:.1f} ms)" for rep, v in late
                       if v > LATE_FLAG_MS]
            p("  gen.late_p99_ms per rep: "
              + " ".join(f"{v:.1f}" for _, v in late)
              + (f"  FLAG >{LATE_FLAG_MS:g} ms: " + ", ".join(flagged)
                 if flagged else "  (all within the schedule)"))
        traced = metric_values(runs, w, "events_per_s", traced=True)
        untraced = metric_values(runs, w, "events_per_s")
        if traced and untraced:
            p(f"  tracing overhead: traced events_per_s / untraced median = "
              f"{traced[0] / statistics.median(untraced):.3f}")

    traced_runs = {r["workload"]: r for r in runs if r.get("traced")}
    cols = [w for w in results["workloads"] if w in traced_runs]
    if not cols:
        return
    p("\n== per-layer (one traced repetition per workload)")
    p(f"  {'metric':<32}{'unit':<8}" + "".join(f"{w:>14}" for w in cols))
    names = [m["name"] for m in bench["per_layer"]]
    names += sorted({k for r in traced_runs.values() for k in r["layers"]}
                    - set(names))
    for name in names:
        unit = next((r["layers"][name]["unit"] for r in traced_runs.values()
                     if name in r["layers"]), "")
        cells = [fmt(traced_runs[w]["layers"][name]["value"])
                 if name in traced_runs[w]["layers"] else "-" for w in cols]
        p(f"  {name:<32}{unit:<8}" + "".join(f"{c:>14}" for c in cells))
    p("\n== span self time, s (traced repetitions)")
    for w in cols:
        spans = traced_runs[w].get("spans", {})
        top = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:8]
        p(f"  {w:<12}" + "  ".join(f"{k} {v['self_s']:.3f}" for k, v in top))


def report_mode(args):
    bench = load_benchmark()
    workloads = args.workloads
    binary = build()
    cache = gen(binary, args.seed, workloads)
    out_path = Path(args.out) if args.out else (
        build_root() / "e2e-results" / f"seed{args.seed}.json")
    trace_dir = build_root() / "e2e-traces" / f"seed{args.seed}"
    runs = []

    def one(w, rep, trace_path=None):
        log(f"{'traced' if trace_path else f'rep {rep}'} {w} ...")
        try:
            r = run_once(binary, w, cache, args.seconds, trace_path)
        except BenchError as e:
            r = thrown(w, e)
        runs.append({**r, "rep": rep, "traced": trace_path is not None})

    for rep in range(args.reps):
        for w in workloads:
            one(w, rep)
    for w in workloads:
        one(w, "traced", trace_dir / f"trace-{w}.json")
    results = {"descriptor": descriptor(args.seed), "seed": args.seed,
               "seconds": args.seconds, "reps": args.reps,
               "workloads": workloads, "runs": runs}
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(results, indent=1) + "\n")
    print_report(results, bench)
    print(f"\nresults: {out_path}\ntraces:  {trace_dir}")
    return 1 if any(r["check"]["failed"] > 0 for r in runs) else 0


# --------------------------------------------------------------- compare

def compare_mode(args, out=None):
    out = out or sys.stdout
    bench = load_benchmark()
    a = json.loads(Path(args.base).read_text())
    b = json.loads(Path(args.change).read_text())
    p = lambda *x: print(*x, file=out)  # noqa: E731
    for key in MACHINE_KEYS + ["seed"]:
        if a["descriptor"].get(key) != b["descriptor"].get(key):
            p(f"WARNING: descriptors differ in {key}: "
              f"{a['descriptor'].get(key)!r} vs {b['descriptor'].get(key)!r}")
    regressed = False
    p(f"  {'workload':<12}{'metric':<20}{'base':>12}{'change':>12}"
      f"{'worse':>9}{'spread':>9}{'bound':>7}  verdict")
    for w in [w for w in a["workloads"] if w in b["workloads"]]:
        for m in bench["end_to_end"]:
            base = metric_values(a["runs"], w, m["name"])
            change = metric_values(b["runs"], w, m["name"])
            if not base or not change:
                continue
            verdict, worse, spread = judge(base, change, m["bound"],
                                           m["better"])
            regressed = regressed or verdict == "regressed"
            p(f"  {w:<12}{m['name']:<20}{fmt(statistics.median(base)):>12}"
              f"{fmt(statistics.median(change)):>12}{worse:>+9.1%}"
              f"{spread:>9.1%}{m['bound']:>7.0%}  {verdict}")
    return 1 if regressed else 0


def pairs_mode(args, out=None):
    out = out or sys.stdout
    bench = load_benchmark()
    cache = gen(args.base, args.seed, args.workloads)
    p = lambda *x: print(*x, file=out)  # noqa: E731
    record = {"seed": args.seed, "pairs": args.pairs, "workloads": {}}
    wrong_output = False
    for w in args.workloads:
        sides = {"base": [], "change": []}
        for i in range(args.pairs):
            order = [("base", args.base), ("change", args.change)]
            if i % 2 == 1:
                order.reverse()
            for side, binary in order:
                log(f"pair {i} {w} {side} ...")
                sides[side].append(run_once(binary, w, cache, args.seconds))
        failed = {side: sum(r["check"]["failed"] for r in results)
                  for side, results in sides.items()}
        wrong_output = wrong_output or failed["base"] + failed["change"] > 0
        record["workloads"][w] = {"failed": failed}
        p(f"\n== {w}: {args.pairs} pairs, alternating order; failed outputs: "
          f"base {failed['base']}, change {failed['change']}")
        for m in bench["end_to_end"]:
            base = [r["metrics"][m["name"]]["value"] for r in sides["base"]]
            change = [r["metrics"][m["name"]]["value"] for r in sides["change"]]
            s = pair_stats(base, change, m["better"])
            # A gain does not count when more outputs fail than at the base.
            s["gain"] = s["gain"] and failed["change"] <= failed["base"]
            record["workloads"][w][m["name"]] = s
            p(f"  {m['name']:<20} base {fmt(s['base']['median'])} "
              f"[{fmt(s['base']['q1'])}, {fmt(s['base']['q3'])}]  change "
              f"{fmt(s['change']['median'])} [{fmt(s['change']['q1'])}, "
              f"{fmt(s['change']['q3'])}]  wins {s['wins']}/{s['pairs']}  "
              + ("GAIN" if s["gain"] else "no gain"))
        for side, results in sides.items():
            for r in results:
                for problem in r["check"]["problems"]:
                    p(f"  PROBLEM {side}: {problem}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 1 if wrong_output else 0


# ------------------------------------------------------------------ main

def workload_list(text):
    names = [w for w in text.split(",") if w]
    for w in names:
        if w not in WORKLOADS:
            raise argparse.ArgumentTypeError(f"unknown workload {w}")
    return names


def default_seconds():
    try:
        return load_benchmark()["run_seconds"]
    except (OSError, ValueError, KeyError):
        return 25


def parse(argv):
    seconds = default_seconds()
    if argv and argv[0] == "compare":
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("base")
        ap.add_argument("change")
        return "compare", ap.parse_args(argv[1:])
    if argv and argv[0] == "pairs":
        ap = argparse.ArgumentParser(prog="run.py pairs")
        ap.add_argument("--base", required=True, type=Path)
        ap.add_argument("--change", required=True, type=Path)
        ap.add_argument("--workloads", type=workload_list, default=WORKLOADS)
        ap.add_argument("--pairs", type=int, default=10)
        ap.add_argument("--seed", type=int, default=1)
        ap.add_argument("--seconds", type=int, default=seconds)
        ap.add_argument("--out")
        return "pairs", ap.parse_args(argv[1:])
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=seconds)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--workloads", type=workload_list, default=WORKLOADS)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    return ("single" if args.workload else "report"), args


def main(argv):
    mode, args = parse(argv)
    try:
        if mode == "single":
            return single_run(args)
        if mode == "compare":
            return compare_mode(args)
        if mode == "pairs":
            return pairs_mode(args)
        return report_mode(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
