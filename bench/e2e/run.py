#!/usr/bin/env python3
"""End-to-end benchmark runner for the plan, simulate and serve paths.

One run (the BENCHMARK.json command; prints the result object last):
    python3 bench/e2e/run.py --workload W --seed S --seconds T --trace 0|1 [--smoke]
Every workload, with a summary table and bench_out/e2e/results-<seed>.json:
    python3 bench/e2e/run.py [--seed S] [--reps N] [--seconds T] [--out F]
Smoke check (one small traced run per workload, every correctness check on):
    python3 bench/e2e/run.py --smoke
Regression bounds and the gain rule between two sets of results files:
    python3 bench/e2e/run.py compare --base A.json... --new B.json...
Re-pin the default-seed output digests in bench/e2e/expected.json:
    python3 bench/e2e/run.py pin

The driver is built from the repository's sources into build-bench/ (Release)
on every invocation; the first build takes about a minute.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-bench"
OUT = ROOT / "bench_out" / "e2e"
EXPECTED = HERE / "expected.json"
WORKLOADS = ["plan", "simulate", "serve-day", "serve-churn"]


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "cynthia_e2e"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=880)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            raise RuntimeError("benchmark build failed: " + " ".join(cmd))
    return BUILD / "cynthia_e2e"


def expected_digests(workload, mode, seed):
    """Pinned per-operation digests for this run, or None when none apply."""
    if not EXPECTED.exists():
        return None
    with open(EXPECTED) as f:
        pinned = json.load(f)
    if pinned.get("seed") != seed:
        return None
    return pinned.get("digests", {}).get(workload, {}).get(mode)


def run_one(binary, workload, seed, seconds, trace, smoke):
    """Runs the driver once. Returns (result, info, output lines, exit code);
    result is None when the driver printed none."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(170.0, 3.0 * seconds + 60.0))
    lines = done.stdout.splitlines()
    result = info = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    for line in lines:
        if line.startswith("info "):
            info = json.loads(line[len("info "):])
    if result is not None and info is not None:
        pinned = expected_digests(workload, info["mode"], seed)
        if pinned is not None:
            ran = info["digests"]
            bad = [i for i in range(min(len(ran), len(pinned))) if ran[i] != pinned[i]]
            for i in bad:
                lines.insert(-1, "expected.json: op %d digest %s, pinned %s"
                             % (i, ran[i], pinned[i]))
            if bad:
                result["correct"] = False
                result["failed"] = min(result["attempted"], result["failed"] + len(bad))
    return result, info, lines[:-1] if result is not None else lines, done.returncode


def single(args):
    binary = build()
    result, _, lines, code = run_one(binary, args.workload, args.seed, args.seconds,
                                     args.trace == 1, args.smoke)
    for line in lines:
        print(line)
    if result is None:
        sys.stderr.write("driver exited %d without a result\n" % code)
        return 1
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if code == 0 and result["correct"] else 1


def spread(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def suite(args):
    binary = build()
    seconds = args.seconds or benchmark_spec()["run_seconds"]
    runs = {w: {"untraced": [], "traced": None, "quality": None, "correct": True}
            for w in WORKLOADS}
    for rep in range(0 if args.smoke else args.reps):
        for w in WORKLOADS:
            result, info, _, code = run_one(binary, w, args.seed, seconds, False, args.smoke)
            ok = result is not None and code == 0 and result["correct"]
            runs[w]["correct"] &= ok
            if result is not None:
                runs[w]["untraced"].append(result["metrics"])
                runs[w]["quality"] = info and info["quality"]
            print("rep %d %-12s %s" % (rep + 1, w, "ok" if ok else "FAILED"), flush=True)
    for w in WORKLOADS:
        result, info, _, code = run_one(binary, w, args.seed, seconds, True, args.smoke)
        ok = result is not None and code == 0 and result["correct"]
        runs[w]["correct"] &= ok
        runs[w]["traced"] = result and result["metrics"]
        runs[w]["quality"] = runs[w]["quality"] or (info and info["quality"])
        print("traced %-12s %s" % (w, "ok" if ok else "FAILED"), flush=True)

    summary = {}
    if not args.smoke:
        print("\n%-28s %-9s %-12s %14s %9s" % ("metric", "unit", "workload", "median", "IQR/med"))
    for w in WORKLOADS:
        summary[w] = {}
        for name in sorted({m for r in runs[w]["untraced"] for m in r}):
            values = [r[name]["value"] for r in runs[w]["untraced"] if name in r]
            med, q1, q3 = spread(values)
            unit = runs[w]["untraced"][0][name]["unit"]
            summary[w][name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "values": values}
            print("%-28s %-9s %-12s %14.6g %8.2f%%" % (name, unit, w, med,
                                                     100.0 * (q3 - q1) / med if med else 0.0))
    print()
    for w in WORKLOADS:
        traced = runs[w]["traced"] or {}
        print("%s: quality %s" % (w, json.dumps(runs[w]["quality"])))
        print("%s: traced %s" % (w, ", ".join("%s=%.4g" % (k, v["value"])
                                              for k, v in traced.items() if v["value"])))
    out = Path(args.out) if args.out else OUT / ("results-%d.json" % args.seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump({"seed": args.seed, "seconds": seconds, "reps": args.reps, "smoke": args.smoke,
                   "summary": summary, "runs": runs}, f, indent=1)
    print("results: %s" % out)
    return 0 if all(runs[w]["correct"] for w in WORKLOADS) else 1


def compare(args):
    """Applies the BENCHMARK.json bounds per (metric, workload), and the gain
    rule: >= 10 pairs (by position), the new side wins >= 9/10 of them, and the
    medians differ by more than the base's quartile distance."""
    def values(files):
        merged = {}
        for path in files:
            with open(path) as f:
                summary = json.load(f)["summary"]
            for w, metrics in summary.items():
                for name, s in metrics.items():
                    merged.setdefault((w, name), []).extend(s["values"])
        return merged

    base, new = values(args.base), values(args.new)
    regressions = 0
    print("%-12s %-12s %12s %12s %8s %6s  %s" % ("workload", "metric", "base", "new", "better",
                                                 "bound", "verdict"))
    for m in benchmark_spec()["end_to_end"]:
        for w in WORKLOADS:
            a, b = base.get((w, m["name"])), new.get((w, m["name"]))
            if not a or not b:
                continue
            lower = m["better"] == "lower"
            med_a, q1_a, q3_a = spread(a)
            med_b = spread(b)[0]
            worse = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a
            better_all = max(b) < min(a) if lower else min(b) > max(a)
            if (q3_a - q1_a) / med_a > m["bound"] and not better_all:
                verdict = "unresolved (base spread above bound)"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "within bound"
            pairs = list(zip(a, b))
            wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
            if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3_a - q1_a:
                verdict += "; gain (%d/%d pairs)" % (wins, len(pairs))
            print("%-12s %-12s %12.6g %12.6g %+7.2f%% %5.0f%%  %s" % (
                w, m["name"], med_a, med_b, -100.0 * worse, 100.0 * m["bound"], verdict))
    return 1 if regressions else 0


def pin():
    """Pins every operation digest of a default-length and a smoke run at seed 1."""
    binary = build()
    seconds = benchmark_spec()["run_seconds"]
    digests = {}
    for w in WORKLOADS:
        digests[w] = {}
        for smoke in (False, True):
            result, info, _, code = run_one(binary, w, 1, seconds, False, smoke)
            if result is None or code != 0 or not result["correct"]:
                sys.stderr.write("pin: %s run failed\n" % w)
                return 1
            digests[w][info["mode"]] = info["digests"]
    with open(EXPECTED, "w") as f:
        json.dump({"seed": 1, "digests": digests}, f, indent=1)
        f.write("\n")
    print("pinned %s" % EXPECTED)
    return 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("--base", nargs="+", required=True)
        p.add_argument("--new", nargs="+", required=True)
        return compare(p.parse_args(argv[1:]))
    if argv and argv[0] == "pin":
        return pin()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--out")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.workload:
        if args.seconds is None:
            args.seconds = benchmark_spec()["run_seconds"]
        return single(args)
    return suite(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("run.py: %s\n" % e)
        sys.exit(1)
