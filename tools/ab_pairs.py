#!/usr/bin/env python3
"""A/B pairs: runs the repository benchmark on a parent revision and on the working tree, alternating.

    python3 tools/ab_pairs.py --parent HEAD --workloads session_wire \\
        --seeds 101-110,201 --seconds 20

The parent's committed files are exported with `git archive REV` into a
temporary directory outside the repository; the working tree is the checkout
this script lives in, uncommitted edits included. For every workload and
seed, one pair of runs of

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

is made, one run at a time: the parent first on even pairs (0, 2, ...), the
working tree first on odd ones. Each tree builds into its own .bench_build/.

For each workload the report gives, for every end-to-end metric that
BENCHMARK.json names: the per-seed parent / change values, each side's median
and quartiles, the change's wins (pairs where it is strictly better in the
metric's direction), whether the metric was identical seed by seed, and
whether the gap between the medians exceeds the parent's interquartile range;
then failed / attempted operations per side.

A run that exits non-zero, or whose standard output ends without a result
line, stops the tool: it names the tree, workload and seed, and exits with
that run's code (1 when the run exited 0 without a result).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class RunFailed(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, hi = (int(x) for x in part.split("-", 1))
            if hi < lo:
                raise argparse.ArgumentTypeError("empty seed range %r" % part)
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds in %r" % spec)
    return seeds


def export_parent(rev, dest):
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(tree, label, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if proc.returncode != 0 or not isinstance(result, dict) or \
            "metrics" not in result:
        sys.stderr.write(proc.stderr[-4000:])
        code = proc.returncode if proc.returncode != 0 else 1
        what = ("exited with %d" % proc.returncode if proc.returncode != 0
                else "printed no result line")
        raise RunFailed(code, "%s run of %s seed %d %s"
                        % (label, workload, seed, what))
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(workload, seeds, runs, metrics):
    print("== %s: %d pair(s), P = parent, C = change" % (workload, len(seeds)))
    header = "%-6s" % "seed"
    for m in metrics:
        header += " %27s" % ("%s P / C" % m["name"])
    print(header)
    for seed in seeds:
        row = "%-6d" % seed
        for m in metrics:
            p = runs[seed]["P"]["metrics"][m["name"]]["value"]
            c = runs[seed]["C"]["metrics"][m["name"]]["value"]
            row += " %27s" % ("%.6g / %.6g" % (p, c))
        print(row)
    print("%-16s %5s %12s %12s %12s %12s %12s %12s %6s %9s %8s" % (
        "metric", "side", "median", "q1", "q3", "C/P median", "gap", "P iqr",
        "wins", "identical", "gap>iqr"))
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        p = [runs[s]["P"]["metrics"][name]["value"] for s in seeds]
        c = [runs[s]["C"]["metrics"][name]["value"] for s in seeds]
        pq1, pmed, pq3 = quartiles(p)
        cq1, cmed, cq3 = quartiles(c)
        wins = sum(1 for a, b in zip(p, c) if (b > a if higher else b < a))
        identical = all(a == b for a, b in zip(p, c))
        gap = cmed - pmed
        ratio = cmed / pmed if pmed else float("nan")
        print("%-16s %5s %12.6g %12.6g %12.6g" % (name, "P", pmed, pq1, pq3))
        print("%-16s %5s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %6s %9s %8s"
              % ("", "C", cmed, cq1, cq3, ratio, gap, pq3 - pq1,
                 "%d/%d" % (wins, len(seeds)), "yes" if identical else "no",
                 "yes" if abs(gap) > pq3 - pq1 else "no"))
    for side, name in (("P", "parent"), ("C", "change")):
        failed = sum(runs[s][side]["failed"] for s in seeds)
        attempted = sum(runs[s][side]["attempted"] for s in seeds)
        per_seed = " ".join("%d/%d" % (runs[s][side]["failed"],
                                       runs[s][side]["attempted"])
                            for s in seeds)
        print("failed/attempted %-6s %d/%d  (per seed: %s)"
              % (name, failed, attempted, per_seed))
    sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True,
                    help="git revision to compare against (e.g. HEAD)")
    ap.add_argument("--workloads", required=True,
                    help="comma-separated perfbench workloads")
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("101-110"),
                    help="seeds, e.g. 101-110 or 101-110,201 (default 101-110)")
    ap.add_argument("--seconds", type=float, default=20,
                    help="timed seconds per run (default 20)")
    args = ap.parse_args()
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    parent = tempfile.mkdtemp(prefix="ab_pairs_parent_")
    try:
        export_parent(args.parent, parent)
        trees = {"P": (parent, "parent"), "C": (ROOT, "change")}
        for workload in workloads:
            runs = {}
            for i, seed in enumerate(args.seeds):
                order = ("P", "C") if i % 2 == 0 else ("C", "P")
                runs[seed] = {}
                for side in order:
                    tree, label = trees[side]
                    runs[seed][side] = run_once(tree, label, workload, seed,
                                                args.seconds)
                    value = runs[seed][side]["metrics"]
                    sys.stderr.write("pair %d/%d %s seed %d %s: %s\n" % (
                        i + 1, len(args.seeds), workload, seed, label,
                        json.dumps({k: round(v["value"], 6)
                                    for k, v in value.items()})))
            report(workload, args.seeds, runs, metrics)
    except RunFailed as e:
        sys.stderr.write("ab_pairs: %s\n" % e)
        return e.code
    except subprocess.CalledProcessError as e:
        sys.stderr.write("ab_pairs: exporting %s failed: %s\n" % (args.parent, e))
        return 2
    finally:
        shutil.rmtree(parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
