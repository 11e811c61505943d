#!/usr/bin/env python3
"""Repository benchmark: builds the workload runner from source and measures one workload.

    python3 perfbench/run.py --workload conv_pool --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --repeat 10 --seconds 20       # spread report
    python3 perfbench/run.py --selftest                     # metric self-tests

Run from the repository root. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones (README.md), with --trace 1 the per-layer
ones. The command exits non-zero, printing no metrics, when the traced and
untraced runs disagree on any model hash, verdict or byte count, or when a
replaying worker is accepted.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ["conv_pool", "wide_stream", "session_wire"]
POOL_WORKLOADS = {"conv_pool", "wide_stream"}
DEADLINE_S = 170.0  # one command must end within 180 s, builds excepted

E2E = [  # name, unit
    ("setup_s", "s"),
    ("subs_per_s", "1/s"),
    ("wan_mb_per_sub", "MB"),
    ("peak_rss_mb", "MB"),
    ("final_accuracy", "ratio"),
    ("correct_share", "ratio"),
]

LAYERS = [  # name, unit; all measured on every workload (README.md)
    ("pool.prepare_s", "s"),
    ("pool.train_commit_s", "s"),
    ("pool.verify_s", "s"),
    ("pool.finish_s", "s"),
    ("pool.verify_to_train", "ratio"),
    ("calibrate.s", "s"),
    ("executor.step_ms", "ms"),
    ("nn.forward_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("executor.steps_per_sub", "count"),
    ("runtime.parallel_for_per_step", "count"),
    ("sim.perturb_ms_per_step", "ms"),
    ("verifier.reexec_steps_per_sub", "count"),
    ("verifier.double_checks_per_sub", "count"),
    ("verifier.proof_mb_per_sub", "MB"),
    ("commit.s_per_sub", "s"),
    ("crypto.hash_mb_per_s", "MB/s"),
    ("lsh.hash_ms", "ms"),
    ("lsh.build_ms", "ms"),
    ("lsh.builds_per_sub", "count"),
    ("ckptstore.append_mb_per_s", "MB/s"),
    ("ckptstore.cold_fetch_ms", "ms"),
    ("ckptstore.spill_mb_per_sub", "MB"),
    ("ckptstore.reloads_per_sub", "count"),
    ("ckptstore.hot_peak_mb", "MB"),
    ("wire.encode_mb_per_s", "MB/s"),
    ("wire.decode_mb_per_s", "MB/s"),
    ("session.s", "s"),
    ("session.retries_per_sub", "count"),
    ("session.status.accepted", "count"),
    ("session.status.verdict_rejected", "count"),
    ("session.status.decode_rejected", "count"),
    ("session.status.timeout", "count"),
    ("session.exceptions_per_sub", "count"),
    ("verdict.false_accept_rate", "ratio"),
    ("verdict.false_reject_rate", "ratio"),
    ("data.build_s", "s"),
    ("trace.overhead", "ratio"),
]

# Workload-runner outputs that must not move with the environment: they are exact for
# a given seed (prints holds each unit's model hash, statuses and bytes).
EXACT = ["prints", "wan_bytes", "final_accuracy", "attempted", "failed",
         "false_accept_rate", "false_reject_rate", "failed_share"]


class GateError(Exception):
    """A correctness check failed; the command prints no metrics."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env(base):
    """The environment a workload runs in: no RPOL_* variable survives, so
    thread count, shard count, checkpoint budget, tracing and live telemetry
    take the values the workload runner sets or their code defaults."""
    env = {k: v for k, v in base.items() if not k.startswith("RPOL_")}
    removed = sorted(k for k in base if k.startswith("RPOL_"))
    return env, removed


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: repository sources not found next to "
                         "perfbench/ (expected src/CMakeLists.txt)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "perfbench_workload", "perfbench_selftest", "rpol"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_workload(workload, seed, seconds, mode, scratch, env, deadline,
                 short=False):
    out = os.path.join(scratch, "%s-%s.json" % (workload, mode))
    cmd = [os.path.join(BUILD, "perfbench_workload"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--out", out, "--scratch", scratch]
    if short:
        cmd.append("--short")
    denv = dict(env)
    denv["TMPDIR"] = scratch  # checkpoint spill files land in scratch
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise GateError("out of time before the %s run" % mode)
    proc = subprocess.run(cmd, env=denv, timeout=remaining,
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise GateError("%s run exited with %d" % (mode, proc.returncode))
    with open(out) as f:
        return json.load(f)


def compare(untraced, traced, workload):
    """Decision-blindness (DESIGN section 7): over the units both runs made,
    tracing and the phase-API loop change no bit of the model, no verdict
    and no byte count."""
    n = min(len(untraced["prints"]), len(traced["prints"]))
    if n == 0:
        raise GateError("no common units to compare")
    for i in range(n):
        a, b = untraced["prints"][i], traced["prints"][i]
        for key in ("model_sha", "statuses", "wan_bytes"):
            if a[key] != b[key]:
                raise GateError("%s unit %d: traced and untraced runs differ in "
                                "%s (%s vs %s)" % (workload, i, key, a[key], b[key]))
    for res in (untraced, traced):
        if res["replay_accepted"]:
            raise GateError("%s: a replaying worker was accepted" % workload)
    return n


def e2e_metrics(res):
    subs = max(res["attempted"], 1)
    return {
        "setup_s": res["setup_s"],
        "subs_per_s": res["subs_per_s"],
        "wan_mb_per_sub": res["wan_bytes"] / 1e6 / subs,
        "peak_rss_mb": res["peak_rss_mb"],
        "final_accuracy": res["final_accuracy"],
        "correct_share": 1.0 - res["failed_share"],
    }


def measure(workload, seed, seconds, trace, base_env, short=False):
    """Runs one workload as the benchmark command defines; returns its
    result object, the report lines and the untraced run's raw output."""
    if workload not in WORKLOADS:
        raise SystemExit("unknown workload %r (choose from %s)"
                         % (workload, ", ".join(WORKLOADS)))
    deadline = time.monotonic() + DEADLINE_S
    env, removed = clean_env(base_env)
    scratch = os.path.join(ROOT, ".bench_build", "scratch", "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    lines = ["perfbench %s seed=%d seconds=%s trace=%d" % (workload, seed, seconds, trace),
             "environment: removed %s; threads=2 set by the workload runner"
             % (", ".join(removed) if removed else "no RPOL_* variable")]
    try:
        untraced = run_workload(workload, seed, seconds, "untraced", scratch,
                                env, deadline, short)
        traced = run_workload(workload, seed, seconds,
                              "traced" if trace else "gate", scratch, env,
                              deadline, short)
        if untraced["pid"] == traced["pid"]:
            raise GateError("untraced and traced runs shared a process")
        n = compare(untraced, traced, workload)
        lines += untraced["report"]
        lines.append("gate: traced and untraced runs agree on %d unit(s); "
                     "no replay accepted" % n)
        m = e2e_metrics(untraced)
        if m["subs_per_s"] <= 0 or untraced["subs_per_s_n"] < 1:
            raise GateError("no timed unit completed")
        lines.append("end-to-end (tracing off; exact metrics over warm-up + %d "
                     "unit(s)):" % (untraced["deterministic_units"] - 1))
        lines.append("  %-24s %12.6g s     (median of set-ups)" % ("setup_s", m["setup_s"]))
        lines.append("  %-24s %12.6g 1/s   (median, n=%d)"
                     % ("subs_per_s", m["subs_per_s"], untraced["subs_per_s_n"]))
        lines.append("  %-24s %12.6g MB" % ("wan_mb_per_sub", m["wan_mb_per_sub"]))
        lines.append("  %-24s %12.6g MB" % ("peak_rss_mb", m["peak_rss_mb"]))
        lines.append("  %-24s %12.6g ratio" % ("final_accuracy", m["final_accuracy"]))
        lines.append("  %-24s %12.6g ratio (%d dishonest judged)"
                     % ("false_accept_rate", untraced["false_accept_rate"],
                        untraced["dishonest_judged"]))
        lines.append("  %-24s %12.6g ratio (%d honest judged)"
                     % ("false_reject_rate", untraced["false_reject_rate"],
                        untraced["honest_judged"]))
        lines.append("  %-24s %12.6g ratio (%d of %d attempted; JSON reports "
                     "correct_share = 1 - failed_share)"
                     % ("failed_share", untraced["failed_share"],
                        untraced["failed"], untraced["attempted"]))
        result = {"correct": True, "attempted": untraced["attempted"],
                  "failed": untraced["failed"], "metrics": {}}
        if not trace:
            for name, unit in E2E:
                result["metrics"][name] = {"value": m[name], "unit": unit}
            return result, lines, untraced
        if workload in POOL_WORKLOADS and traced["phase_coverage"] < 0.95:
            raise GateError("phase spans cover only %.3f of an epoch"
                            % traced["phase_coverage"])
        layers = dict(traced["layers"])
        layers["verdict.false_accept_rate"] = untraced["false_accept_rate"]
        layers["verdict.false_reject_rate"] = untraced["false_reject_rate"]
        layers["trace.overhead"] = untraced["subs_per_s"] / traced["subs_per_s"]
        lines.append("traced run (per layer):")
        lines += traced["report"]
        lines.append("  %-34s %12.6g ratio  (untraced / traced subs_per_s)"
                     % ("trace.overhead", layers["trace.overhead"]))
        os.makedirs(TRACES, exist_ok=True)
        kept = os.path.join(TRACES, "%s-seed%d.jsonl" % (workload, seed))
        shutil.copyfile(os.path.join(scratch, "trace.jsonl"), kept)
        lines.append("trace kept at %s; open it with: %s/rpol/tools/rpol "
                     "timeline --file %s" % (os.path.relpath(kept, ROOT),
                                             os.path.relpath(BUILD, ROOT),
                                             os.path.relpath(kept, ROOT)))
        for name, unit in LAYERS:
            if name not in layers:
                raise GateError("per-layer metric %s missing" % name)
            result["metrics"][name] = {"value": layers[name], "unit": unit}
        return result, lines, untraced
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(count, seconds, workloads, first_seed):
    """Spread report: alternates the workloads, one seed per round. A run that
    fails is reported and left out of the statistics."""
    values = {w: {} for w in workloads}
    failures = []
    for i in range(count):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            seed = first_seed + i
            t = time.monotonic()
            try:
                res, _, _ = measure(w, seed, seconds, 0, os.environ)
            except (GateError, subprocess.TimeoutExpired) as e:
                failures.append("%s seed %d: %s" % (w, seed, e))
                log("repeat %d/%d %s seed %d: FAILED: %s" % (i + 1, count, w, seed, e))
                continue
            log("repeat %d/%d %s seed %d: %.1f s %s" % (
                i + 1, count, w, seed, time.monotonic() - t,
                json.dumps({k: round(v["value"], 6) for k, v in res["metrics"].items()})))
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
    print("spread over %d run(s) per workload, seeds %d..%d:"
          % (count, first_seed, first_seed + count - 1))
    print("%-14s %-22s %12s %12s %12s %12s %12s %9s" % (
        "workload", "metric", "median", "q1", "q3", "min", "max", "iqr/med"))
    for w in workloads:
        for name, _ in E2E:
            v = values[w].get(name)
            if not v:
                continue
            q1, med, q3 = quartiles(v)
            spread = (q3 - q1) / med if med else float("nan")
            print("%-14s %-22s %12.6g %12.6g %12.6g %12.6g %12.6g %9.4f" % (
                w, name, med, q1, q3, min(v), max(v), spread))
    for f in failures:
        print("failed: " + f)
    return values


def selftest():
    """Metric-definition tests, then environment isolation end to end."""
    subprocess.run([os.path.join(BUILD, "perfbench_selftest")], check=True,
                   stdout=sys.stderr)
    polluted = dict(os.environ)
    polluted.update({"RPOL_THREADS": "1", "RPOL_SHARDS": "3",
                     "RPOL_CKPT_BUDGET": "4096", "RPOL_TRACE": "1",
                     "RPOL_LIVE": "1", "RPOL_LIVE_INTERVAL_MS": "5"})
    plain = {k: v for k, v in os.environ.items() if not k.startswith("RPOL_")}
    _, _, a = measure("wide_stream", 3, 1, 0, plain, short=True)
    _, _, b = measure("wide_stream", 3, 1, 0, polluted, short=True)
    for name in EXACT:
        if a[name] != b[name]:
            raise GateError("environment leaked into %s: %r vs %r"
                            % (name, a[name], b[name]))
    if a["pid"] == b["pid"]:
        raise GateError("two workload runs shared one process")
    settings = [[l for l in r["report"] if l.startswith("settings:")] for r in (a, b)]
    if settings[0] != settings[1]:
        raise GateError("environment changed the resolved settings: %s vs %s"
                        % (settings[0], settings[1]))
    print("selftest: metric definitions pass; exact metrics identical with "
          "RPOL_THREADS/RPOL_SHARDS/RPOL_CKPT_BUDGET/RPOL_TRACE/RPOL_LIVE set")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="spread report over this many seeds per workload")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not (args.selftest or args.repeat or args.workload):
        ap.error("give --workload, --repeat or --selftest")
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log("perfbench: build failed: %s" % e)
        return 2
    try:
        if args.selftest:
            selftest()
            return 0
        if args.repeat:
            repeat(args.repeat, args.seconds, WORKLOADS, args.seed)
            return 0
        result, lines, _ = measure(args.workload, args.seed, args.seconds,
                                   args.trace, os.environ)
    except (GateError, subprocess.TimeoutExpired,
            subprocess.CalledProcessError) as e:
        log("perfbench: FAILED: %s" % e)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
