#!/usr/bin/env python3
"""A/B pairs of the benchmark: is the change better, worse, or can't we tell?

Runs two builds of perf_bench — the parent commit's and the change's — on one
workload in alternating pairs, the side that goes first flipped every pair,
and prints for each end-to-end metric of BENCHMARK.json the per-pair values,
how many pairs the change won (ties count for neither side), both medians and
quartiles (statistics.quantiles(values, n=4)), and a verdict:

  gain        the change won at least nine tenths of the pairs and the medians
              differ by more than the parent's own spread (Q3 - Q1);
  REGRESSION  the change's median is worse than the parent's by more than the
              metric's bound;
  unresolved  neither, but the parent's spread is wider than the bound, and
              not every run of the change beat every run of the parent;
  no worse    none of the above.

Also prints, per run, the operations attempted and failed and the output
digest, and fails when an operation failed or the two builds' digests differ.
Each workload block also lists every run's minor page faults (the
getrusage(RUSAGE_CHILDREN) delta around the child, its own children
included) and each side's median: information for locating a saving, no
verdict.
A run that exits nonzero after its result line (perf_bench does when its
output check fails) counts all its operations as failed; a run that printed
no result line, or timed out, counts as one failed operation and is left out
of the medians. Either way the session goes on and exits 1 at the end.
Metric names, directions, bounds and the run length come from BENCHMARK.json.

`--workload all` is the whole no-regression table in one command: within each
pair a side runs every workload back to back before the other side starts, so
a change of host regime hits parent and change alike; after the per-workload
blocks comes one summary row per workload and end-to-end metric, and any
REGRESSION, failed operation or digest mismatch makes the exit status 1.

For train_conv it also prints the step each run ended on and flags the steps
at which the benchmark's output check ("last loss below the first") fails on
the bit-identical trajectory whatever the code does (ROADMAP item 1(a)).

`--layers` locates a saving: after each seed's pairs it runs one `--trace 1`
child per side for each workload and prints every per-layer metric of
BENCHMARK.json that either side reports as `parent -> change` with the ratio,
marking `exact` the counters that repeat to the digit on every run
(`bench.alloc.*`, the `tensor.pool.*` counts, `core.engine.waves_per_step`
and the scheduler's event, allocate-call and resize counts) — one run per
side is their value; the timed ones are one sample each, to be read against
the pairs.

`--threads N` is a different, information-only session: no pairs of the
benchmark and no verdict. It runs each side's `--child measure` child
directly, at VF_NUM_THREADS=N (the gated runs use one thread), alternating
sides as the pairs do, and prints each run's peak_rss_mib and each side's
median, per workload and seed. It answers "what does a second thread cost in
memory?", which the one-thread benchmark cannot.

Build each commit once, in its own checkout, then from the repository root:

  cargo build --release --manifest-path perf_bench/Cargo.toml
  python3 scripts/perf_pairs.py PARENT/perf_bench/target/release/perf_bench \\
      perf_bench/target/release/perf_bench --workload train_many_vn \\
      [--seeds 2022,7] [--pairs 10] [--seconds 20] [--layers | --threads N]
"""
import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

NAMES = [w["name"] for w in bench["workloads"]]
# train_conv warms up for 16 steps (its check_steps) before the timed ones, so
# a run's last step is number `attempted + 16`, 0-based index one less. A run
# whose last step has one of these indices in its seed's trajectory fails the
# output check at any commit. Both seeds' trajectories were scanned through
# step 3000: seed 7 has only 783 there.
CONV_WARM_UP = 16
CONV_HAZARD = {2022: {282, 283, 332, 763, 834, 835, 836, 1476, 1477, 1478, 1479, 1480,
                      2322, 2324},
               7: {783}}
# Per-layer counters that repeat to the digit on every run of one build
# (ROADMAP item 1(b)); `tensor.pool.dispatch_us` is a time, not one of them.
EXACT = {"bench.alloc.count_per_op", "bench.alloc.bytes_per_op", "tensor.pool.jobs_per_step",
         "tensor.pool.chunks_per_step", "tensor.pool.serial_fallbacks_per_step",
         "core.engine.waves_per_step", "sched.sim.events_per_run",
         "sched.scheduler.allocate_calls_per_run", "sched.sim.resizes_per_run"}

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("parent_bin")
parser.add_argument("change_bin")
parser.add_argument("--workload", required=True, choices=NAMES + ["all"])
parser.add_argument("--seeds", default="2022,7")
parser.add_argument("--pairs", type=int, default=10)
parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
parser.add_argument("--layers", action="store_true",
                    help="after the pairs, one traced run per side: per-layer metrics, parent -> change")
parser.add_argument("--threads", type=int,
                    help="instead of the pairs: each side's measure child at VF_NUM_THREADS=N, "
                         "peak_rss_mib per run and median (information only, no verdict)")
args = parser.parse_args()
workloads = NAMES if args.workload == "all" else [args.workload]


def run(binary, workload, seed, trace=0):
    """One child run. A run without a result line is one failed operation
    and carries no metrics, so it stays out of the medians."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    lost = {"attempted": 1, "failed": 1, "digest": None}
    faults_before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    try:
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=60 + 10 * args.seconds)
    except subprocess.TimeoutExpired:
        return {**lost, "error": "timed out"}
    minflt = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults_before
    try:
        result = json.loads(child.stdout.strip().splitlines()[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        attempted, failed, correct = result["attempted"], result["failed"], result["correct"]
    except (IndexError, ValueError, TypeError, KeyError, AttributeError):
        return {**lost, "minflt": minflt, "error": f"exit {child.returncode}, no result line"}
    digest = re.search(r"digest ([0-9a-f]+)", child.stdout)
    ok = correct and child.returncode == 0
    return {"attempted": attempted,
            "failed": failed if ok else attempted,
            "digest": digest.group(1) if digest else "?",
            "minflt": minflt,
            **({} if child.returncode == 0 else {"error": f"exit {child.returncode}"}),
            **metrics}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(metric, parent, change):
    """`parent` and `change` hold one value per pair, None for a run that
    reported nothing: wins count pairs where both sides reported, the
    quartiles each side's reported values."""
    higher = metric["better"] == "higher"
    better = (lambda c, p: c > p) if higher else (lambda c, p: c < p)
    pairs = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    wins = sum(better(c, p) for p, c in pairs)
    losses = sum(better(p, c) for p, c in pairs)
    parent = [p for p in parent if p is not None]
    change = [c for c in change if c is not None]
    if not parent or not change:
        return wins, losses, (0, 0, 0), (0, 0, 0), "no data"
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    gap = (cm - pm) if higher else (pm - cm)
    if wins >= 0.9 * len(parent) and gap > p3 - p1:
        word = "gain"
    elif -gap / pm > metric["bound"]:
        word = "REGRESSION"
    elif (p3 - p1) / pm > metric["bound"] and not all(better(c, p) for c in change for p in parent):
        word = "unresolved"
    else:
        word = "no worse"
    return wins, losses, (p1, pm, p3), (c1, cm, c3), word


def report(workload, seed, runs):
    """Prints one workload's block; returns (ok, its summary rows)."""
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    digests = {side: sorted({r["digest"] for r in rs if r["digest"]}) for side, rs in runs.items()}
    same = digests["parent"] == digests["change"] and len(digests["parent"]) == 1
    clean = same and not any(failed.values())
    ok = clean
    print(f"\n== {workload} | seed {seed} | {args.pairs} pairs of {args.seconds:g} s ==")
    print(f"  ops failed: parent {failed['parent']}, change {failed['change']} | digests "
          f"{'equal' if same else 'DIFFER'}: parent {digests['parent']}, change {digests['change']}")
    print("  ops attempted per run: parent", [r["attempted"] for r in runs["parent"]],
          "change", [r["attempted"] for r in runs["change"]])
    faults = {side: [r["minflt"] for r in rs if "minflt" in r] for side, rs in runs.items()}
    print("  minor page faults per run: parent", faults["parent"], "change", faults["change"])
    print("    median: " + " | ".join(
        f"{side} {statistics.median(f):.0f}" if f else f"{side} -" for side, f in faults.items()))
    if workload == "train_conv":
        ended = {side: [r["attempted"] + CONV_WARM_UP - 1 for r in rs] for side, rs in runs.items()}
        hazard = sorted({s for steps in ended.values() for s in steps} & CONV_HAZARD.get(seed, set()))
        print(f"  ended on step (0-based): parent {ended['parent']} change {ended['change']} | "
              + (f"HAZARD: {hazard} fail the output check at any commit" if hazard
                 else "none on a step whose loss is not below step 0's"))
    rows = []
    for metric in bench["end_to_end"]:
        name = metric["name"]
        parent = [r.get(name) for r in runs["parent"]]
        change = [r.get(name) for r in runs["change"]]
        wins, losses, pq, cq, word = verdict(metric, parent, change)
        ok = ok and word not in ("REGRESSION", "no data")
        if word == "no data":
            print(f"  {name}: no run of one side reported it | no data")
            rows.append(f"  {workload:14} {name:14} {'-':>13}  {wins:2}/{len(parent):<2}  no data")
            continue
        print(f"  {name} ({metric['unit']}, {metric['better']} is better, bound {metric['bound']:.0%})")
        print("    per pair, parent/change: " + "  ".join(
            f"{'-' if p is None else f'{p:.6g}'}/{'-' if c is None else f'{c:.6g}'}"
            for p, c in zip(parent, change)))
        print(f"    parent Q1 {pq[0]:.6g} median {pq[1]:.6g} Q3 {pq[2]:.6g} | "
              f"change Q1 {cq[0]:.6g} median {cq[1]:.6g} Q3 {cq[2]:.6g}")
        print(f"    change won {wins}, lost {losses} of {len(parent)} | change/parent median "
              f"{cq[1] / pq[1]:.3f} | parent IQR/median {(pq[2] - pq[0]) / pq[1]:.1%} | {word}")
        rows.append(f"  {workload:14} {name:14} {cq[1] / pq[1]:13.3f}  {wins:2}/{len(parent):<2}  {word}"
                    + ("" if clean else "  (ops failed or digests differ)"))
    print(flush=True)
    return ok, rows


def layers(workload, seed):
    """Prints each per-layer metric of one traced run per side, parent -> change."""
    runs = {side: run(binary, workload, seed, trace=1)
            for side, binary in (("parent", args.parent_bin), ("change", args.change_bin))}
    print(f"\n== layers | {workload} | seed {seed} | one --trace 1 run of {args.seconds:g} s per side ==")
    print(f"  digests: parent {runs['parent']['digest']}, change {runs['change']['digest']}")
    for metric in bench["per_layer"]:
        name = metric["name"]
        p, c = runs["parent"].get(name, 0.0), runs["change"].get(name, 0.0)
        if p == 0 and c == 0:
            continue
        ratio = f"x{c / p:.3f}" if p else "new"
        exact = "exact" if name in EXACT else ""
        print(f"  {name:42} {p:14.6g} -> {c:<14.6g} {ratio:>8} "
              f"({metric['better']} is better) {exact}")
    print(flush=True)


def peak_rss_at_threads():
    """The --threads session: peak_rss_mib of each side's measure child at
    VF_NUM_THREADS=args.threads. Exits 1 if a child failed, else 0."""
    env = {**os.environ, "VF_NUM_THREADS": str(args.threads)}
    failed = 0
    for seed in [int(s) for s in args.seeds.split(",")]:
        peaks = {w: {"parent": [], "change": []} for w in workloads}
        for pair in range(args.pairs):
            sides = [("parent", args.parent_bin), ("change", args.change_bin)]
            for side, binary in sides if pair % 2 == 0 else sides[::-1]:
                for w in workloads:
                    cmd = [binary, "--child", "measure", "--workload", w, "--seed", str(seed),
                           "--seconds", str(args.seconds)]
                    child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                                           timeout=60 + 10 * args.seconds)
                    found = re.search(r"^m peak_rss_mib (\S+)$", child.stdout, re.MULTILINE)
                    if child.returncode != 0 or not found:
                        failed += 1
                        print(f"{w} seed {seed} pair {pair + 1}/{args.pairs} {side}: "
                              f"FAILED (exit {child.returncode})", flush=True)
                        continue
                    peaks[w][side].append(float(found.group(1)))
                    print(f"{w} seed {seed} pair {pair + 1}/{args.pairs} {side}: "
                          f"peak_rss_mib {found.group(1)}", flush=True)
        for w in workloads:
            print(f"\n== {w} | seed {seed} | peak_rss_mib at VF_NUM_THREADS={args.threads}, "
                  f"{args.pairs} runs of {args.seconds:g} s per side (information only) ==")
            for side, values in peaks[w].items():
                median = f"{statistics.median(values):.4g}" if values else "-"
                print(f"  {side:6} runs {' '.join(f'{v:.4g}' for v in values)} | median {median}")
    sys.exit(1 if failed else 0)


if args.threads:
    peak_rss_at_threads()

ok = True
summary = []
for seed in [int(s) for s in args.seeds.split(",")]:
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for pair in range(args.pairs):
        sides = [("parent", args.parent_bin), ("change", args.change_bin)]
        for side, binary in sides if pair % 2 == 0 else sides[::-1]:
            for w in workloads:
                r = run(binary, w, seed)
                runs[w][side].append(r)
                print(f"{w} seed {seed} pair {pair + 1}/{args.pairs} {side}: {r}", flush=True)
    summary.append(f"== summary | seed {seed} | {args.pairs} pairs of {args.seconds:g} s ==")
    summary.append(f"  {'workload':14} {'metric':14} change/parent  wins   verdict")
    for w in workloads:
        w_ok, rows = report(w, seed, runs[w])
        ok = ok and w_ok
        summary += rows
    if args.layers:
        for w in workloads:
            layers(w, seed)
if len(workloads) > 1:
    print("\n".join(summary), flush=True)
sys.exit(0 if ok else 1)
