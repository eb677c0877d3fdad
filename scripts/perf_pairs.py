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
Metric names, directions, bounds and the run length come from BENCHMARK.json.

`--workload all` is the whole no-regression table in one command: within each
pair a side runs every workload back to back before the other side starts, so
a change of host regime hits parent and change alike; after the per-workload
blocks comes one summary row per workload and end-to-end metric, and any
REGRESSION, failed operation or digest mismatch makes the exit status 1.

For train_conv it also prints the step each run ended on and flags the steps
at which the benchmark's output check ("last loss below the first") fails on
the bit-identical trajectory whatever the code does (ROADMAP item 1(a)).

Build each commit once, in its own checkout, then from the repository root:

  cargo build --release --manifest-path perf_bench/Cargo.toml
  python3 scripts/perf_pairs.py PARENT/perf_bench/target/release/perf_bench \\
      perf_bench/target/release/perf_bench --workload train_many_vn \\
      [--seeds 2022,7] [--pairs 10] [--seconds 20]
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

NAMES = [w["name"] for w in bench["workloads"]]
# train_conv warms up for 16 steps (its check_steps) before the timed ones, so
# a run's last step is number `attempted + 16`, 0-based index one less. A run
# whose last step has one of these indices in its seed's trajectory fails the
# output check at any commit.
CONV_WARM_UP = 16
CONV_HAZARD = {2022: {282, 283, 332, 763, 834, 835, 836, 1476, 1477, 1478, 1479, 1480},
               7: {783}}

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("parent_bin")
parser.add_argument("change_bin")
parser.add_argument("--workload", required=True, choices=NAMES + ["all"])
parser.add_argument("--seeds", default="2022,7")
parser.add_argument("--pairs", type=int, default=10)
parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
args = parser.parse_args()
workloads = NAMES if args.workload == "all" else [args.workload]


def run(binary, workload, seed):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=60 + 10 * args.seconds, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    digest = re.search(r"digest ([0-9a-f]+)", out)
    return {"attempted": result["attempted"],
            "failed": result["failed"] if result["correct"] else result["attempted"],
            "digest": digest.group(1) if digest else "?",
            **{name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(metric, parent, change):
    higher = metric["better"] == "higher"
    better = (lambda c, p: c > p) if higher else (lambda c, p: c < p)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    losses = sum(better(p, c) for p, c in zip(parent, change))
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
    digests = {side: sorted({r["digest"] for r in rs}) for side, rs in runs.items()}
    same = digests["parent"] == digests["change"] and len(digests["parent"]) == 1
    clean = same and not any(failed.values())
    ok = clean
    print(f"\n== {workload} | seed {seed} | {args.pairs} pairs of {args.seconds:g} s ==")
    print(f"  ops failed: parent {failed['parent']}, change {failed['change']} | digests "
          f"{'equal' if same else 'DIFFER'}: parent {digests['parent']}, change {digests['change']}")
    print("  ops attempted per run: parent", [r["attempted"] for r in runs["parent"]],
          "change", [r["attempted"] for r in runs["change"]])
    if workload == "train_conv":
        ended = {side: [r["attempted"] + CONV_WARM_UP - 1 for r in rs] for side, rs in runs.items()}
        hazard = sorted({s for steps in ended.values() for s in steps} & CONV_HAZARD.get(seed, set()))
        print(f"  ended on step (0-based): parent {ended['parent']} change {ended['change']} | "
              + (f"HAZARD: {hazard} fail the output check at any commit" if hazard
                 else "none on a step whose loss is not below step 0's"))
    rows = []
    for metric in bench["end_to_end"]:
        name = metric["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        wins, losses, pq, cq, word = verdict(metric, parent, change)
        ok = ok and word != "REGRESSION"
        print(f"  {name} ({metric['unit']}, {metric['better']} is better, bound {metric['bound']:.0%})")
        print("    per pair, parent/change: " + "  ".join(f"{p:.6g}/{c:.6g}" for p, c in zip(parent, change)))
        print(f"    parent Q1 {pq[0]:.6g} median {pq[1]:.6g} Q3 {pq[2]:.6g} | "
              f"change Q1 {cq[0]:.6g} median {cq[1]:.6g} Q3 {cq[2]:.6g}")
        print(f"    change won {wins}, lost {losses} of {len(parent)} | change/parent median "
              f"{cq[1] / pq[1]:.3f} | parent IQR/median {(pq[2] - pq[0]) / pq[1]:.1%} | {word}")
        rows.append(f"  {workload:14} {name:14} {cq[1] / pq[1]:13.3f}  {wins:2}/{len(parent):<2}  {word}"
                    + ("" if clean else "  (ops failed or digests differ)"))
    print(flush=True)
    return ok, rows


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
if len(workloads) > 1:
    print("\n".join(summary), flush=True)
sys.exit(0 if ok else 1)
