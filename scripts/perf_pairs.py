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

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("parent_bin")
parser.add_argument("change_bin")
parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
parser.add_argument("--seeds", default="2022,7")
parser.add_argument("--pairs", type=int, default=10)
parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
args = parser.parse_args()


def run(binary, seed):
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
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


ok = True
for seed in [int(s) for s in args.seeds.split(",")]:
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        sides = [("parent", args.parent_bin), ("change", args.change_bin)]
        for side, binary in sides if pair % 2 == 0 else sides[::-1]:
            r = run(binary, seed)
            runs[side].append(r)
            print(f"seed {seed} pair {pair + 1}/{args.pairs} {side}: {r}", flush=True)
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    digests = {side: sorted({r["digest"] for r in rs}) for side, rs in runs.items()}
    same = digests["parent"] == digests["change"] and len(digests["parent"]) == 1
    ok = ok and same and not any(failed.values())
    print(f"\n== {args.workload} | seed {seed} | {args.pairs} pairs of {args.seconds:g} s ==")
    print(f"  ops failed: parent {failed['parent']}, change {failed['change']} | digests "
          f"{'equal' if same else 'DIFFER'}: parent {digests['parent']}, change {digests['change']}")
    print("  ops attempted per run: parent", [r["attempted"] for r in runs["parent"]],
          "change", [r["attempted"] for r in runs["change"]])
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
    print(flush=True)
sys.exit(0 if ok else 1)
