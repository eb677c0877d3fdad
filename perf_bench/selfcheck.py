#!/usr/bin/env python3
"""A/A check of the benchmark: does the same code agree with itself?

Runs the command of BENCHMARK.json on every workload in two sets of RUNS
runs, a new seed each run and the workloads taken in alternating order, and
prints for each end-to-end metric

  spread   the distance between the quartiles of a set's values as a share of
           their median (statistics.quantiles(values, n=4)), for both sets;
  drift    how much worse the second set's median is than the first's.

Fails when a spread (setup_s excepted) or a drift exceeds the metric's bound,
and warns when a spread exceeds a third of it. Run from the repository root:

  python3 perf_bench/selfcheck.py [RUNS]        # default 10; about 30 min
"""
import json
import statistics
import subprocess
import sys

RUNS = int(sys.argv[1]) if len(sys.argv) > 1 else 10
bench = json.load(open("BENCHMARK.json"))


def run(workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, (workload, seed, result)
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


names = [w["name"] for w in bench["workloads"]]
sets = []
for s in range(2):
    values = {w: [] for w in names}
    for i in range(RUNS):
        order = names if i % 2 == 0 else names[::-1]
        for w in order:
            values[w].append(run(w, 1000 * (s + 1) + i))
            print(f"set {s + 1} run {i + 1}/{RUNS} {w}: {values[w][-1]}", flush=True)
    sets.append(values)

failed = False
print(f"\n{'workload':<14} {'metric':<14} {'median 1':>14} {'median 2':>14} "
      f"{'spread 1':>9} {'spread 2':>9} {'drift':>8} {'bound':>6}")
for w in names:
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = [r[name] for r in sets[0][w]]
        b = [r[name] for r in sets[1][w]]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        verdict = ""
        if worse > bound or (name != "setup_s" and max(sa, sb) > bound):
            verdict, failed = "FAIL", True
        elif name != "setup_s" and max(sa, sb) > bound / 3:
            verdict = "wide"
        print(f"{w:<14} {name:<14} {ma:>14.6g} {mb:>14.6g} {sa:>9.2%} {sb:>9.2%} "
              f"{worse:>+8.2%} {bound:>6.0%} {verdict}")
sys.exit(1 if failed else 0)
