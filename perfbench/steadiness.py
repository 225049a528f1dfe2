#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

From the repository root:

    python3 perfbench/steadiness.py --sets 2 --seeds 10 --out perfbench/steadiness.json

Runs the command in BENCHMARK.json once per (set, seed, workload) with
--trace 0 and a new seed each run, interleaving the workloads so a slow
spell of the host spreads over all of them. For every end-to-end metric
it reports each set's median and quartiles (statistics.quantiles, n=4),
the interquartile range as a share of the median, and how far the second
set's median moved from the first in the metric's worse direction. The
exit code is 1 when a drift, or the spread of any metric but setup_s,
exceeds the metric's bound. setup_s is held to its drift only, as in the
acceptance check the bounds are written for: a set-up takes well under a
second, so its spread mostly shows which of the host's slow spells a run
fell into, while a set-up regression still moves its median.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    host = {}
    for line in lines[:-1]:
        if line.startswith('{"host"'):
            host = json.loads(line)["host"]
    return {"seed": seed, "seconds": round(time.time() - start, 1),
            "host": host, "result": json.loads(lines[-1])}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med, "values": values}


def main():
    ap = argparse.ArgumentParser(description="Measure the benchmark's run-to-run spread.")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--out", default="", help="write the record as JSON here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    sets, seed = [], 1
    for s in range(args.sets):
        runs = {w: [] for w in workloads}
        for _ in range(args.seeds):
            for w in workloads:
                r = run_once(bench, w, seed)
                runs[w].append(r)
                vals = " ".join(f"{m['name']}={r['result']['metrics'][m['name']]['value']:.4g}"
                                for m in metrics)
                print(f"set {s + 1} {w} seed {seed}: {vals} steal_s={r['host'].get('steal_s')}"
                      f" failed={r['result']['failed']}/{r['result']['attempted']} ({r['seconds']} s)",
                      file=sys.stderr, flush=True)
            seed += 1
        sets.append(runs)

    ok = True
    record = {"date": time.strftime("%Y-%m-%d"), "run_seconds": bench["run_seconds"],
              "host": sets[0][workloads[0]][0]["host"], "workloads": {}}
    for w in workloads:
        entry = {"sets": [], "drift": {}}
        for runs in sets:
            entry["sets"].append({
                "seeds": [r["seed"] for r in runs[w]],
                "failed": sum(r["result"]["failed"] for r in runs[w]),
                "attempted": sum(r["result"]["attempted"] for r in runs[w]),
                "steal_s": [r["host"].get("steal_s") for r in runs[w]],
                "run_seconds_wall": [r["seconds"] for r in runs[w]],
                "metrics": {m["name"]: summary([r["result"]["metrics"][m["name"]]["value"]
                                                 for r in runs[w]]) for m in metrics},
            })
        for m in metrics:
            name, bound = m["name"], m["bound"]
            spreads = [st["metrics"][name]["iqr_share"] for st in entry["sets"]]
            line = f"{w:16} {name:22} bound {bound:.2f} spread " + " ".join(f"{x:.3f}" for x in spreads)
            # setup_s is held to its drift only; see the module docstring.
            if name != "setup_s" and max(spreads) > bound:
                ok = False
            if len(entry["sets"]) > 1:
                a = entry["sets"][0]["metrics"][name]["median"]
                b = entry["sets"][1]["metrics"][name]["median"]
                drift = (b - a) / a * (1 if m["better"] == "lower" else -1)
                entry["drift"][name] = drift
                line += f" drift {drift:+.3f}"
                if drift > bound:
                    ok = False
            print(line)
        entry["failed"] = sum(st["failed"] for st in entry["sets"])
        record["workloads"][w] = entry
    record["within_bounds"] = ok
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
