"""Run the benchmark over several seeds, report each metric's spread, and
record the result as a point of the bench trajectory.

    python3 perfbench/record.py [--seeds 1-10] [--out FILE]

From the root of a checkout.  For every workload it makes one untraced run
per seed and one traced run (first seed), then prints, per end-to-end
metric, the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (q3 - q1) / median next to the bound in ``BENCHMARK.json``.  With
``--out`` it writes the numbers, the per-layer metrics of the traced run and
the environment to FILE (JSON).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit("%s failed with code %d" % (cmd, out.returncode))
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    doc["elapsed_s"] = elapsed
    doc["failures"] = [line for line in out.stderr.splitlines()
                       if line.startswith("FAILED")]
    return doc


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main(argv):
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    seeds = seeds_of(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"env": {"python": platform.python_version(),
                      "nproc": os.cpu_count(),
                      "machine": platform.machine(),
                      "run_seconds": bench["run_seconds"]},
              "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        docs = [run(workload, s, bench["run_seconds"], 0) for s in seeds]
        entry = {"correct": all(d["correct"] for d in docs),
                 "attempted": [d["attempted"] for d in docs],
                 "failed": [d["failed"] for d in docs],
                 "failures": sorted({f for d in docs for f in d["failures"]}),
                 "run_elapsed_s": summarize([d["elapsed_s"] for d in docs]),
                 "end_to_end": {}}
        print("%s: correct=%s failed=%s elapsed median %.1f s" % (
            workload, entry["correct"], entry["failed"],
            entry["run_elapsed_s"]["median"]))
        for name, bound in bounds.items():
            s = summarize([d["metrics"][name]["value"] for d in docs])
            s["unit"] = docs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] < bound / 3 \
                else "  <-- spread >= bound/3"
            print("  %-16s median %10.4f  q1 %10.4f  q3 %10.4f  spread "
                  "%.4f  bound %.4g%s" % (name, s["median"], s["q1"],
                                           s["q3"], s["spread"], bound, flag))
        doc = run(workload, seeds[0], bench["run_seconds"], 1)
        entry["traced"] = {"seed": seeds[0], "correct": doc["correct"],
                           "per_layer": {k: v["value"] for k, v in
                                         doc["metrics"].items()}}
        record["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
