"""The edim benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a checkout.  Workloads (see ``workloads.py`` and
``README.md``): ``bound-structural``, ``bound-pgl2``, ``symbolic``.

Load model: one client in a closed loop -- each operation is sent after the
previous one answered -- in one process and one thread.  A *pass* runs every
operation of the workload once, in a fresh worker interpreter
(``worker.py``), so module-level caches start empty and fill as they would
in a user's session.  An operation that exceeds the workload's kill limit is
stopped with its worker, counted as failed, and the pass resumes in a fresh
worker.  Untraced runs repeat passes until ``--seconds`` have elapsed (at
least one) and report medians; ``--trace 1`` runs one untraced and one
traced pass and reports per-layer metrics.

Times are in reference seconds (see ``REF_CAL_S``).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``correct`` is false if any answer disagreed with its
reference, a trace did not replay, a wrapper was left in place after a pass,
or two seeds did not draw differently with equal stratum counts.  Failures
(wrong answers, exceptions, refusals, kills, crashes) are listed on stderr.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import queue
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 11     # set-up is measured at least this often per run
READY_TIMEOUT_S = 120  # a worker that cannot even start is an error
LATENCY_LIMIT_S = 1.0  # the per-query target of the ROADMAP
# Times are reported in reference seconds: measured seconds scaled by
# (REF_CAL_S / median time of worker.calibrate() around the measurement)
# ** SPEED_EXPONENT.  The speed of a shared machine drifts by tens of percent
# within seconds; the scaling removes most of that drift.  calibrate() swings
# more than edim's work does: over repeated passes, the log of an
# operation's time against the log of its local calibration time has a
# slope of 0.65 to 0.86 on the three workloads, hence the exponent.
REF_CAL_S = 0.001
SPEED_EXPONENT = 0.7
LOCAL_SAMPLES = 9      # calibration samples that make one local speed

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "p50_ms": "ms", "p90_ms": "ms",
             "within_1s_share": "ratio", "ok_share": "ratio",
             "peak_rss_mb": "MB"}


class Worker:
    """A worker process and a thread that queues its stdout lines."""

    def __init__(self, workload, seed, trace, first):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), workload,
             str(seed), "1" if trace else "0", str(first)],
            stdout=subprocess.PIPE, text=True)
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(json.loads(line))
        self.lines.put("exit")

    def get(self, timeout):
        """The next message, or "timeout", or "exit" once the worker ended."""
        try:
            return self.lines.get(timeout=timeout)
        except queue.Empty:
            return "timeout"

    def expect(self, key):
        msg = self.get(READY_TIMEOUT_S)
        if not isinstance(msg, dict) or key not in msg:
            raise RuntimeError("worker sent %r instead of %r (exit code %s)"
                               % (msg, key, self.proc.poll()))
        return msg

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()


def start(worker):
    """(number of operations, set-up in reference seconds) of a new worker.

    The worker times its own set-up, from ``import edim`` to the end of
    workload generation."""
    ready = worker.expect("ready")
    return ready["ready"], \
        ready["setup"] * speed_scale(worker.expect("setup_cal")["setup_cal"])


def setup_probe(workload, seed):
    """Set-up of one fresh interpreter that runs no operation."""
    w = Worker(workload, seed, False, 10 ** 9)
    try:
        return start(w)[1]
    finally:
        w.stop()


def run_pass(workload, seed, ops, trace):
    """One pass over the workload: per-operation results and pass totals."""
    kill = workloads.KILL_LIMIT_S[workload]
    results, setups, rss, cal, untouched = {}, [], [], [], True
    first, total = 0, None
    while total is None or first < total:
        w = Worker(workload, seed, trace, first)
        last_rss = 0
        try:
            total, setup = start(w)
            setups.append(setup)
            while True:
                msg = w.get(READY_TIMEOUT_S)
                if isinstance(msg, dict) and "end" in msg:
                    untouched = untouched and msg["untouched"]
                    first = total
                    break
                if not isinstance(msg, dict) or "begin" not in msg:
                    raise RuntimeError("worker sent %r between operations"
                                       % (msg,))
                i, t_begin = msg["begin"], time.perf_counter()
                res = w.get(kill)
                if not isinstance(res, dict):
                    # stopped at the kill limit, or died: the pass goes on
                    # in a fresh worker
                    results[i] = {
                        "status": "killed" if res == "timeout" else "crashed",
                        "detail": "stopped at the %.0f s kill limit" % kill
                        if res == "timeout" else "worker exited with code %s"
                        % w.proc.wait(),
                        "latency": time.perf_counter() - t_begin,
                        "extra": {}}
                    first = i + 1
                    break
                results[i] = res
                cal.extend(res["cal"])
                last_rss = res["rss_kb"]
        finally:
            w.stop()
        # a stopped operation's memory never reaches the peak: each worker
        # counts with what it reported after its last completed operation
        rss.append(last_rss)
    # completed operations are scaled by the speed measured around them; a
    # stopped one ran against a wall-clock limit and is kept as measured
    cal.sort()
    times = [t for t, d in cal]
    for r in results.values():
        r["raw_latency"] = r["latency"]
        if "span" in r["extra"]:
            r["latency"] *= local_scale(cal, times, r["extra"].pop("span"))
    ordered = [results[i] for i in range(total)]
    # wall_s leaves out the hang stratum: those operations end at the kill
    # limit, a constant the benchmark sets; ok_share counts their failure
    timed = [r for op, r in zip(ops, ordered) if op["stratum"] != "hang"]
    out = {"results": ordered, "setups": setups,
           "wall_s": sum(r["latency"] for r in timed),
           "peak_rss_mb": max(rss) / 1024.0, "untouched": untouched}
    print("  pass%s: wall %.3f s (raw %.3f s), median calibration %.3f ms"
          % (" traced" if trace else "", out["wall_s"],
             sum(r["raw_latency"] for r in timed),
             1000 * statistics.median(d for t, d in cal) if cal else 0.0),
          file=sys.stderr)
    return out


def speed_scale(cal_s):
    """Reference seconds per measured second at calibration time cal_s."""
    return (REF_CAL_S / cal_s) ** SPEED_EXPONENT


def local_scale(cal, times, span, k=LOCAL_SAMPLES):
    """speed_scale of the median calibration sample taken while the
    operation ran, or of the k samples nearest its midpoint if fewer."""
    t0, t1 = span
    lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
    if hi - lo >= k:
        return speed_scale(statistics.median(d for t, d in cal[lo:hi]))
    mid = (t0 + t1) / 2
    near = sorted(cal[max(0, lo - k):hi + k], key=lambda s: abs(s[0] - mid))
    return speed_scale(statistics.median(d for t, d in near[:k]))


def quantile(values, q):
    """Nearest-rank quantile, 0 < q <= 1."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def e2e_metrics(passes, setups):
    pooled = [r for p in passes for r in p["results"]]
    lat = [r["latency"] for r in pooled]
    ok = [r["status"] == "ok" for r in pooled]
    within = sum(1 for r, good in zip(pooled, ok)
                 if good and r["latency"] <= LATENCY_LIMIT_S)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "p50_ms": 1000.0 * quantile(lat, 0.5),
        "p90_ms": 1000.0 * quantile(lat, 0.9),
        "within_1s_share": within / len(pooled),
        "ok_share": sum(ok) / len(pooled),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def layer_metrics(traced, untraced):
    self_s, calls, counts, keys = {}, {}, {}, {}
    for r in traced["results"]:
        spans = r.get("spans", [])
        child = {}
        for sid, parent, name, start, end in spans:
            child[parent] = child.get(parent, 0.0) + (end - start)
        for sid, parent, name, start, end in spans:
            self_s[name] = self_s.get(name, 0.0) + (end - start) \
                - child.get(sid, 0.0)
            calls[name] = calls.get(name, 0) + 1
        for name, n in list(r.get("counts", {}).items()) \
                + list(r["extra"].items()):
            counts[name] = counts.get(name, 0) + n
        for name, n in r.get("keys", {}).items():
            keys[name] = keys.get(name, 0) + n

    def c(name):
        return {"value": calls.get(name, 0), "unit": "count"}

    def s(name):
        return {"value": self_s.get(name, 0.0), "unit": "s"}

    m = {
        "cli.parse.self_s": s("cli.parse"),
        "cli.render.self_s": s("cli.render"),
        "edengine.bound.calls": c("edengine.bound"),
        "edengine.bound.self_s": s("edengine.bound"),
        "edengine.trace_nodes": {
            "value": counts.get("edengine.trace_nodes", 0), "unit": "count"},
        "edengine.replay_trace.self_s": s("edengine.replay_trace"),
        "fielddesc.calls": c("fielddesc"),
        "fielddesc.self_s": s("fielddesc"),
    }
    for name, per_key in (("groups.element_orders", False),
                          ("groups.embedding_certificate", True),
                          ("groups.realize", False),
                          ("pgl2.order_census", False),
                          ("pgl2.pgl2_embeds", True),
                          ("unipoly.factor", False),
                          ("ratfunc.poly_gcd", False),
                          ("ratfunc.compose_pair", False),
                          ("ratfunc.evaluate", False),
                          ("crossratio.cr_rewrite", False),
                          ("crossratio.check_rewrite", False),
                          ("tschirnhaus.verify_specialization", False)):
        m[name + ".calls"] = c(name)
        m[name + ".self_s"] = s(name)
        if per_key:
            m[name + ".calls_per_key"] = {
                "value": calls.get(name, 0) / keys[name] if keys.get(name)
                else 0.0,
                "unit": "calls/key"}
    m["pgl2.representations.self_s"] = s("pgl2.representations")
    for name in ("exactfield.mul", "exactfield.inverse",
                 "exactfield.fq_context", "crossratio.cr_define"):
        m[name + ".calls"] = {"value": counts.get(name, 0), "unit": "count"}
    m["tschirnhaus.reduce_general.self_s"] = s("tschirnhaus.reduce_general")
    drawn = counts.get("tschirnhaus.drawn", 0)
    m["tschirnhaus.accept_ratio"] = {
        "value": counts.get("tschirnhaus.accepted", 0) / drawn if drawn
        else 0.0, "unit": "ratio"}
    m["trace.overhead_s"] = {"value": traced["wall_s"] - untraced["wall_s"],
                             "unit": "s"}
    return m


def write_spans(workload, seed, ops, traced):
    """Spans stay in memory during the run and are written once, here."""
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "spans-%s-%d.json" % (workload, seed))
    with open(path, "w") as fh:
        json.dump([{"op": i, "label": _label(op), "spans": r.get("spans", [])}
                   for i, (op, r) in enumerate(zip(ops, traced["results"]))],
                  fh)
    print("spans written to %s" % os.path.relpath(path), file=sys.stderr)


def report_failures(ops, passes):
    for p in passes:
        for op, r in zip(ops, p["results"]):
            if r["status"] != "ok":
                print("FAILED %-8s %-10s %s: %s" % (
                    r["status"], op["stratum"], _label(op), r["detail"]),
                    file=sys.stderr)


def _label(op):
    if op["kind"] == "bound":
        return op["query"]
    if op["kind"] == "cr":
        return "cr n=%d %s" % (op["n"], op["indices"])
    return "tsch n=%d char=%d" % (op["n"], op["char"])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "edim", "__init__.py")):
        print("run.py: no src/edim in %s; run it from the root of an edim "
              "checkout" % os.getcwd(), file=sys.stderr)
        return 2
    ops = workloads.generate(args.workload, args.seed)
    seeds_ok = workloads.check_seeds(args.workload, args.seed)
    print("%s seed %d: %d operations %s" % (
        args.workload, args.seed, len(ops), workloads.stratum_counts(ops)),
        file=sys.stderr)
    t0 = time.perf_counter()
    if args.trace:
        untraced = run_pass(args.workload, args.seed, ops, False)
        traced = run_pass(args.workload, args.seed, ops, True)
        passes = [untraced, traced]
        metrics = layer_metrics(traced, untraced)
        write_spans(args.workload, args.seed, ops, traced)
    else:
        passes = [run_pass(args.workload, args.seed, ops, False)]
        while time.perf_counter() - t0 < args.seconds:
            passes.append(run_pass(args.workload, args.seed, ops, False))
        setups = [s for p in passes for s in p["setups"]]
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_probe(args.workload, args.seed))
        metrics = e2e_metrics(passes, setups)
    report_failures(ops, passes)
    results = [r for p in passes for r in p["results"]]
    correct = seeds_ok and all(p["untouched"] for p in passes) \
        and not any(r["status"] == "wrong" for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": sum(1 for r in results if r["status"] != "ok"),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
