"""One benchmark worker: a fresh interpreter that runs operations in order.

    python3 perfbench/worker.py <workload> <seed> <trace 0|1> <first op>

It imports edim from ``src/`` of the current directory, generates the
workload, says ``ready`` with the set-up time, and then for each operation
writes a begin line and a result line (JSON, one per line) to stdout.
``run.py`` enforces the kill limit and aggregates.

Latency covers exactly what a user waits for: for ``bound`` queries, parse,
``bound``, ``trace_json`` and ``json.dumps(sort_keys=True)`` (the path of
``edim bound``); for ``symbolic``, one rewrite-plus-check or one
specialization.  The correctness checks -- trace replay and the comparison
with the reference interval -- run after the clock stops.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

CAL_PERIOD_S = 0.025   # a calibration sample every 25 ms of wall time


class _Mod:
    """A residue mod 101 with operators, like an F_p element."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % 101

    def __mul__(self, other):
        return _Mod(self.v * other.v)

    def __add__(self, other):
        return _Mod(self.v + other.v)


_CAL_POLY = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(3)}


def calibrate():
    """Seconds for a fixed piece of interpreter work shaped like edim's own
    (a product of sparse polynomials with Fraction coefficients, objects
    with operators), the yardstick of the machine's current speed."""
    t0 = time.perf_counter()
    prod = {}
    for (a, b), c in _CAL_POLY.items():
        for (d, e), f in _CAL_POLY.items():
            key = (a + d, b + e)
            prod[key] = prod.get(key, 0) + c * f
    x, acc = _Mod(3), _Mod(1)
    for _ in range(200):
        acc = acc * x + x
    return time.perf_counter() - t0


class Speedometer:
    """Calibration samples at a fixed wall-clock rate, from SIGALRM.

    The speed of a shared machine drifts by tens of percent within seconds,
    so ``run.py`` scales each operation's time by the samples taken around
    it.  The handler's own time is tracked, so that it can be taken out of
    the latency of the operation it interrupted.
    """

    def __init__(self):
        self.samples = []
        self.stolen = 0.0

    def _tick(self, signum, frame):
        # the collector is paused so that the sample does not pay for
        # collecting the interrupted operation's garbage
        t0 = time.perf_counter()
        gc.disable()
        try:
            self.samples.append((t0, calibrate()))
        finally:
            gc.enable()
        self.stolen += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)

    def take(self):
        out, self.samples = self.samples, []
        return out


SPEED = Speedometer()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up is what the program and the draw cost: it is timed from here, just
# before ``import edim``, to the end of ``workloads.generate`` in main().
# The interpreter's start, the benchmark's own modules and the reference
# catalog are loaded before the clock starts.
workloads.catalog()
_SETUP_T0 = time.perf_counter()

import edim  # noqa: E402,F401  (set-up cost: the whole package)
from edim import cli, crossratio, edengine, errors, exactfield  # noqa: E402
from edim import tschirnhaus  # noqa: E402

MAX_DRAWS = 60  # points tried per specialization, as `edim tschirnhaus verify`
_NOSPAN = contextlib.nullcontext()


def _send(msg):
    sys.stdout.write(json.dumps(msg) + "\n")
    sys.stdout.flush()


class Ops:
    """The timed bodies and their checks; ``span`` is a no-op untraced."""

    def __init__(self, tracer):
        self.span = tracer.span if tracer else (lambda name: _NOSPAN)

    def run(self, op):
        """(status, detail, latency seconds, extra counters)."""
        kind = op["kind"]
        body = {"bound": self.bound, "cr": self.cross_ratio,
                "tsch": self.specialize}[kind]
        stolen = SPEED.stolen
        t0 = time.perf_counter()
        try:
            out = body(op)
            failure = None
        except (errors.TooLarge, errors.Unsupported, errors.DegreeTooLarge,
                errors.SplittingTooLarge) as exc:
            failure = "refused", repr(exc)
        except Exception as exc:  # any other exception fails the operation
            failure = "error", repr(exc)
        t1 = time.perf_counter()
        latency = t1 - t0 - (SPEED.stolen - stolen)
        if failure:
            return failure + (latency, {"span": (t0, t1)})
        status, detail, extra = getattr(self, "check_" + kind)(op, out)
        extra["span"] = (t0, t1)
        return status, detail, latency, extra

    # -- bound ------------------------------------------------------------

    def bound(self, op):
        gtext, ftext = op["query"].split("/", 1)
        with self.span("cli.parse"):
            g = cli.parse_group(gtext)
            fd = cli.parse_field(ftext)
        interval, nodes = edengine.bound(g, fd)
        with self.span("cli.render"):
            doc = edengine.trace_json(g, fd, interval, nodes)
            doc["interval"] = interval.json()
            text = json.dumps({"schema": cli.SCHEMA, "command": "bound",
                               **doc}, sort_keys=True)
        return interval, nodes, text

    def check_bound(self, op, out):
        interval, nodes, text = out
        extra = {"edengine.trace_nodes": len(nodes)}
        try:
            state = edengine.replay_trace(nodes)
        except errors.Inconsistent as exc:
            return "wrong", "replay rejected: %s" % exc, extra
        if nodes and interval not in state.values():
            return "wrong", "replay does not reach %s" % interval, extra
        got = json.loads(text)["interval"]
        if got != op["expect"]:
            return "wrong", "got %s, expected %s (%s)" % (
                got, op["expect"], op["source"]), extra
        return "ok", "", extra

    # -- symbolic ---------------------------------------------------------

    def cross_ratio(self, op):
        sym = crossratio.CRSymbol(op["n"], tuple(op["indices"]))
        crossratio.cr_rewrite(sym)
        return crossratio.check_rewrite(sym)

    def check_cr(self, op, ok):
        if ok is not True:
            return "wrong", "check_rewrite returned %r" % ok, {}
        return "ok", "", {}

    def specialize(self, op):
        n, char = op["n"], op["char"]
        rng = random.Random(op["point_seed"])
        h, record = tschirnhaus.reduce_general(n, char)
        f = tschirnhaus.general_poly(n, char)
        for drawn in range(1, MAX_DRAWS + 1):
            if char == 0:
                ctx = exactfield.fq_context(101, 1)
            else:
                ctx = exactfield.fq_context(char, rng.choice([1, 1, 2]))
            els = list(ctx.elements())
            point = {"t%d" % (i + 1): rng.choice(els) for i in range(n)}
            try:
                ok = tschirnhaus.verify_specialization(f, h, record, point,
                                                       ctx)
            except (errors.EdimError, ZeroDivisionError) as exc:
                if isinstance(exc, (errors.TooLarge,
                                    errors.SplittingTooLarge)) \
                        or "pole" in str(exc).lower():
                    continue
                raise
            return ok, drawn
        return None, MAX_DRAWS

    def check_tsch(self, op, out):
        ok, drawn = out
        extra = {"tschirnhaus.drawn": drawn,
                 "tschirnhaus.accepted": int(ok is not None)}
        if ok is None:
            return "error", "no usable point in %d draws" % drawn, extra
        if ok is False:
            return "wrong", "verify_specialization returned False", extra
        return "ok", "", extra


def main(argv):
    workload, seed, trace, first = argv[0], int(argv[1]), argv[2] == "1", \
        int(argv[3])
    ops = workloads.generate(workload, seed)
    setup = time.perf_counter() - _SETUP_T0
    snapshot = tracing.sites()
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    runner = Ops(tracer)
    _send({"ready": len(ops), "setup": setup})
    gc.disable()
    _send({"setup_cal": statistics.median(calibrate() for _ in range(5))})
    gc.enable()
    SPEED.start()
    for i in range(first, len(ops)):
        _send({"begin": i})
        if tracer:
            root = tracer.begin("op")
        status, detail, latency, extra = runner.run(ops[i])
        msg = {"i": i, "status": status, "detail": detail,
               "latency": latency, "extra": extra, "cal": SPEED.take(),
               "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if tracer:
            tracer.end(root)
            spans, counts, keys = tracer.take()
            msg.update(spans=spans, counts=counts, keys=keys)
        _send(msg)
    if tracer:
        tracer.uninstall()
    _send({"end": True, "untouched": tracing.untouched(snapshot)})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
