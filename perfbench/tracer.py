"""Spans and counters for the traced run, installed from outside the program.

``TARGETS`` names the public functions of each edim layer.  ``install``
replaces every reference to each of them -- module globals of every edim
module (so ``from .groups import embedding_certificate`` inside
``edengine`` is covered) and class attributes (so ``__rmul__ = __mul__`` is
covered) -- with a wrapper, and ``uninstall`` puts the originals back.

A span records (id, parent id, metric name, start, end); the spans of one
operation share the root span the benchmark opens around it.  Counting
targets record no span, only a call count, because a span would cost more
than the call.  ``sites`` lists where each original lives, which the
untraced run uses to prove that no wrapper leaked into timed numbers.
"""

from __future__ import annotations

import sys
import time

SPAN, COUNT = "span", "count"


def _h_g_key(h, g, *rest):
    return (str(h), str(g))


def _pgl2_key(h, ctx, *rest):
    return (str(h), ctx.p, ctx.k)


# (module, attribute path, metric name, mode, key function for calls_per_key)
TARGETS = (
    ("edim.cli", "parse_group", "cli.parse", SPAN, None),
    ("edim.cli", "parse_field", "cli.parse", SPAN, None),
    ("edim.edengine", "bound", "edengine.bound", SPAN, None),
    ("edim.edengine", "replay_trace", "edengine.replay_trace", SPAN, None),
    ("edim.fielddesc", "contains_zeta", "fielddesc", SPAN, None),
    ("edim.fielddesc", "contains_real_zeta", "fielddesc", SPAN, None),
    ("edim.fielddesc", "fp_dimension", "fielddesc", SPAN, None),
    ("edim.fielddesc", "extend_with_zeta", "fielddesc", SPAN, None),
    ("edim.groups", "element_orders", "groups.element_orders", SPAN, None),
    ("edim.groups", "embedding_certificate", "groups.embedding_certificate",
     SPAN, _h_g_key),
    ("edim.groups", "realize", "groups.realize", SPAN, None),
    ("edim.pgl2", "order_census", "pgl2.order_census", SPAN, None),
    ("edim.pgl2", "pgl2_embeds", "pgl2.pgl2_embeds", SPAN, _pgl2_key),
    ("edim.pgl2", "dn_representation", "pgl2.representations", SPAN, None),
    ("edim.pgl2", "elemab_representation", "pgl2.representations", SPAN,
     None),
    ("edim.exactfield", "FqElement.__mul__", "exactfield.mul", COUNT, None),
    ("edim.exactfield", "FqElement.inverse", "exactfield.inverse", COUNT,
     None),
    ("edim.exactfield", "fq_context", "exactfield.fq_context", COUNT, None),
    ("edim.unipoly", "factor_monic", "unipoly.factor", SPAN, None),
    ("edim.unipoly", "roots_in_field", "unipoly.factor", SPAN, None),
    ("edim.ratfunc", "poly_gcd", "ratfunc.poly_gcd", SPAN, None),
    ("edim.ratfunc", "RatFn.compose_pair", "ratfunc.compose_pair", SPAN,
     None),
    ("edim.ratfunc", "RatFn.evaluate", "ratfunc.evaluate", SPAN, None),
    ("edim.crossratio", "cr_rewrite", "crossratio.cr_rewrite", SPAN, None),
    ("edim.crossratio", "check_rewrite", "crossratio.check_rewrite", SPAN,
     None),
    ("edim.crossratio", "cr_define", "crossratio.cr_define", COUNT, None),
    ("edim.tschirnhaus", "reduce_general", "tschirnhaus.reduce_general",
     SPAN, None),
    ("edim.tschirnhaus", "verify_specialization",
     "tschirnhaus.verify_specialization", SPAN, None),
)


def original(target):
    obj = sys.modules[target[0]]
    for part in target[1].split("."):
        obj = vars(obj)[part]
    return obj


def _holders():
    """Every namespace that can hold a reference: edim modules and the
    classes they define."""
    for name, mod in sorted(sys.modules.items()):
        if name != "edim" and not name.startswith("edim."):
            continue
        yield mod
        for val in list(vars(mod).values()):
            if isinstance(val, type) and val.__module__ == name:
                yield val


def sites():
    """{(holder, attribute): original} for every reference to a target."""
    origs = {id(original(t)): original(t) for t in TARGETS}
    out = {}
    for holder in _holders():
        for attr, val in list(vars(holder).items()):
            if id(val) in origs and val is origs[id(val)]:
                out[(holder, attr)] = val
    return out


def untouched(snapshot):
    """True when every site still holds its original and no wrapper is
    reachable from any edim namespace."""
    for (holder, attr), val in snapshot.items():
        if vars(holder).get(attr) is not val:
            return False
    for holder in _holders():
        for val in list(vars(holder).values()):
            if getattr(val, "__perfbench_wrapper__", False):
                return False
    return True


class Tracer:
    def __init__(self):
        self.spans = []       # [id, parent, name, start, end]
        self.counts = {}      # metric name -> calls (counting targets)
        self.keys = {}        # metric name -> set of argument keys
        self.stack = [0]
        self.next_id = 1
        self._patched = []

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        sid = self.next_id
        self.next_id += 1
        rec = [sid, self.stack[-1], name, time.perf_counter(), None]
        self.spans.append(rec)
        self.stack.append(sid)
        return rec

    def end(self, rec):
        rec[4] = time.perf_counter()
        self.stack.pop()

    def span(self, name):
        return _Span(self, name)

    def take(self):
        """Spans, counts and distinct-key counts since the last take."""
        out = (self.spans, self.counts,
               {name: len(keys) for name, keys in self.keys.items()})
        self.spans, self.counts, self.keys = [], {}, {}
        return out

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name, keyfn):
        tracer = self

        def wrapper(*args, **kwargs):
            if keyfn is not None:
                tracer.keys.setdefault(name, set()).add(keyfn(*args))
            rec = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(rec)
        return wrapper

    def _count_wrapper(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            counts = tracer.counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        snapshot = sites()
        wrappers = {}
        for target in TARGETS:
            fn = original(target)
            _, _, name, mode, keyfn = target
            if mode == SPAN:
                w = self._span_wrapper(fn, name, keyfn)
            else:
                w = self._count_wrapper(fn, name)
            w.__perfbench_wrapper__ = True
            w.__wrapped__ = fn
            wrappers[id(fn)] = w
        for (holder, attr), fn in snapshot.items():
            setattr(holder, attr, wrappers[id(fn)])
            self._patched.append((holder, attr, fn))

    def uninstall(self):
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched = []


class _Span:
    __slots__ = ("tracer", "name", "rec")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.rec = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.rec)
        return False
