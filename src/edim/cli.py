"""Command-line front end: parse group/field descriptions, dispatch to the library,
emit JSON (default, schema ``edim/1``) or plain-text tables.

Exit codes: 0 success; 1 the reader closed stdout early (a broken pipe);
2 parse/usage errors; 3 a checker refused the size (TooLarge/Unsupported);
4 internal inconsistency.
"""

from __future__ import annotations

import json
import os
import random
import sys
from functools import lru_cache

from .errors import (DegreeTooLarge, EdimError, Inconsistent, ParseError,
                     PoleAtAssignment, TooLarge, Unsupported)
from .exactfield import FqElement, fq_context, is_prime
from .fielddesc import (INF, Custom, Cyclotomic, RationalField, char_of,
                        finite_field_from_q)
from .groups import Alt, Cyc, Dih, ElemAb, Product, Sym
from .crossratio import CRSymbol, cr_rewrite, sn_action, verify_faithful
from .ratfunc import render
from .tschirnhaus import (general_poly, reduce_general, verify_specialization)
from .edengine import bound, check_grid, trace_json
from . import pgl2 as _pgl2

SCHEMA = "edim/1"

# `edim tschirnhaus` refuses larger inputs with exit 3.  A pass of `verify`
# near n = 24 costs up to about 10 ms (over F_{p^2} with p near 10^12, the
# dearest field it draws from), so the largest accepted run stays under 1 s.
TSCHIRNHAUS_DEGREE_CAP = 24
TSCHIRNHAUS_COUNT_CAP = 50
# `edim crossratio` refuses a larger --n with exit 3.  `action` makes n - 3
# rewrites on exponent tuples of length n - 3, O(n^2): about 0.4 s in process
# at the cap; `verify` proves 2n - 5 rewrites, about 0.3 s.
CROSSRATIO_N_CAP = 400


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _digits(text):  # isdigit() alone passes other scripts' digits too
    return text.isascii() and text.isdigit()


def parse_group(text):
    """Expr := Atom | Expr "x" Expr; Atom := S|A|D|C int | E(p, r)."""
    s = "".join(text.split())
    pos = 0

    def fail(msg, at):
        raise ParseError("%s at position %d in %r" % (msg, at, text))

    def read_int(why):
        nonlocal pos
        start = pos
        while pos < len(s) and _digits(s[pos]):
            pos += 1
        if start == pos:
            fail("expected an integer (%s)" % why, start)
        return int(s[start:pos])

    def read_atom():
        nonlocal pos
        if pos >= len(s):
            fail("expected a group atom", pos)
        c = s[pos]
        if c in "SADC":
            pos += 1
            n = read_int("after %r" % c)
            return {"S": Sym, "A": Alt, "D": Dih, "C": Cyc}[c](n)
        if c == "E":
            pos += 1
            if pos >= len(s) or s[pos] != "(":
                fail("expected '(' after E", pos)
            pos += 1
            p = read_int("prime for E")
            if pos >= len(s) or s[pos] != ",":
                fail("expected ',' in E(p,r)", pos)
            pos += 1
            r = read_int("rank for E")
            if pos >= len(s) or s[pos] != ")":
                fail("expected ')' closing E(p,r)", pos)
            pos += 1
            return ElemAb(p, r)
        fail("unknown atom %r" % c, pos)

    atoms = [read_atom()]
    while pos < len(s):
        if s[pos] != "x":
            fail("expected 'x' between factors", pos)
        pos += 1
        atoms.append(read_atom())
    return Product(*atoms) if len(atoms) > 1 else atoms[0]


def parse_field(text):
    """Q | Qzeta(m) | F(q) | custom{key=value, ...}."""
    s = text.strip()
    if s == "Q":
        return RationalField()
    if s.startswith("Qzeta(") and s.endswith(")"):
        body = s[len("Qzeta("):-1]
        if not _digits(body):
            raise ParseError("Qzeta needs an integer, got %r" % body)
        return Cyclotomic(int(body))
    if s.startswith("F(") and s.endswith(")"):
        body = s[2:-1]
        if not _digits(body):
            raise ParseError("F needs a prime power, got %r" % body)
        q = int(body)
        if q < 2:
            raise ParseError("%d is not a prime power" % q)
        try:
            return finite_field_from_q(q)
        except TooLarge:
            raise
        except EdimError:
            raise ParseError("%d is not a prime power" % q)
    if s.startswith("custom{") and s.endswith("}"):
        return _parse_custom(s[len("custom{"):-1], text)
    raise ParseError("unrecognized field description %r" % text)


def _parse_custom(body, original):
    kwargs = {}
    keymap = {"char": "characteristic", "zeta_yes": "zeta_yes",
              "zeta_no": "zeta_no", "real_zeta_yes": "real_zeta_yes",
              "real_zeta_no": "real_zeta_no", "fp_dim": "fp_dim"}
    for part in _split_top(body):
        if not part:
            continue
        if "=" not in part:
            raise ParseError("expected key=value in %r" % original)
        key, _, val = part.partition("=")
        key, val = key.strip(), val.strip()
        if key not in keymap:
            raise ParseError("unknown custom key %r" % key)
        if key in ("zeta_yes", "zeta_no", "real_zeta_yes", "real_zeta_no"):
            if not (val.startswith("[") and val.endswith("]")):
                raise ParseError("%s needs [..] in %r" % (key, original))
            inner = val[1:-1].strip()
            items = [x.strip() for x in inner.split(",")] if inner else []
            if not all(map(_digits, items)):
                raise ParseError("non-integer in %s of %r" % (key, original))
            kwargs[keymap[key]] = frozenset(int(x) for x in items)
        elif key == "fp_dim":
            if val == "inf":
                kwargs["fp_dim"] = INF
            elif _digits(val):
                kwargs["fp_dim"] = int(val)
            else:
                raise ParseError("fp_dim must be an integer or inf")
        else:
            if not _digits(val):
                raise ParseError("char must be an integer")
            kwargs["characteristic"] = int(val)
    return Custom(**kwargs)


def _split_top(text):
    """Split at the commas outside every (), [] and {}."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


# ---------------------------------------------------------------------------
# subcommand bodies (each returns a JSON-able dict)
# ---------------------------------------------------------------------------

def _cmd_bound(args):
    g, fd = parse_group(args.group), parse_field(args.field)
    return trace_json(g, fd, *bound(g, fd))


def _cmd_table(args):
    groups = [parse_group(t) for t in _split_top(args.groups)]
    fields = [parse_field(t) for t in _split_top(args.fields)]
    check_grid(groups)
    rows = []
    for g in groups:
        for fd in fields:
            interval, _ = bound(g, fd)
            rows.append({"group": str(g), "field": fd.describe(),
                         "interval": interval.json()})
    return {"rows": rows}


def _int_list(text, count, error):
    parts = [x.strip() for x in text.split(",")]
    if len(parts) != count or not all(map(_digits, parts)):
        raise ParseError(error)
    return [int(x) for x in parts]


def _cmd_crossratio(args):
    if args.n > CROSSRATIO_N_CAP:
        raise TooLarge("crossratio %s capped at n = %d"
                       % (args.mode, CROSSRATIO_N_CAP))
    if args.mode == "rewrite":
        sym = CRSymbol(args.n, tuple(_int_list(
            args.symbol, 4, "--symbol needs four integers i,j,k,l")))
        return {"symbol": str(sym), "expr": render(cr_rewrite(sym))}
    if args.mode == "action":
        images = _int_list(args.perm, args.n,
                           "--perm needs the images of 1..n, comma-joined")
        if sorted(images) != list(range(1, args.n + 1)):
            raise ParseError("--perm must be a permutation of 1..%d" % args.n)
        sigma = tuple(x - 1 for x in images)
        action = sn_action(sigma)
        return {"perm": images,
                "generators": {"t%d" % i: render(img)
                               for i, img in sorted(action.items())}}
    report = verify_faithful(args.n)
    return {"n": report.n, "passed": report.passed,
            "checked": report.checked}


def _cmd_tschirnhaus(args):
    if args.char and not is_prime(args.char):
        raise ParseError("--char must be 0 or a prime")
    if args.mode == "verify" and args.count < 1:
        raise ParseError("--count must be at least 1")
    if args.n > TSCHIRNHAUS_DEGREE_CAP:
        raise TooLarge("tschirnhaus degree capped at n = %d"
                       % TSCHIRNHAUS_DEGREE_CAP)
    if args.mode == "verify" and args.count > TSCHIRNHAUS_COUNT_CAP:
        raise TooLarge("tschirnhaus verify capped at --count %d"
                       % TSCHIRNHAUS_COUNT_CAP)
    h, record = reduce_general(args.n, args.char)
    steps = [{"kind": type(step).__name__,
              "lambda": None if step.lam is None else render(step.lam)}
             for step in record.steps]
    coeffs = [c.render() for c in h.coeffs]
    out = {"n": args.n, "char": args.char, "steps": steps,
           "reduced_coefficients": coeffs}
    if args.mode == "reduce":
        return out
    # verify: randomized specialization oracle at points of F_p or F_{p^2},
    # each coordinate drawn as a code
    rng = random.Random(args.seed)
    f = general_poly(args.n, args.char)
    passes = skips = trials = 0
    while passes < args.count and trials < 60 * args.count:
        trials += 1
        if args.char == 0:
            ctx = fq_context(101, 1)
        else:
            ctx = fq_context(args.char, rng.choice([1, 1, 2]))
        assignment = {"t%d" % (i + 1): FqElement(ctx, rng.randrange(ctx.q))
                      for i in range(args.n)}
        try:
            ok = verify_specialization(f, h, record, assignment, ctx)
        except PoleAtAssignment:
            skips += 1
            continue
        if not ok:
            raise Inconsistent("specialization mismatch at %r" % assignment)
        passes += 1
    out.update({"seed": args.seed, "passes": passes, "skips": skips,
                "verified": passes >= args.count})
    return out


def _cmd_pgl2(args):
    fd = finite_field_from_q(args.q)
    if args.mode != "reps":
        _pgl2.check_q_cap(args.q)  # before fq_context builds the field
    ctx = fq_context(fd.p, fd.k)
    if args.mode == "orders":
        census = _pgl2.order_census(ctx)
        return {"q": args.q,
                "orders": {str(o): len(v) for o, v in sorted(census.items())}}
    g = parse_group(args.group)
    if args.mode == "embed":
        wit = _pgl2.pgl2_embeds(g, ctx)
        if wit is None:
            return {"q": args.q, "group": str(g), "embeds": False}
        return {"q": args.q, "group": str(g), "embeds": True,
                "images": [_mat_json(e.rep) for e in wit.images]}
    # reps: explicit 2-dimensional representations
    if isinstance(g, Dih):
        if g.n == char_of(fd):
            mats = _pgl2.dp_representation(ctx)
        else:
            mats = _pgl2.dn_representation(ctx, g.n)
        return {"q": args.q, "group": str(g),
                "matrices": [_mat_json(m) for m in mats]}
    if isinstance(g, ElemAb):
        if g.p != fd.p or fd.k < g.r:
            raise Unsupported("E(%d,%d) has no faithful unipotent model "
                              "over F_%d" % (g.p, g.r, args.q))
        gen = ctx.gen() if fd.k > 1 else ctx.one
        alphas, acc = [], ctx.one
        for _ in range(g.r):
            alphas.append(acc)
            acc = acc * gen
        mats = _pgl2.elemab_representation(ctx, alphas)
        return {"q": args.q, "group": str(g),
                "matrices": [_mat_json(m) for m in mats]}
    raise Unsupported("reps supports D<n> and E(p,r) only")


def _mat_json(m):
    return [[x.encode() for x in row]
            for row in ((m.a, m.b), (m.c, m.d))]


def _cmd_field(args):
    fd = parse_field(args.field)
    out = {"field": fd.describe(), "query": args.query}
    if args.query == "char":
        return {**out, "answer": char_of(fd)}
    if args.query == "fp_dim":
        if char_of(fd) == 0:
            raise ParseError("fp_dim is meaningless in characteristic 0")
        d = fd.fp_dimension()
        return {**out, "answer": "inf" if d is INF else d}
    if args.n is None:
        raise ParseError("--n is required for query %r" % args.query)
    if args.n < 1:
        raise ParseError("--n must be at least 1")
    out["n"] = args.n
    if args.query == "zeta":
        return {**out, "answer": str(fd.contains_zeta(args.n))}
    if args.query == "real_zeta":
        return {**out, "answer": str(fd.contains_real_zeta(args.n))}
    if args.query == "extend":
        return {**out, "answer": fd.extend_with_zeta(args.n).describe()}
    raise ParseError("unknown field query %r" % args.query)


# ---------------------------------------------------------------------------
# plain-text rendering
# ---------------------------------------------------------------------------

def _plain(cmd, out):
    lines = []
    if cmd == "bound":
        q = out["query"]
        lines.append("%s over %s: %s" % (q["group"], q["field"],
                                         _iv_str(out["interval"])))
        for node in out["nodes"]:
            c = node["conclusion"]
            lines.append("  %-12s %s / %s -> %s  [%s]"
                         % (node["rule"], c["group"], c["field"],
                            _iv_str(c["interval"]), node["citation"]))
    elif cmd == "table":
        for row in out["rows"]:
            lines.append("%-16s %-14s %s" % (row["group"], row["field"],
                                             _iv_str(row["interval"])))
    else:
        lines.append(json.dumps(out, indent=2, sort_keys=True))
    return "\n".join(lines)


def _iv_str(iv):
    return "[%s, %s]" % (iv["lo"], iv["hi"])


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)  # once per process: in-process loops call run
def build_parser():
    import argparse  # here, not at the top: library importers never parse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ParseError(message)

    top = _Parser(prog="edim", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="certified interval for ed_K(G)")
    p.add_argument("--group", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--plain", action="store_true")

    p = sub.add_parser("table", help="grid of bounds")
    p.add_argument("--groups", required=True)
    p.add_argument("--fields", required=True)
    p.add_argument("--plain", action="store_true")

    p = sub.add_parser("crossratio")
    p.add_argument("mode", choices=("rewrite", "action", "verify"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--symbol", default=None)
    p.add_argument("--perm", default=None)
    p.add_argument("--plain", action="store_true")

    p = sub.add_parser("tschirnhaus")
    p.add_argument("mode", choices=("reduce", "verify"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--char", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--plain", action="store_true")

    p = sub.add_parser("pgl2")
    p.add_argument("mode", choices=("orders", "embed", "reps"))
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--group", default=None)
    p.add_argument("--plain", action="store_true")

    p = sub.add_parser("field")
    p.add_argument("--field", required=True)
    p.add_argument("--query", required=True,
                   choices=("zeta", "real_zeta", "char", "fp_dim", "extend"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--plain", action="store_true")
    return top


# the option each (command, mode) needs that the parser cannot demand
_NEEDS = {("crossratio", "rewrite"): "symbol", ("pgl2", "embed"): "group",
          ("crossratio", "action"): "perm", ("pgl2", "reps"): "group"}
_BODIES = {"bound": _cmd_bound, "table": _cmd_table,
           "crossratio": _cmd_crossratio, "tschirnhaus": _cmd_tschirnhaus,
           "pgl2": _cmd_pgl2, "field": _cmd_field}


def run(argv):
    """Execute one command; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        need = _NEEDS.get((args.command, getattr(args, "mode", None)))
        if need and getattr(args, need) is None:
            raise ParseError("%s %s needs --%s"
                             % (args.command, args.mode, need))
        out = {"schema": SCHEMA, "command": args.command,
               **_BODIES[args.command](args)}
        try:
            text = (_plain(args.command, out) if getattr(args, "plain", False)
                    else json.dumps(out, sort_keys=True))
        except ValueError:  # str() of an int past the digit limit
            raise TooLarge("an integer in the output exceeds Python's "
                           "int-to-str limit of %d digits"
                           % sys.get_int_max_str_digits())
    except Inconsistent as exc:
        print(json.dumps({"schema": SCHEMA, "error": str(exc)}))
        return 4
    except (TooLarge, Unsupported, DegreeTooLarge) as exc:
        print(json.dumps({"schema": SCHEMA, "error": str(exc)}))
        return 3
    except (ParseError, EdimError, ValueError) as exc:
        print(json.dumps({"schema": SCHEMA, "error": str(exc)}))
        return 2
    print(text)
    return 0


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early, as in `edim table ... | head -1`: send what
        # is still buffered to devnull so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
