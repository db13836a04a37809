import hashlib
import json
import math
import os
import pathlib
import random
import shlex
import subprocess
import sys
import time

import pytest

from edim import cli, edengine
from edim.cli import ParseError, parse_field, parse_group, run
from edim.edengine import BoundInterval
from edim.fielddesc import (INF, Custom, Cyclotomic, FiniteField,
                            RationalField)
from edim.groups import Alt, Cyc, Dih, ElemAb, Product, Sym


def _capture(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


def test_parse_group_atoms():
    assert parse_group("S6") == Sym(6)
    assert parse_group("A5") == Alt(5)
    assert parse_group("D12") == Dih(12)
    assert parse_group("C9") == Cyc(9)
    assert parse_group("E(3,2)") == ElemAb(3, 2)
    assert parse_group(" S6 ") == Sym(6)


def test_parse_group_products_left_assoc():
    g = parse_group("S3 x C4 x A5")
    assert g == Product(Product(Sym(3), Cyc(4)), Alt(5))


def test_parse_group_errors():
    for bad in ("S", "E(4,2)", "Q8", "S3 x", "x S3", "S3 y C2", "E(3;2)"):
        with pytest.raises((ParseError, ValueError)):
            parse_group(bad)


def test_group_round_trip_random():
    rng = random.Random(42)

    def rand_atom():
        kind = rng.randrange(5)
        if kind == 0:
            return Sym(rng.randrange(2, 15))
        if kind == 1:
            return Alt(rng.randrange(3, 15))
        if kind == 2:
            return Dih(rng.randrange(1, 30))
        if kind == 3:
            return Cyc(rng.randrange(1, 40))
        return ElemAb(rng.choice([2, 3, 5, 7]), rng.randrange(1, 5))

    for _ in range(500):
        e = rand_atom()
        for _ in range(rng.randrange(0, 3)):
            e = Product(e, rand_atom())
        assert parse_group(str(e)) == e


def test_parse_field_forms():
    assert parse_field("Q") == RationalField()
    assert parse_field("Qzeta(7)") == Cyclotomic(7)
    assert parse_field("F(8)") == FiniteField(2, 3)
    fd = parse_field("custom{char=0, zeta_yes=[5], real_zeta_yes=[5]}")
    assert isinstance(fd, Custom)


def test_a_repeated_custom_parse_builds_nothing(monkeypatch):
    # the parser calls Custom with keywords; a keyword call is looked up by
    # its field values, so a spelling parsed before runs no __post_init__
    # (divisor closures and conflict checks) again
    text = "custom{char=3, zeta_yes=[4], real_zeta_no=[7,10], fp_dim=inf}"
    first = parse_field(text)
    builds = []
    real = Custom._build

    def counted(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(Custom, "_build", counted)
    assert parse_field(text) is first
    assert parse_field(text.replace("[7,10]", "[10,7]")) is first
    assert builds == []
    assert parse_field("custom{char=3, real_zeta_no=[11], fp_dim=2}") \
        is parse_field("custom{fp_dim=2, char=3, real_zeta_no=[11]}")
    assert len(builds) == 1


def test_field_describe_round_trips():
    # describe() is the CLI grammar, so every trace key parses back
    custom = Custom(characteristic=2, fp_dim=INF)
    fields = [RationalField(), Cyclotomic(1), Cyclotomic(12),
              FiniteField(2, 1), FiniteField(5, 2), FiniteField(2, 10),
              Custom(), custom,
              Custom(characteristic=3, zeta_no=frozenset({7}), fp_dim=4),
              Custom(characteristic=0, zeta_yes=frozenset({5}),
                     real_zeta_yes=frozenset({5}), zeta_no=frozenset({7}))]
    # and so must the fields the engine derives with extend_with_zeta
    fields += [FiniteField(2, 2).extend_with_zeta(11),
               RationalField().extend_with_zeta(5),
               Cyclotomic(4).extend_with_zeta(3),
               custom.extend_with_zeta(3)]
    assert FiniteField(2, 2).extend_with_zeta(11).describe() == "F(1024)"
    assert custom.extend_with_zeta(3).describe() \
        == "custom{char=2, zeta_yes=[3], fp_dim=inf}"
    for fd in fields:
        assert parse_field(fd.describe()) == fd, fd
        assert str(fd) == fd.describe()


def test_parse_field_errors():
    for bad in ("R", "F(6)", "Qzeta(0)", "custom{char=4}", "F()"):
        with pytest.raises((ParseError, ValueError, Exception)):
            parse_field(bad)


def test_bound_command_json(capsys):
    code, out = _capture(capsys, ["bound", "--group", "S6", "--field", "Q"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "edim/1"
    assert doc["command"] == "bound"
    assert doc["interval"] == {"lo": 3, "hi": 3}
    assert doc["query"] == {"group": "S6", "field": "Q"}
    assert all("citation" in n for n in doc["nodes"])


def test_bound_output_byte_stable(capsys):
    argv = ["bound", "--group", "D7", "--field", "Qzeta(7)"]
    _, out1 = _capture(capsys, argv)
    _, out2 = _capture(capsys, argv)
    assert out1 == out2


def test_table_command(capsys):
    code, out = _capture(capsys, ["table", "--groups", "S4,S5",
                                  "--fields", "Q,F(2)"])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "table"
    assert len(doc["rows"]) == 4  # row-major over groups x fields
    first = doc["rows"][0]
    assert first["group"] == "S4" and first["field"] == "Q"
    assert first["interval"] == {"lo": 2, "hi": 2}


def test_table_splits_at_top_level_commas(capsys):
    code, out = _capture(capsys, ["table", "--groups", "E(2,2),S3",
                                  "--fields", "custom{char=0, zeta_yes=[5], "
                                              "real_zeta_yes=[5]},F(4)"])
    assert code == 0, out
    rows = json.loads(out)["rows"]
    assert [(r["group"], r["field"]) for r in rows] == [
        ("E(2,2)", "custom{char=0, zeta_yes=[5], real_zeta_yes=[5]}"),
        ("E(2,2)", "F(4)"),
        ("S3", "custom{char=0, zeta_yes=[5], real_zeta_yes=[5]}"),
        ("S3", "F(4)")]
    assert rows[1]["interval"] == {"lo": 1, "hi": 1}  # Prop 5.9, [F_4:F_2]=2


def test_crossratio_rewrite_command(capsys):
    code, out = _capture(capsys, ["crossratio", "rewrite", "--n", "5",
                                  "--symbol", "1,2,5,4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["expr"] == "t4 * t5^-1"
    assert doc["symbol"] == "[1,2;5,4]"


def test_crossratio_verify_command(capsys):
    code, out = _capture(capsys, ["crossratio", "verify", "--n", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True


@pytest.mark.parametrize("argv", [
    ["crossratio", "action", "--n", "5", "--perm", "2,1,3,4,\u0665"],
    ["crossratio", "rewrite", "--n", "5", "--symbol", "1,2,3,\u00b2"],
    ["bound", "--group", "S\u00b2", "--field", "Q"],
    ["bound", "--group", "E(\u0662,2)", "--field", "Q"],
    ["bound", "--group", "S5", "--field", "F(\u00b2)"],
    ["bound", "--group", "S5", "--field", "Qzeta(\u0665)"],
    ["bound", "--group", "S5", "--field", "custom{char=\u0662, fp_dim=1}"],
    ["bound", "--group", "S5", "--field", "custom{char=0, fp_dim=\u00b2}"],
    ["bound", "--group", "S5", "--field", "custom{char=0, zeta_yes=[\u0662]}"],
], ids=lambda argv: " ".join(argv).encode("ascii", "backslashreplace")
    .decode())
def test_integers_are_ascii_digits(capsys, argv):
    # other scripts' digits used to parse as integers (Arabic-Indic five as
    # 5), and superscripts failed with int()'s own message
    code, out = _capture(capsys, argv)
    assert code == 2, out
    error = json.loads(out)["error"]
    assert "invalid literal" not in error, error


def test_pgl2_orders_command(capsys):
    code, out = _capture(capsys, ["pgl2", "orders", "--q", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["orders"] == {"1": 1, "2": 3, "3": 2}


def test_pgl2_embed_command(capsys):
    code, out = _capture(capsys, ["pgl2", "embed", "--q", "4",
                                  "--group", "D5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["embeds"] is True


def test_bound_former_hangs(capsys):
    for group, field, want, budget in (
            ("D30", "F(25)", {"lo": 2, "hi": 27}, None),
            ("E(7,2)", "F(8)", {"lo": 2, "hi": 2}, None),
            ("C720720", "Q", {"lo": 2, "hi": 61}, 1.0),
            ("C30030", "Q", {"lo": 3, "hi": 38}, 1.0)):
        start = time.perf_counter()
        code, out = _capture(capsys, ["bound", "--group", group,
                                      "--field", field])
        assert code == 0
        assert json.loads(out)["interval"] == want, (group, field)
        if budget is not None:
            assert time.perf_counter() - start < budget, (group, field)


def test_field_query_command(capsys):
    code, out = _capture(capsys, ["field", "--field", "F(2)",
                                  "--query", "extend", "--n", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["answer"] == "F(4)"
    code, out = _capture(capsys, ["field", "--field", "Q",
                                  "--query", "zeta", "--n", "5"])
    doc = json.loads(out)
    assert doc["answer"] == "No"


def test_tschirnhaus_command(capsys):
    code, out = _capture(capsys, ["tschirnhaus", "reduce", "--n", "5",
                                  "--char", "0"])
    assert code == 0
    doc = json.loads(out)
    coeffs = doc["reduced_coefficients"]
    assert len(coeffs) == 5
    assert coeffs[0] == "0"  # the X^{n-1} coefficient is gone
    assert len({c for c in coeffs if c != "0"}) == 3  # n - 2 parameters


def test_exit_codes(capsys):
    code, out = _capture(capsys, ["bound", "--group", "E(4,2)",
                                  "--field", "Q"])
    assert code == 2
    assert "error" in json.loads(out)
    code, _ = _capture(capsys, ["pgl2", "orders", "--q", "6"])
    assert code == 2
    code, _ = _capture(capsys, ["pgl2", "embed", "--q", "64",
                                "--group", "C3"])
    assert code == 3  # over the search cap: capability, not usage


@pytest.mark.parametrize("group", ["C0", "D0", "C0xC2", "E(2,0)", "S3xD0"])
def test_indices_that_name_no_group_exit_2(capsys, group):
    # C0 used to be "certified" [1, 1], D0 exited 4 and C0xC2 raised
    # ZeroDivisionError; every command that reads a group now refuses them
    for argv in (["bound", "--group", group, "--field", "Q"],
                 ["table", "--groups", "S3," + group, "--fields", "Q,F(5)"],
                 ["pgl2", "embed", "--q", "5", "--group", group]):
        code, out = _capture(capsys, argv)
        assert code == 2, argv
        assert "names no group" in json.loads(out)["error"], argv


@pytest.mark.parametrize("argv,cap", [
    (["reduce", "--n", str(cli.TSCHIRNHAUS_DEGREE_CAP + 1)], "degree"),
    (["verify", "--n", str(cli.TSCHIRNHAUS_DEGREE_CAP + 1)], "degree"),
    (["reduce", "--n", "1000000000"], "degree"),
    (["verify", "--n", "6",
      "--count", str(cli.TSCHIRNHAUS_COUNT_CAP + 1)], "--count"),
    (["verify", "--n", "6", "--count", "1000000"], "--count"),
])
def test_tschirnhaus_above_the_caps_exits_3_fast(capsys, argv, cap):
    start = time.perf_counter()
    code, out = _capture(capsys, ["tschirnhaus"] + argv)
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert cap in json.loads(out)["error"]


def test_tschirnhaus_at_the_caps_answers_within_a_second(capsys):
    start = time.perf_counter()
    code, out = _capture(capsys, [
        "tschirnhaus", "verify", "--n", str(cli.TSCHIRNHAUS_DEGREE_CAP - 1),
        "--count", str(cli.TSCHIRNHAUS_COUNT_CAP)])
    assert time.perf_counter() - start < 1
    assert code == 0
    assert json.loads(out)["verified"] is True


def _perm(n, seed):
    images = list(range(1, n + 1))
    random.Random(seed).shuffle(images)
    return ",".join(map(str, images))


# (argv, exit code): each input exits 3 in under 0.5 s or answers in under
# 1 s.  Before the crossratio and D_n caps, `crossratio action --n 800` took
# 1.6 s in process and `rewrite` had no bound on n, while `verify`, which
# enumerated S_n, refused n > 7 with exit 2; D10000018/F(10000019)
# took 1.9 s.  While the D_n trace search ran in code order, D5 over
# F(999983^2) did not finish in 30 s and D9420 over F(13^12) took 1.1 s
# in process.  Before the elimination,
# E(3,12)/F(531441) took 13.7 s, E(1000003,1) 3.6 s, and E(999999999989,1)
# did not finish.  While the modulus search ran Rabin's test on every
# binomial X^12 + c, finding the modulus of F(10037^12) took 10 s.  Before
# the bound caps, E(2,500)/Q, E(3,500)/F(4) and C2^400/Q failed with a
# RecursionError, and C2^200/Q took 45 s; under the rank cap of 200 those
# two E(p,500) exited 3 while E(p,r) was peeled one C_p at a time.  While
# Thm 4.6's (iv) factored |Z(G')| whole, E(1000003,2)xC2/Q exited 3 at the
# trial-division cap.  While F(p^2) inverted by Fermat powers, the n = 23,
# count 50 `tschirnhaus verify` took 0.9-1.3 s from the shell.  While a
# table's cells had no shared budget, two groups at the caps over three
# fields took 1.02 s from the shell.  While the
# S_n / A_n element orders came from a walk over the partitions of n,
# A40/F(2) took 0.38-0.51 s in process, and D30/F(25), which meets S30
# through R-SUB, 0.03 s.  While R-PGL-OBS built a product's whole lcm set
# of element orders when no factor's orders decided, these took, from the
# shell: S40xS39xS38xS37/custom{char=0} 1.95 s, with S36 added 4.38 s, and
# with real_zeta_no=[1009] 2.12 s; C2x...xC71 (20 primes)/F(2) 1.73 s;
# D3x...xD73 (20 odd primes)/custom{char=0} 8.45 s; S40x...xS33 over
# custom{char=0, real_zeta_no=[963761198400]} 15.7 s (3.6 s when its
# search kept every lcm, not only the maximal ones); C2x...xC131 (32
# primes)/custom{char=0}, a set of 2^32 orders, had not finished at 20 s.
_ATOMS, _RANK = edengine.BOUND_ATOMS_CAP, edengine.BOUND_RANK_CAP


def _c2s(n):
    return "x".join(["C2"] * n)


def _product(letter, ns):
    return "x".join("%s%d" % (letter, n) for n in ns)


_PRIMES = [p for p in range(2, 132) if all(p % d for d in range(2, p))]

# large products whose element-order conditions R-PGL-OBS decides from its
# factors' orders alone; each answers within the budget
PRODUCT_ROWS = [
    ["bound", "--group", "S40xS39xS38xS37xS36xS35", "--field", "Q"],
    ["bound", "--group", "A40xA39xA38xA37xA36xA35", "--field", "F(2)"],
    ["bound", "--group", "S40xS39xS38xS37", "--field", "F(41)"],
    ["bound", "--group", "S40xS39xS38xS37", "--field", "F(43)"],
    ["bound", "--field", "F(5)", "--group", "S40xS39xS38xS37"],
    ["bound", "--field", "custom{char=0}", "--group", "S40xS39xS38xS37"],
    ["bound", "--field", "custom{char=0}", "--group",
     "S40xS39xS38xS37xS36"],
    ["bound", "--field", "custom{char=0, real_zeta_no=[1009]}", "--group",
     "S40xS39xS38xS37"],
    ["bound", "--field", "F(3)", "--group", "A40xA40xA40"],
    ["bound", "--field", "custom{char=0}", "--group",
     _product("C", _PRIMES)],
    ["bound", "--field", "F(2)", "--group", _product("C", _PRIMES[:20])],
    ["bound", "--field", "custom{char=0}", "--group",
     _product("D", _PRIMES[1:21])],
    ["bound", "--field", "custom{char=0, real_zeta_no=[963761198400]}",
     "--group", _product("S", range(40, 32, -1))],
    # no lcm reaches 41 x lcm(1..40), so the search runs over all 32 atoms
    ["bound", "--field", "custom{char=0, real_zeta_no=[%d]}"
     % (41 * math.lcm(*range(1, 41))), "--group", _product("A", [40] * 32)],
]

BUDGET = [
    (["bound", "--field", "Q", "--group", _c2s(_ATOMS)], 0),
    (["bound", "--field", "Q", "--group", _c2s(_ATOMS + 1)], 3),
    (["bound", "--field", "Q", "--group", "E(2,%d)" % _RANK], 0),
    (["bound", "--field", "Q", "--group", "E(2,%d)" % (_RANK + 1)], 3),
    (["bound", "--field", "F(5)", "--group",
      "E(3,%d)x%s" % (_RANK, _c2s(_ATOMS - 1))], 0),
    (["bound", "--field", "Q", "--group",  # each atom below the rank cap
      "E(2,{0})xE(3,{0})xE(5,{0})".format(_RANK // 3 + 1)], 3),
    (["table", "--fields", "F(5),Q,F(3)", "--groups",  # each cell within
      ",".join("E(%d,%d)x%s" % (p, _RANK, _c2s(_ATOMS - 1)) for p in (3, 2))],
     3),
    (["table", "--fields", "F(5),Q", "--groups",  # a group's rank counts once
      "E(3,%d)x%s" % (_RANK, _c2s(_ATOMS - 1))], 0),
    (["table", "--fields", "Q,Q", "--groups",
      "E(2,{0}),E(2,{0})".format(_RANK)], 0),
    (["table", "--fields", "F(5),Q", "--groups",
      "E(2,%d),E(3,%d)x%s" % (_RANK // 2, _RANK // 2 + 1, _c2s(_ATOMS - 1))],
     3),
    (["bound", "--field", "Q", "--group", "E(2,500)"], 0),
    (["bound", "--field", "F(4)", "--group", "E(3,500)"], 0),
    (["bound", "--field", "Q", "--group", "E(1000003,2)xC2"], 0),
    (["bound", "--field", "Q", "--group", _c2s(200)], 3),
    (["bound", "--field", "Q", "--group", _c2s(400)], 3),
    (["bound", "--group", "A40", "--field", "F(2)"], 0),
    *[(argv, 0) for argv in PRODUCT_ROWS],
    (["bound", "--group", "D30", "--field", "F(25)"], 0),
    (["crossratio", "action", "--n", "800", "--perm", _perm(800, 1)], 3),
    (["crossratio", "action", "--n", str(cli.CROSSRATIO_N_CAP + 1),
      "--perm", _perm(cli.CROSSRATIO_N_CAP + 1, 2)], 3),
    (["crossratio", "action", "--n", str(cli.CROSSRATIO_N_CAP),
      "--perm", _perm(cli.CROSSRATIO_N_CAP, 3)], 0),
    (["crossratio", "rewrite", "--n", "100000", "--symbol", "1,2,3,4"], 3),
    (["crossratio", "rewrite", "--n", str(cli.CROSSRATIO_N_CAP),
      "--symbol", "400,399,398,397"], 0),
    (["crossratio", "verify", "--n", str(cli.CROSSRATIO_N_CAP)], 0),
    (["crossratio", "verify", "--n", str(cli.CROSSRATIO_N_CAP + 1)], 3),
    (["crossratio", "verify", "--n", "100000"], 3),
    (["pgl2", "reps", "--q", "10000019", "--group", "D10000018"], 3),
    (["pgl2", "reps", "--q", "1000003", "--group", "D1000002"], 3),
    (["pgl2", "reps", "--q", "19997", "--group", "D10001"], 3),
    (["pgl2", "reps", "--q", "19997", "--group", "D9998"], 0),
    (["pgl2", "reps", "--q", "999966000289", "--group", "D5"], 0),
    (["pgl2", "reps", "--q", str(10037 ** 12), "--group", "D5"], 0),
    (["pgl2", "reps", "--q", "999922001521", "--group", "D9106"], 0),
    (["pgl2", "reps", "--q", "23298085122481", "--group", "D9420"], 0),
    (["pgl2", "reps", "--q", "531441", "--group", "E(3,12)"], 0),
    (["pgl2", "reps", "--q", "1000003", "--group", "E(1000003,1)"], 0),
    (["pgl2", "reps", "--q", "999999999989", "--group",
      "E(999999999989,1)"], 0),
    (["tschirnhaus", "verify", "--n", "23", "--char", "999999999989",
      "--count", "25"], 0),
    (["tschirnhaus", "verify", "--n", "23", "--char", "999999999989",
      "--count", "50"], 0),
]


@pytest.mark.parametrize("argv,want", BUDGET,
                         ids=[" ".join(a)[:60] for a, _ in BUDGET])
def test_large_inputs_exit_3_fast_or_answer_within_a_second(capsys, argv,
                                                            want):
    start = time.perf_counter()
    code, out = _capture(capsys, argv)
    took = time.perf_counter() - start
    assert code == want, out
    assert took < (0.5 if want == 3 else 1), took
    if want == 3:
        assert "capped at n = " in json.loads(out)["error"]


@pytest.mark.parametrize("mode,q", [(["orders"], 10007 ** 12),
                                    (["embed", "--group", "C5"], 10037 ** 12)],
                         ids=["orders", "embed"])
def test_pgl2_refuses_q_past_the_cap_before_building_the_field(
        capsys, monkeypatch, mode, q):
    # the cap comes before the field is built; `reps` alone builds it
    def refuse(p, k):
        raise AssertionError("built F(%d^%d) before the cap" % (p, k))

    monkeypatch.setattr(cli, "fq_context", refuse)
    start = time.perf_counter()
    code, out = _capture(capsys, ["pgl2", *mode, "--q", str(q)])
    took = time.perf_counter() - start
    assert code == 3, out
    assert took < 0.5, took
    assert "capped at q = 27" in json.loads(out)["error"]


@pytest.mark.parametrize("n", ["0", "-3"])
def test_field_queries_need_a_positive_n(capsys, n):
    # zeta_0 names nothing: Q(zeta_1) and F(7) used to raise
    # ZeroDivisionError on it, and Q answered "No"
    for fd in ("Q", "Qzeta(1)", "F(7)", "custom{char=0}"):
        for query in ("zeta", "real_zeta", "extend"):
            code, out = _capture(capsys, ["field", "--field", fd, "--query",
                                          query, "--n", n])
            assert code == 2
            assert json.loads(out) == {"schema": cli.SCHEMA,
                                       "error": "--n must be at least 1"}


@pytest.mark.parametrize("count", ["0", "-3"])
def test_tschirnhaus_verify_needs_a_positive_count(capsys, count):
    # a run that checks no specialization must not report "verified"
    code, out = _capture(capsys, ["tschirnhaus", "verify", "--n", "5",
                                  "--count", count])
    assert code == 2
    assert json.loads(out) == {"schema": cli.SCHEMA,
                               "error": "--count must be at least 1"}


def test_plain_renderer(capsys):
    code, out = _capture(capsys, ["bound", "--group", "S6", "--field", "Q",
                                  "--plain"])
    assert code == 0
    assert "3" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_integers_past_the_str_limit_are_a_capability_limit(capsys,
                                                            monkeypatch):
    # no trace holds |G| any more: R-REP's hi is the permutation degree
    for group, want in (("S1700", [850, 1697]), ("D1800", [2, 1797])):
        code, out = _capture(capsys, ["bound", "--group", group,
                                      "--field", "Q"])
        assert code == 0, group
        assert json.loads(out)["interval"] == dict(zip(("lo", "hi"), want))
    # an interval end past the digit limit still reaches the writer's guard
    huge = BoundInterval(0, 10 ** (sys.get_int_max_str_digits() + 1))
    monkeypatch.setattr(cli, "bound", lambda g, fd: (huge, []))
    for extra in ([], ["--plain"]):
        code, out = _capture(capsys, ["bound", "--group", "S1700",
                                      "--field", "Q"] + extra)
        assert code == 3, extra
        assert out.count("\n") == 1
        doc = json.loads(out)
        assert set(doc) == {"schema", "error"}
        assert "int-to-str limit" in doc["error"]
        assert str(sys.get_int_max_str_digits()) in doc["error"]


@pytest.mark.parametrize("argv,cap", [
    # trial division past FACTOR_CAP
    (["bound", "--group", "C100000000000000000039", "--field", "Q"],
     "trial division"),
    (["field", "--field", "F(100000000000000000039)", "--query", "char"],
     "trial division"),
    # an F(q) whose q has more digits than Python writes
    (["field", "--field", "F(2)", "--query", "extend", "--n", "1000003"],
     "digits"),
])
def test_size_caps_exit_3_fast(capsys, argv, cap):
    start = time.perf_counter()
    code, out = _capture(capsys, argv)
    assert time.perf_counter() - start < 5
    assert code == 3
    assert cap in json.loads(out)["error"]


@pytest.mark.parametrize("group,field,lo,hi", [
    # degrees up to 10^12: each embedding certificate is a few block
    # coordinates, and no group is realized on its points
    ("C2000000000078", "Q", 3, 1000000000040),
    ("D1000000000039", "F(7)", 2, 1000000000036),
    ("C1999966", "Q", 3, 999984),
    ("D1000003", "Q", 2, 1000000),
    ("D10000019", "Qzeta(10000019)", 1, 1),
])
def test_huge_groups_answer_within_a_second(capsys, group, field, lo, hi):
    start = time.perf_counter()
    code, out = _capture(capsys, ["bound", "--group", group, "--field", field])
    assert time.perf_counter() - start < 1
    assert code == 0
    assert json.loads(out)["interval"] == {"lo": lo, "hi": hi}


@pytest.mark.parametrize("q,group", [(3125, "D7"), (2048, "D5")])
def test_pgl2_reps_without_real_zeta_exit_2_fast(capsys, q, group):
    # zeta_n + zeta_n^-1 is not in F_q (n divides neither q - 1 nor q + 1):
    # a field fact, decided before any matrix is built
    start = time.perf_counter()
    code, out = _capture(capsys, ["pgl2", "reps", "--q", str(q),
                                  "--group", group])
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert "is not in F_%d" % q in json.loads(out)["error"]


@pytest.mark.parametrize("q,group", [(1000003, "D3"), (1000033, "D8")])
def test_pgl2_reps_on_large_fields_answer_fast(capsys, q, group):
    # the rotation's trace comes from one power of a companion matrix and
    # the Chebyshev recurrence, with no scan over F_q: zeta_3 + zeta_3^-1
    # = -1 is the last code, and zeta_8 + zeta_8^-1 is a square root of 2
    start = time.perf_counter()
    code, out = _capture(capsys, ["pgl2", "reps", "--q", str(q),
                                  "--group", group])
    assert time.perf_counter() - start < 2
    assert code == 0
    rot, refl = json.loads(out)["matrices"]
    c = rot[1][1]
    assert rot == [[0, q - 1], [1, c]] and refl == [[1, c], [0, q - 1]]
    assert c == q - 1 if group == "D3" else c * c % q == 2


@pytest.mark.parametrize("argv,key,answer", [
    (["field", "--field", "F(1000000007)", "--query", "char"], "answer",
     1000000007),
    (["field", "--field", "F(2)", "--query", "extend", "--n", "1001"],
     "answer", "F(%d)" % 2 ** 60),
    (["field", "--field", "custom{char=2, fp_dim=3}", "--query", "extend",
      "--n", "1000003"], "answer",
     "custom{char=2, zeta_yes=[1000003], real_zeta_yes=[1000003], "
     "fp_dim=1000002}"),
    (["bound", "--group", "C5", "--field", "custom{char=0, "
      "zeta_yes=[1000000007], real_zeta_yes=[1000000007]}"], "interval",
     {"lo": 1, "hi": 5}),
])
def test_large_moduli_answer_by_factorization(capsys, argv, key, answer):
    start = time.perf_counter()
    code, out = _capture(capsys, argv)
    assert time.perf_counter() - start < 5
    assert code == 0
    assert json.loads(out)[key] == answer


@pytest.mark.parametrize("argv,key,answer", [
    # the k = 2 trials compute in F_q with q = 1009^2 and 10007^2
    (["tschirnhaus", "verify", "--n", "5", "--char", "1009"], "verified",
     True),
    (["tschirnhaus", "verify", "--n", "5", "--char", "10007"], "verified",
     True),
    (["field", "--field", "Qzeta(10000019)", "--query", "real_zeta", "--n",
      "10000019"], "answer", "Yes"),
])
def test_large_fields_answer_without_enumeration(capsys, argv, key, answer):
    start = time.perf_counter()
    code, out = _capture(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 0
    assert json.loads(out)[key] == answer


# sha256 of the `tschirnhaus verify` outputs over n = 2..7, chars 0, 2, 3, 5,
# 7 and seeds 0..2, each as "<exit code> <stdout>", recorded when F_q
# elements were coefficient tuples and points were drawn with rng.choice
# from the list of all q elements
TSCHIRNHAUS_GRID_SHA256 = (
    "87693ea0a825530f301b02b3a1e219db8116b7ad23bab395e92b158fbb962817")


def _tschirnhaus_grid(capsys):
    out = []
    for n in range(2, 8):
        for char in (0, 2, 3, 5, 7):
            for seed in range(3):
                code, text = _capture(capsys, [
                    "tschirnhaus", "verify", "--n", str(n), "--char",
                    str(char), "--seed", str(seed)])
                out.append("%d %s" % (code, text))
    return "".join(out)


def test_tschirnhaus_verify_output_is_unchanged(capsys):
    digest = hashlib.sha256(_tschirnhaus_grid(capsys).encode()).hexdigest()
    assert digest == TSCHIRNHAUS_GRID_SHA256


def _edim(argv, stdout):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c",
                           "from edim.cli import main; main()", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, env=env,
                          timeout=120)


def test_python_m_edim_runs_the_cli(capsys):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    argv = ["bound", "--group", "S5", "--field", "Q"]
    done = subprocess.run([sys.executable, "-m", "edim", *argv],
                          capture_output=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    code, out = _capture(capsys, argv)
    assert done.stderr == b""
    assert (done.returncode, done.stdout.decode()) == (code, out) == (0, out)


def test_readme_shell_examples_run():
    # each line of the README's command-line block, run by sh with `edim`
    # as `python -m edim` from src; an unquoted F(2) is a syntax error
    root = pathlib.Path(__file__).resolve().parent.parent
    text = (root / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command-line tool", 1)[1]
    lines = block.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    edim = 'edim() { PYTHONPATH=%s %s -m edim "$@"; }\n' % (
        shlex.quote(str(root / "src")), shlex.quote(sys.executable))
    arrows = 0
    for line in lines:
        done = subprocess.run(["sh", "-c", edim + line], capture_output=True,
                              text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, ""), line
        if "# ->" in line:
            assert line.split("# ->", 1)[1].strip() in done.stdout, line
            arrows += 1
    assert (len(lines), arrows) == (10, 2)


def test_broken_pipe_exits_quietly(capsys):
    argv = ["table", "--groups", "S4,S5,D5", "--fields", "Q,F(2)"]
    # the reader has gone before the first write, as `| head -1` can leave
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _edim(argv, write_end)
    finally:
        os.close(write_end)
    assert b"Traceback" not in done.stderr and done.stderr == b""
    assert done.returncode == 1
    # with a reader, the bytes are those of run() and the exit code is 0
    done = _edim(argv, subprocess.PIPE)
    code, out = _capture(capsys, argv)
    assert (done.returncode, done.stdout.decode()) == (code, out) == (0, out)
