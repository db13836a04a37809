import json
import random
import sys
import time

import pytest

from edim.cli import ParseError, parse_field, parse_group, run
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


def test_plain_renderer(capsys):
    code, out = _capture(capsys, ["bound", "--group", "S6", "--field", "Q",
                                  "--plain"])
    assert code == 0
    assert "3" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_integers_past_the_str_limit_are_a_capability_limit(capsys):
    # R-REP's regular representation gives S1700 (and D1800 <= S1800) a
    # hi = n! of more digits than Python writes by default
    for group in ("S1700", "D1800"):
        for extra in ([], ["--plain"]):
            code, out = _capture(capsys, ["bound", "--group", group,
                                          "--field", "Q"] + extra)
            assert code == 3, (group, extra)
            assert out.count("\n") == 1
            doc = json.loads(out)
            assert set(doc) == {"schema", "error"}
            assert "int-to-str limit" in doc["error"]
            assert str(sys.get_int_max_str_digits()) in doc["error"]
    code, out = _capture(capsys, ["bound", "--group", "S1000",
                                  "--field", "Q"])
    assert code == 0
    assert json.loads(out)["interval"] == {"lo": 500, "hi": 997}
