"""The input language: grammar, positions and semantic checks."""
import pytest
from fpdlab import ParseError
from fpdlab.script import parse


def test_basic_session_parses():
    s = parse("ring R = QQ[x,y]/(x*y); ideal I = (x, y); grade I;")
    assert set(s.rings) == {"R"}
    assert set(s.ideals) == {"I"}
    cmds = s.commands()
    assert len(cmds) == 1 and cmds[0].kind == "grade"
    assert str(s.rings["R"]) == "QQ[x,y]/(x*y)"


def test_ideal_without_ring_is_semantic_error():
    with pytest.raises(ParseError) as err:
        parse("ideal I = (x);")
    assert "no active ring" in str(err.value)
    assert err.value.line == 1


def test_integer_coefficient_workflow():
    s = parse("ring R = ZZ[a,b,c]; ideal M = (2, a, b, c); grade M;")
    assert s.ideals["M"].generators[0].terms == (((0, 0, 0), 2),)
    assert s.commands()[0].ideal_names == ("M",)


def test_prime_field_domains():
    s1 = parse("ring R = FF2[x]; ideal I = (x); gv I;")
    s2 = parse("ring R = FF 2 [x]; ideal I = (x); gv I;")
    assert s1.rings["R"].domain == s2.rings["R"].domain
    with pytest.raises(ParseError):
        parse("ring R = FF4[x];")  # 4 is not prime


def test_oracle_prime_field_must_be_prime():
    # ZZ/4 is not the field with 4 elements; ZZ/n stays the way to ask for it
    for text in ("oracle dq FF4;", "oracle ideals FF9[x]/(x^2 + 1);",
                 "oracle dw FF 6;"):
        with pytest.raises(ParseError, match="prime field modulus must be prime"):
            parse(text)
    assert str(parse("oracle dq FF5;").commands()[0].oracle_ring) == "ZZ/5"


def test_error_positions_are_reported():
    with pytest.raises(ParseError) as err:
        parse("ring R = QQ[x];\nideal I = (x + );")
    assert err.value.line == 2
    assert err.value.column == 16


def test_undeclared_ideal_rejected():
    with pytest.raises(ParseError) as err:
        parse("ring R = QQ[x]; grade J;")
    assert "undeclared ideal" in str(err.value)


def test_ideal_of_inactive_ring_rejected():
    text = ("ring R = QQ[x]; ideal I = (x); "
            "ring S = QQ[y]; grade I;")
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "active ring" in str(err.value)


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse("ring R = QQ[x]; ring R = QQ[y];")
    with pytest.raises(ParseError):
        parse("ring R = QQ[x]; ideal I = (x); ideal I = (x^2);")


def test_missing_arity_is_syntax_error():
    with pytest.raises(ParseError):
        parse("ring R = QQ[x]; ideal I = (x); ext I;")
    with pytest.raises(ParseError):
        parse("ring R = QQ[x]; ideal I = (x); grade I")  # missing semicolon


def test_unknown_command_and_variable():
    with pytest.raises(ParseError):
        parse("ring R = QQ[x]; frobnicate;")
    with pytest.raises(ParseError) as err:
        parse("ring R = QQ[x]; ideal I = (y);")
    assert "unknown variable" in str(err.value)


def test_fpd_command_with_flag():
    # fpd takes ideal names only: a retired option is refused, not ignored
    s = parse("ring R = QQ[x,y]; ideal M = (x, y); ideal N = (x); fpd M N;")
    assert s.commands()[0].ideal_names == ("M", "N")
    with pytest.raises(ParseError) as err:
        parse("ring R = QQ[x,y]; ideal M = (x, y); fpd M --exhaustive;")
    assert "expected ;, found '--exhaustive'" in str(err.value)


@pytest.mark.parametrize("text, found", [
    ("grade I --exhaustive;", "expected ;, found '--exhaustive'"),
    ("fpd I --exhaustiv;", "expected ;, found '--exhaustiv'"),
])
def test_misplaced_or_misspelt_flag_is_reported_as_typed(text, found):
    with pytest.raises(ParseError) as err:
        parse("ring R = QQ[x]; ideal I = (x); " + text)
    assert found in str(err.value)


def test_oracle_specs():
    s = parse("oracle dq ZZ/4; oracle dw FF2[x]/(x^2); oracle ideals ZZ/6;")
    checks = [(c.oracle_check, str(c.oracle_ring)) for c in s.commands()]
    assert checks == [("dq", "ZZ/4"), ("dw", "ZZ/2[x]/(x^2)"), ("ideals", "ZZ/6")]


def test_comments_and_whitespace():
    s = parse("# header\nring R = QQ[x];  # trailing\n\ndim;\n")
    assert s.commands()[0].kind == "dim"


def test_rational_coefficients_only_over_qq():
    s = parse("ring R = QQ[x]; ideal I = (1/2*x + 1);")
    assert str(s.ideals["I"].generators[0]) == "1/2*x + 1"
    with pytest.raises(ParseError):
        parse("ring R = ZZ[x]; ideal I = (1/2*x);")

