"""Coefficient domains, monomial orders, polynomial arithmetic, presentations."""
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from fpdlab import (GREVLEX, LEX, CapExceededError, CoefficientDomain,
                    MonomialOrder, PolynomialRing, RingPresentation,
                    StructuralError)
from fpdlab.rings import EXPONENT_CAP, MonomialCodec
from helpers import FF, QQ, ZZ, decoded_terms, order_key, poly_ring


def test_grevlex_equal_degree_ties_on_last_exponent():
    # xz vs y^2 in (x, y, z): equal degree, y^2 wins
    assert order_key(GREVLEX, (1, 0, 1)) < order_key(GREVLEX, (0, 2, 0))


def test_lex_compares_left_to_right():
    assert order_key(LEX, (1, 0)) > order_key(LEX, (0, 5))


def test_any_order_equal_monomials():
    for order in (LEX, GREVLEX):
        assert order_key(order, (0, 1)) == order_key(order, (0, 1))
        assert order_key(order, (0, 1)) != order_key(order, (1, 0))


def test_an_order_is_grevlex_or_lex():
    assert str(MonomialOrder("lex")) == "lex" and MonomialOrder("grevlex") == GREVLEX
    with pytest.raises(StructuralError, match="unknown monomial order kind 'block'"):
        MonomialOrder("block")


_ORDERS = [GREVLEX, LEX]
_EXPONENT = st.one_of(st.integers(0, 3), st.integers(0, EXPONENT_CAP))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(_ORDERS), st.integers(1, 7).flatmap(
    lambda n: st.tuples(*[st.lists(_EXPONENT, min_size=n, max_size=n).map(tuple)] * 3)),
    st.integers(0, 4), st.integers(0, 4))
def test_codec_agrees_with_exponent_tuples(order, monos, p, q):
    # codes round-trip, a product is a sum, `<` is the order's key, and
    # divisibility, quotient, lcm and degree are those of the tuples; keys
    # compare position over term, and a sum past the cap is caught
    u, v, w = monos
    codec = MonomialCodec(len(u), order)
    cu, cv, cw = map(codec.encode, monos)
    key = lambda m: order_key(order, m)
    mul = lambda a, b: tuple(x + y for x, y in zip(a, b))
    assert codec.decode(cu) == u and codec.decode(cu + cv) == mul(u, v)
    assert (cu < cv) == (key(u) < key(v)) and (cu == cv) == (u == v)
    # sums of two codes still compare as the order
    assert (cu + cw < cv + cw) == (key(mul(u, w)) < key(mul(v, w)))
    divides = all(a <= b for a, b in zip(u, v))
    assert codec.divides(cu, cv) == divides
    if divides:
        assert codec.decode(cv - cu) == tuple(b - a for a, b in zip(u, v))
    lcm = tuple(map(max, u, v))
    assert codec.lcm(cu, cv) == codec.encode(lcm)
    key_of = lambda pos, m: codec.encode(m) - (pos << codec.shift)
    assert codec.lcm(key_of(p, u), key_of(p, v)) == key_of(p, lcm)
    assert codec.degree(cu) == sum(u)
    ku, kv = key_of(p, u), key_of(q, v)
    assert codec.position(ku) == p and codec.decode(ku) == u and codec.position(kv) == q
    assert (ku < kv) == ((-p, key(u)) < (-q, key(v)))
    if max(mul(u, v)) > EXPONENT_CAP:
        with pytest.raises(CapExceededError):
            codec.check(ku + cv)
    else:
        codec.check(ku + cv)


def test_codec_rejects_an_exponent_past_the_cap():
    codec = MonomialCodec(2, GREVLEX)
    codec.encode((EXPONENT_CAP, 0))
    with pytest.raises(CapExceededError, match="cap 2147483647"):
        codec.encode((EXPONENT_CAP + 1, 0))


def test_order_is_total_and_multiplicative():
    import itertools
    monos = [m for m in itertools.product(range(3), repeat=2)]
    for order in (LEX, GREVLEX):
        key = lambda m: order_key(order, m)
        for u in monos:
            for v in monos:
                assert (key(u) == key(v)) == (u == v)
                for w in monos:
                    uw = tuple(a + b for a, b in zip(u, w))
                    vw = tuple(a + b for a, b in zip(v, w))
                    assert (key(uw) < key(vw)) == (key(u) < key(v))
        # one is the minimum
        for u in monos:
            if u != (0, 0):
                assert key((0, 0)) < key(u)


# --- polynomials on codes against plain exponent-tuple dicts -----------------

def _ref_normal(dom, d: dict) -> dict:
    return {m: c for m, c in ((m, dom.coerce(c)) for m, c in d.items()) if c != 0}


def _ref_add(dom, u: dict, v: dict) -> dict:
    out = dict(u)
    for m, c in v.items():
        out[m] = dom.add(out.get(m, 0), c)
    return _ref_normal(dom, out)


def _ref_mul(dom, u: dict, v: dict) -> dict:
    out = {}
    for m1, c1 in u.items():
        for m2, c2 in v.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = dom.add(out.get(m, 0), dom.mul(c1, c2))
    return _ref_normal(dom, out)


# (variable count, two {exponent tuple: (numerator, denominator)} dicts)
_TERMS = st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), *[
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * n),
                    st.tuples(st.integers(-6, 6), st.integers(1, 3)), max_size=4)] * 2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([QQ, FF(5), ZZ]), st.sampled_from([GREVLEX, LEX]),
       _TERMS, st.integers(0, 3))
def test_polynomials_on_codes_agree_with_exponent_tuple_dicts(dom, order, terms, e):
    # from_dict, +, -, *, ** and is_homogeneous on codes give what the same
    # operations give on {exponent tuple: coefficient}, and the decoded terms
    # descend strictly under the reference order
    n, *dicts = terms
    R = PolynomialRing(dom, tuple(f"x{i}" for i in range(n)), order)
    # a proper fraction over QQ only
    u, v = ({m: Fraction(c, d if dom == QQ else 1) for m, (c, d) in t.items()}
            for t in dicts)
    f, g = R.from_dict(u), R.from_dict(v)
    ru, rv = _ref_normal(dom, u), _ref_normal(dom, v)
    power = {(0,) * n: 1}
    for _ in range(e):
        power = _ref_mul(dom, power, ru)
    cases = [(f, ru), (g, rv), (f + g, _ref_add(dom, ru, rv)),
             (f - g, _ref_add(dom, ru, {m: dom.neg(c) for m, c in rv.items()})),
             (-f, _ref_normal(dom, {m: dom.neg(c) for m, c in ru.items()})),
             (f * g, _ref_mul(dom, ru, rv)), (f ** e, power)]
    for p, ref in cases:
        terms_p = decoded_terms(p)
        assert dict(terms_p) == ref
        keys = [order_key(order, m) for m, _ in terms_p]
        assert all(a > b for a, b in zip(keys, keys[1:]))
        assert p.is_homogeneous() == (len({sum(m) for m in ref}) <= 1)


def test_poly_product_difference_of_squares():
    R = poly_ring(QQ, "x", "y")
    x, y = R.gens()
    assert (x + y) * (x - y) == R.poly("x^2 - y^2")


def test_poly_add_zero_is_identity():
    R = poly_ring(QQ, "x", "y")
    f = R.poly("3*x^2*y - 7")
    assert f + R.zero() == f


def test_characteristic_two_square():
    R = poly_ring(FF(2), "x")
    assert R.poly("x + 1") * R.poly("x + 1") == R.poly("x^2 + 1")


def test_mixed_rings_raise():
    R1 = poly_ring(QQ, "x")
    R2 = poly_ring(QQ, "y")
    with pytest.raises(StructuralError):
        R1.poly("x") + R2.poly("y")


def test_mixed_orders_raise():
    R1 = poly_ring(QQ, "x", "y")
    R2 = poly_ring(QQ, "x", "y", order=LEX)
    with pytest.raises(StructuralError):
        R1.poly("x") * R2.poly("y")


def test_normalization_is_idempotent_and_drops_zeros():
    R = poly_ring(QQ, "x", "y")
    f = R.from_dict({(1, 0): 2, (0, 1): 0, (0, 0): -1})
    again = R.from_dict(dict(decoded_terms(f)))
    assert f.terms == again.terms
    assert all(c != 0 for _, c in f.terms)
    # strictly decreasing under the active order
    keys = [order_key(R.order, m) for m, _ in decoded_terms(f)]
    assert keys == sorted(keys, reverse=True)


def test_from_dict_resorts_under_the_ring_order():
    R = poly_ring(QQ, "x", "y")
    f = R.poly("x + y^2")
    assert decoded_terms(f)[0][0] == (0, 2)  # grevlex: y^2 first
    g = poly_ring(QQ, "x", "y", order=LEX).from_dict(dict(decoded_terms(f)))
    assert decoded_terms(g)[0][0] == (1, 0)  # lex x > y
    assert g.ring.order == LEX


def test_prime_field_requires_prime():
    for n in range(-1, 2000):
        if n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1)):
            assert CoefficientDomain.FF(n).p == n
        else:
            with pytest.raises(StructuralError):
                CoefficientDomain.FF(n)


def test_large_prime_fields_are_decided_at_once():
    start = time.perf_counter()
    assert CoefficientDomain.FF(2 ** 61 - 1).p == 2 ** 61 - 1
    with pytest.raises(StructuralError, match="must be prime"):
        CoefficientDomain.FF(2 ** 61 + 1)
    # the least strong pseudoprime to the bases 2..37 is composite
    with pytest.raises(StructuralError, match="must be prime"):
        CoefficientDomain.FF(318665857834031151167461)
    bound = 3317044064679887385961981
    with pytest.raises(StructuralError, match=f"must be below {bound}"):
        CoefficientDomain.FF(bound)
    assert time.perf_counter() - start < 0.1


def test_integer_domain_rejects_proper_fractions():
    R = poly_ring(ZZ, "x")
    with pytest.raises(StructuralError):
        R.constant(Fraction(1, 2))
    assert R.constant(Fraction(4, 2)) == R.poly("2")


def test_exact_arithmetic_no_floats():
    R = poly_ring(QQ, "x")
    f = R.poly("1/3*x") * R.poly("3*x")
    assert f == R.poly("x^2")
    big = R.constant(10 ** 40) * R.constant(10 ** 40)
    assert decoded_terms(big) == (((0,), 10 ** 80),)


def test_rational_values_are_int_when_integral():
    dom = CoefficientDomain.QQ()
    R = poly_ring(QQ, "x")
    integral = [dom.zero(), dom.one(), dom.coerce(Fraction(4, 2)), dom.inv(1),
                dom.inv(-1), dom.exact_div(6, 3), dom.exact_div(Fraction(3, 2), Fraction(1, 2)),
                dom.lc_normalizer(Fraction(1, 3)), R.poly("4/2").terms[0][1]]
    assert integral == [0, 1, 2, 1, -1, 2, 3, 3, 2]
    assert all(type(v) is int for v in integral)
    proper = [dom.coerce(Fraction(1, 2)), dom.inv(2), dom.inv(Fraction(2, 3)),
              dom.exact_div(1, 2), dom.exact_div(-4, 6), R.poly("1/2").terms[0][1]]
    assert proper == [Fraction(1, 2), Fraction(1, 2), Fraction(3, 2), Fraction(1, 2),
                      Fraction(-2, 3), Fraction(1, 2)]
    assert all(type(v) is Fraction for v in proper)


def test_no_domain_operation_returns_a_float():
    values = {CoefficientDomain.QQ(): [Fraction(1, 2), Fraction(-3, 4), 2, -1, 7],
              CoefficientDomain.FF(7): [1, 2, 3, 6],
              CoefficientDomain.ZZ(): [1, -1, 2, 6]}
    for dom, vals in values.items():
        results = [dom.zero(), dom.one()]
        for a in vals:
            results += [dom.coerce(a), dom.neg(a), dom.lc_normalizer(a)]
            for b in vals:
                results += [dom.add(a, b), dom.sub(a, b), dom.mul(a, b)]
                if dom.is_field or a % b == 0:
                    results.append(dom.exact_div(a, b))
            if dom.is_field or a in (1, -1):
                results.append(dom.inv(a))
        assert not any(isinstance(v, float) for v in results), dom
        assert all(type(v) in (int, Fraction) for v in results), dom


def test_ring_presentation_normal_form_and_zero_test():
    A = poly_ring(QQ, "x")
    P = RingPresentation(A, [A.poly("x^2")])
    assert P.normal_form(A.poly("x^3 + x")) == A.poly("x")
    assert P.is_zero_element(A.poly("x^2"))
    assert not P.is_zero_ring()


def test_ideal_presentation_contains():
    A = poly_ring(QQ, "x", "y")
    P = RingPresentation(A, [A.poly("x*y")])
    I = P.ideal("x")
    assert I.contains("x*y^5")  # through the relations
    assert I.contains("x^2 + x*y")
    assert not I.contains("y")


def test_ideal_contains_reuses_the_stored_basis():
    from fpdlab.complexes import ext_computer
    from fpdlab.errors import Budget
    A = poly_ring(ZZ, "x", "y")
    P = RingPresentation(A, [A.poly("x^2 - 2*y")])
    I = P.ideal("x*y + 2", "y^2")
    first, again = Budget(), Budget()
    assert not I.contains("x", first)
    basis = ext_computer(I).cyclic_presentation().groebner_vectors()
    assert I.contains("x^3*y + 2*x^2 - 2*y^2", again)
    # the second call only reduces, against the one basis the ring keeps
    assert ext_computer(I).cyclic_presentation().groebner_vectors() is basis
    assert 0 < again.steps < first.steps


def test_polynomial_str_parses_back():
    R = poly_ring(QQ, "x", "y")
    for text in ("x^2 - y^2", "-x + 1/2", "3*x*y - 2*y + 7", "0"):
        f = R.poly(text)
        assert R.poly(str(f)) == f
