"""Coefficient domains, monomial orders, polynomial arithmetic, presentations."""
import time
from fractions import Fraction

import pytest
from fpdlab import (GREVLEX, LEX, CoefficientDomain, RingPresentation,
                    StructuralError, block_order)
from helpers import FF, QQ, ZZ, poly_ring


def test_grevlex_equal_degree_ties_on_last_exponent():
    # xz vs y^2 in (x, y, z): equal degree, y^2 wins
    assert GREVLEX.key((1, 0, 1)) < GREVLEX.key((0, 2, 0))


def test_lex_compares_left_to_right():
    assert LEX.key((1, 0)) > LEX.key((0, 5))


def test_any_order_equal_monomials():
    for order in (LEX, GREVLEX, block_order(1)):
        assert order.key((0, 1)) == order.key((0, 1))
        assert order.key((0, 1)) != order.key((1, 0))


def test_descending_key_reverses_the_order_key():
    import random
    rng = random.Random(5)
    for order in (LEX, GREVLEX, block_order(1), block_order(2, LEX, GREVLEX)):
        monos = list({tuple(rng.randrange(4) for _ in range(4)) for _ in range(200)})
        assert (sorted(monos, key=order.descending_key)
                == sorted(monos, key=order.key, reverse=True))


def test_order_is_total_and_multiplicative():
    import itertools
    monos = [m for m in itertools.product(range(3), repeat=2)]
    for order in (LEX, GREVLEX, block_order(1)):
        key = order.key
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
    again = R.from_dict(dict(f.terms))
    assert f.terms == again.terms
    assert all(c != 0 for _, c in f.terms)
    # strictly decreasing under the active order
    keys = [R.order.key(m) for m, _ in f.terms]
    assert keys == sorted(keys, reverse=True)


def test_from_dict_resorts_under_the_ring_order():
    R = poly_ring(QQ, "x", "y")
    f = R.poly("x + y^2")
    assert f.leading_monomial() == (0, 2)  # grevlex: y^2 first
    g = poly_ring(QQ, "x", "y", order=LEX).from_dict(dict(f.terms))
    assert g.leading_monomial() == (1, 0)  # lex x > y
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
    assert big.terms == (((0,), 10 ** 80),)


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
