"""Exact root-of-unity arithmetic, cross-checked against sympy."""

from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobring.cyclotomic import (
    CycInt,
    cyclotomic_poly,
    from_exponent_counts,
    rational_sums,
    reduce_exponent_counts,
    totient,
)
from frobring.errors import InternalInconsistency, InvalidParameter, ResourceLimit

from oracles import lift, root_power_traces, sympy_cyclotomic_coeffs, sympy_reduce_exponents

ORDERS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 18, 20, 24, 30, 36]


@pytest.mark.parametrize("order", ORDERS)
def test_cyclotomic_poly_matches_sympy(order):
    assert cyclotomic_poly(order) == sympy_cyclotomic_coeffs(order)


def test_cyclotomic_poly_known_values():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_poly_rejects_bad_order():
    with pytest.raises(InvalidParameter):
        cyclotomic_poly(0)
    with pytest.raises(InvalidParameter):
        cyclotomic_poly(-3)


@pytest.mark.parametrize("order", ORDERS)
def test_degree_is_totient(order):
    count = sum(1 for k in range(1, order + 1) if __import__("math").gcd(k, order) == 1)
    assert totient(order) == count


@given(
    order=st.sampled_from(ORDERS),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_reduction_matches_sympy(order, data):
    counts = data.draw(
        st.lists(
            st.integers(min_value=-5, max_value=5),
            min_size=order,
            max_size=order,
        )
    )
    value = from_exponent_counts(order, counts)
    assert value.coeffs == sympy_reduce_exponents(order, counts)


def test_root_powers_sum_to_zero():
    """All order-th roots of unity sum to zero for order > 1."""
    for order in ORDERS:
        if order == 1:
            continue
        assert not reduce_exponent_counts(order, np.ones(order, dtype=np.int64)).any()


def _powers(order: int) -> np.ndarray:
    """Row k: the reduced coordinates of zeta_order^k."""
    return reduce_exponent_counts(order, np.eye(order, dtype=np.int64))


def test_root_power_wraps_modulo_order():
    """zeta^j * zeta^k = zeta^((j + k) mod order): the product of two reduced
    powers, as polynomials with exponents taken mod order, reduces to the
    reduced power at j + k mod order."""
    for order in [3, 4, 6, 8]:
        powers = _powers(order)
        for j in range(order):
            for k in range(order):
                counts = np.zeros(order, dtype=np.int64)
                product = np.convolve(powers[j], powers[k])
                np.add.at(counts, np.arange(len(product)) % order, product)
                assert np.array_equal(reduce_exponent_counts(order, counts),
                                      powers[(j + k) % order])


def test_rational_integer_detection():
    assert from_exponent_counts(4, [7, 0, 0, 0]).as_int() == 7
    assert from_exponent_counts(2, [0, 1]).as_int() == -1
    assert from_exponent_counts(5, [0, 1]).as_int() is None


def _same_value(a: CycInt, b: CycInt) -> bool:
    m = lcm(a.order, b.order)
    return lift(a, m) == lift(b, m)


def test_equals_across_orders():
    """zeta_4^2 and zeta_2 are both -1; zeta_6^3 too."""
    minus_one = from_exponent_counts(2, [0, 1])
    assert _same_value(from_exponent_counts(4, [0, 0, 1]), minus_one)
    assert _same_value(from_exponent_counts(6, [0, 0, 0, 1]), minus_one)
    assert _same_value(from_exponent_counts(6, [0, 0, 1]), from_exponent_counts(3, [0, 1]))
    assert not _same_value(from_exponent_counts(4, [0, 1]), minus_one)


def test_lift_preserves_value():
    """zeta_3 + zeta_3^2 = -1, also as zeta_12^4 + zeta_12^8 reduced at order 12."""
    a = from_exponent_counts(3, [0, 1, 1])
    lifted = lift(a, 12)
    assert a.as_int() == lifted.as_int() == -1
    counts = [0] * 12
    counts[4] = counts[8] = 1
    assert lifted.coeffs == sympy_reduce_exponents(12, counts)


def test_arithmetic_basics():
    """The reduction is linear: sums and integer multiples of count
    vectors reduce to the sums and multiples of their coordinates."""
    rng = np.random.default_rng(8)
    a, b = rng.integers(-9, 10, size=(2, 8))
    assert np.array_equal(reduce_exponent_counts(8, a + b),
                          reduce_exponent_counts(8, a) + reduce_exponent_counts(8, b))
    assert np.array_equal(reduce_exponent_counts(8, 3 * a), 3 * reduce_exponent_counts(8, a))
    assert np.array_equal(reduce_exponent_counts(8, -a), -reduce_exponent_counts(8, a))
    with pytest.raises(InvalidParameter):
        CycInt(4, (1,))


def test_order_mismatch_raises():
    """Counts or coordinates of one order are refused at another."""
    with pytest.raises(InvalidParameter):
        reduce_exponent_counts(4, np.ones((1, 8), dtype=np.int64))
    with pytest.raises(InvalidParameter):
        CycInt(8, from_exponent_counts(4, [0, 1]).coeffs)


def test_exponent_out_of_range():
    with pytest.raises(InvalidParameter):
        from_exponent_counts(4, [0, 0, 0, 0, 1])


@given(
    order=st.sampled_from([2, 3, 4, 6, 8, 12]),
    k1=st.integers(min_value=0, max_value=11),
    k2=st.integers(min_value=0, max_value=11),
)
@settings(max_examples=100, deadline=None)
def test_root_power_addition_is_exponent_counts(order, k1, k2):
    counts = [0] * order
    counts[k1 % order] += 1
    counts[k2 % order] += 1
    direct = from_exponent_counts(order, counts)
    powers = _powers(order)
    assert tuple((powers[k1 % order] + powers[k2 % order]).tolist()) == direct.coeffs


@pytest.mark.parametrize("order", ORDERS)
def test_totient_matches_polynomial_degree(order):
    assert totient(order) == len(cyclotomic_poly(order)) - 1


def test_totient_rejects_bad_argument():
    with pytest.raises(InvalidParameter):
        totient(0)
    with pytest.raises(InvalidParameter):
        totient(-3)


def test_trace_known_values():
    assert root_power_traces(1) == (1,)
    assert root_power_traces(2) == (1, -1)
    assert root_power_traces(4) == (2, 0, -2, 0)
    assert root_power_traces(6) == (2, 1, -1, -2, -1, 1)


@pytest.mark.parametrize("order", ORDERS)
def test_trace_is_sum_over_coprime_powers(order):
    """Entry k really is the sum of zeta^(k*j) over j coprime to order."""
    from math import gcd

    traces = root_power_traces(order)
    for k in range(order):
        counts = [0] * order
        for j in range(order):
            if gcd(j, order) == 1:
                counts[(k * j) % order] += 1
        value = from_exponent_counts(order, counts).as_int()
        assert value == traces[k]


@given(
    order=st.sampled_from([2, 3, 4, 6, 8, 9, 12, 20]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_trace_projects_rational_sums(order, data):
    """Whenever a count sum is a rational integer, the trace dot
    product divided by the totient recovers exactly that integer."""
    counts = data.draw(
        st.lists(
            st.integers(min_value=-4, max_value=4),
            min_size=order,
            max_size=order,
        )
    )
    value = from_exponent_counts(order, counts).as_int()
    traces = root_power_traces(order)
    dot = sum(c * t for c, t in zip(counts, traces))
    if value is not None:
        assert dot == value * totient(order)


@pytest.mark.parametrize("order", [105, 360, 1000])
def test_vectorized_reduction_matches_sympy(order):
    """Phi_105 has a coefficient -2; 360 and 1000 reduce through Phi_r(x^s)."""
    counts = np.random.default_rng(order).integers(-40, 41, size=(2, 1, order))
    out = reduce_exponent_counts(order, counts)
    assert out.shape == (2, 1, totient(order))
    for row, reduced in zip(counts.reshape(-1, order), out.reshape(-1, totient(order))):
        assert tuple(reduced.tolist()) == sympy_reduce_exponents(order, row)


def test_reduction_refuses_counts_that_could_overflow():
    """The a-priori bound refuses before any arithmetic; just below it is exact."""
    edge = 2**61 - 1  # order 2: 2 * peak * r * height = 4 * peak < 2**63
    assert reduce_exponent_counts(2, [[edge, edge]]).tolist() == [[0]]
    with pytest.raises(ResourceLimit, match="order 2"):
        reduce_exponent_counts(2, [[edge + 1, 0]])
    with pytest.raises(ResourceLimit, match="order 360"):
        reduce_exponent_counts(360, np.full((1, 360), -(2**58)))
    with pytest.raises(InvalidParameter):
        reduce_exponent_counts(4, [1, 2, 3])


def test_scalar_constructors_stay_exact_beyond_int64():
    """from_exponent_counts, and lift through it, divide in Python integers there."""
    big = 3**80
    assert from_exponent_counts(4, [big, 0, big + 1]).coeffs == (-1, 0)
    assert from_exponent_counts(3, [0, -big, big]).coeffs == (-big, -2 * big)
    a = from_exponent_counts(3, [0, big])
    assert lift(a, 6).coeffs == (-big, big)
    assert _same_value(a, from_exponent_counts(6, [0, 0, 0, 0, 0, -big]))
    assert not _same_value(a, from_exponent_counts(6, [0, 0, big + 1]))


@pytest.mark.parametrize("order", [*ORDERS, 360, 2310])
def test_rational_sums_match_the_division_and_the_trace(order):
    """Random rows constant on each class {e : gcd(e, order) = g}: the
    divisor sum is the division's constant coordinate, every other
    coordinate is 0, and the trace route gives the same integer."""
    from math import gcd

    rng = np.random.default_rng(order)
    per_class = rng.integers(-50, 51, size=(4, order + 1))
    counts = per_class[:, [gcd(e, order) for e in range(order)]]
    values = rational_sums(order, counts, "rows")
    reduced = reduce_exponent_counts(order, counts)
    assert np.array_equal(reduced[:, 0], values) and not reduced[:, 1:].any()
    traces = np.asarray(root_power_traces(order), dtype=np.int64)
    assert np.array_equal(counts @ traces, values * totient(order))


def test_rational_sums_refuse_rows_off_their_classes():
    counts = np.zeros((2, 3, 12), dtype=np.int64)
    counts[1, 2, [5, 7, 11]] = 1  # the class of 1 is {1, 5, 7, 11}
    with pytest.raises(InternalInconsistency, match=r"^Z12, left table: count at exponent 1 "
                       "differs from that at exponent 5, of the same gcd with 12$"):
        rational_sums(12, counts, "Z12, left table")
    assert rational_sums(12, counts[:1], "Z12").shape == (1, 3)
    with pytest.raises(ResourceLimit, match="order 12"):
        rational_sums(12, np.full((1, 12), 2**61), "Z12")
    with pytest.raises(InvalidParameter):
        rational_sums(4, [1, 2, 3], "Z4")
