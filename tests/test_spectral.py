"""Matrix algebra: products, maximum mean cycle against the circuit oracle, star."""

import random
from fractions import Fraction

import pytest

from corpus import random_matrix
from twa import (
    MAX_PLUS,
    MIN_PLUS,
    DimensionError,
    PositiveCycleError,
    TagMismatchError,
    TropicalMatrix,
    mat_add,
    mat_mul,
    mat_star,
    max_mean_cycle,
    star_vector,
)
from twa.oracle import simple_circuits

Z = None  # the semiring zero, for readable fixtures


def M(*rows, tag=MAX_PLUS):
    return TropicalMatrix.from_rows(tag, list(rows))


def test_identity_is_neutral():
    rng = random.Random(42)
    for _ in range(20):
        a = random_matrix(rng)
        ident = TropicalMatrix.identity(MAX_PLUS, a.n)
        assert mat_mul(a, ident) == a
        assert mat_mul(ident, a) == a


def test_hand_expanded_square():
    a = M([0, 1], [Z, 0])
    assert mat_mul(a, a) == a


def test_zero_matrix_absorbs():
    rng = random.Random(43)
    a = random_matrix(rng, n=4)
    zero = TropicalMatrix(MAX_PLUS, 4)
    assert mat_mul(zero, a) == zero
    assert mat_mul(a, zero) == zero


def test_mat_mul_rejects_mismatches():
    with pytest.raises(DimensionError):
        mat_mul(M([0]), M([0, Z], [Z, 0]))
    with pytest.raises(TagMismatchError):
        mat_mul(M([0]), M([0], tag=MIN_PLUS))


def test_max_mean_cycle_examples():
    assert max_mean_cycle(M([-1, 2], [0, Z])) == 1  # two-cycle mean (2+0)/2
    assert max_mean_cycle(M([-3])) == -3  # only circuit: the self-loop
    assert max_mean_cycle(M([Z, 5, 7], [Z, Z, 1], [Z, Z, Z])) is None  # acyclic
    assert max_mean_cycle(TropicalMatrix(MAX_PLUS, 0)) is None


def test_max_mean_cycle_requires_max_plus():
    with pytest.raises(TagMismatchError):
        max_mean_cycle(M([0], tag=MIN_PLUS))


def test_max_mean_cycle_matches_circuit_enumeration():
    rng = random.Random(2024)
    for _ in range(200):
        a = random_matrix(rng, nmax=6)
        circuits = simple_circuits(a)
        expected = max((mean for _, mean in circuits), default=None)
        assert max_mean_cycle(a) == expected


def test_max_mean_cycle_shifts_with_constant():
    rng = random.Random(77)
    for _ in range(50):
        a = random_matrix(rng, nmax=5)
        rho = max_mean_cycle(a)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        shifted = TropicalMatrix(
            MAX_PLUS, a.n, [{j: w + c for j, w in row.items()} for row in a.rows]
        )
        expected = None if rho is None else rho + c
        assert max_mean_cycle(shifted) == expected


def _power_star(a):
    ident = TropicalMatrix.identity(MAX_PLUS, a.n)
    acc = ident
    power = ident
    for _ in range(a.n - 1):
        power = mat_mul(power, a)
        acc = mat_add(acc, power)
    return acc


def test_mat_star_examples():
    a = M([Z, 1], [Z, Z])
    assert mat_star(a) == M([0, 1], [Z, 0])
    loop = M([-1])
    assert mat_star(loop) == TropicalMatrix.identity(MAX_PLUS, 1)


def test_mat_star_agrees_with_power_expansion_or_raises():
    rng = random.Random(31337)
    cases = [random_matrix(rng, nmax=5, lo=-5, hi=2) for _ in range(200)]
    cases += [
        M([Z, Z], [Z, 1]),  # positive self-loop on the last state, empty first row
        M([-1, 2, Z], [Z, -1, 2], [-3, Z, -1]),  # 3-cycle of weight 1, diagonal -1
    ]
    checked = 0
    for a in cases:
        rho = max_mean_cycle(a)
        if rho is not None and rho > 0:
            with pytest.raises(PositiveCycleError):
                mat_star(a)
            continue
        star = mat_star(a)
        assert star == _power_star(a)
        # the defining fixpoint: M (x) M* (+) I = M*
        ident = TropicalMatrix.identity(MAX_PLUS, a.n)
        assert mat_add(mat_mul(a, star), ident) == star
        checked += 1
    assert checked > 30  # the sample actually exercised the star


def test_star_vector_matches_mat_star():
    rng = random.Random(4242)
    for _ in range(100):
        a = random_matrix(rng, nmax=5, lo=-5, hi=0)
        if (rho := max_mean_cycle(a)) is not None and rho > 0:
            continue
        beta = [
            None if rng.random() < 0.4 else rng.randint(-5, 5) for _ in range(a.n)
        ]
        star = mat_star(a)
        expected = []
        for i in range(a.n):
            acc = None
            for j, w in star.rows[i].items():
                if beta[j] is not None:
                    cand = w + beta[j]
                    acc = cand if acc is None or cand > acc else acc
            expected.append(acc)
        assert star_vector(a, beta) == expected


def test_star_vector_detects_divergence():
    a = M([1])  # positive self-loop feeding the final vector
    with pytest.raises(PositiveCycleError):
        star_vector(a, [0])
