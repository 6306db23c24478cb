"""Maximum mean cycle against the circuit oracle and Karp; the potential against the star."""

import random
from fractions import Fraction

import pytest

from corpus import one_letter, power_star, random_matrix
from twa import (
    MAX_PLUS,
    MIN_PLUS,
    PositiveCycleError,
    TagMismatchError,
    max_mean_cycle,
)
from twa.oracle import simple_circuits
from twa.semiring import as_value
from twa.spectral import _backward_search, _critical_circuit, _relax

Z = None  # the semiring zero, for readable fixtures


def M(*dense, tag=MAX_PLUS):
    """The one-letter automaton of a dense matrix, Z for the zero."""
    return one_letter([{j: w for j, w in enumerate(row) if w is not Z} for row in dense], tag)


def test_max_mean_cycle_examples():
    assert max_mean_cycle(M([-1, 2], [0, Z])) == 1  # two-cycle mean (2+0)/2
    assert max_mean_cycle(M([-3])) == -3  # only circuit: the self-loop
    assert max_mean_cycle(M([Z, 5, 7], [Z, Z, 1], [Z, Z, Z])) is None  # acyclic
    assert max_mean_cycle(one_letter([])) is None


def test_max_mean_cycle_requires_max_plus():
    with pytest.raises(TagMismatchError):
        max_mean_cycle(M([0], tag=MIN_PLUS))


def test_max_mean_cycle_matches_circuit_enumeration():
    rng = random.Random(2024)
    for _ in range(200):
        a = one_letter(random_matrix(rng, nmax=6))
        circuits = simple_circuits(a)
        expected = max((mean for _, mean in circuits), default=None)
        assert max_mean_cycle(a) == expected


def test_max_mean_cycle_shifts_with_constant():
    rng = random.Random(77)
    for _ in range(50):
        a = random_matrix(rng, nmax=5)
        rho = max_mean_cycle(one_letter(a))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        shifted = [{j: w + c for j, w in row.items()} for row in a]
        expected = None if rho is None else rho + c
        assert max_mean_cycle(one_letter(shifted)) == expected


def _components(a):
    """The strongly connected components of the graph of the rows ``a``: reach meets co-reach."""
    n = len(a)

    def closure(start, step):
        seen = {start}
        stack = [start]
        while stack:
            for j in step(stack.pop()):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    into = [[i for i in range(n) if j in a[i]] for j in range(n)]
    placed = set()
    out = []
    for v in range(n):
        if v not in placed:
            comp = closure(v, lambda i: a[i]) & closure(v, lambda j: into[j])
            placed |= comp
            out.append(sorted(comp))
    return out


def karp_max_mean_cycle(a):
    """Karp's algorithm per strongly connected component: the test reference.

    D[k][v] is the largest weight of a walk of exactly k arcs from the first
    state of the component to v; the component's maximum mean is
    max_v min_k (D[c][v] - D[k][v]) / (c - k) for c its size.
    """
    best = None
    for nodes in _components(a):
        members = set(nodes)
        arcs = [(u, v, w) for u in nodes for v, w in a[u].items() if v in members]
        if not arcs:
            continue
        c = len(nodes)
        d = [dict() for _ in range(c + 1)]
        d[0][nodes[0]] = 0
        for k in range(1, c + 1):
            for u, v, w in arcs:
                if u in d[k - 1] and (v not in d[k] or d[k - 1][u] + w > d[k][v]):
                    d[k][v] = d[k - 1][u] + w
        for v, top in d[c].items():
            mean = min(Fraction(top - d[k][v], c - k) for k in range(c) if v in d[k])
            if best is None or mean > best:
                best = mean
    return None if best is None else as_value(best)


def components_matrix(rng, sizes, weights, frac_p=0.0):
    """Blocks of the given sizes, each a ring plus random arcs, with arcs only
    from a block to later ones, so each block is one strongly connected
    component; weights drawn from ``weights`` (a Fraction with ``frac_p``)."""
    n = sum(sizes)
    rows = [{} for _ in range(n)]

    def weight():
        if rng.random() < frac_p:
            return Fraction(rng.choice(weights), rng.choice([2, 3, 7]))
        return rng.choice(weights)

    first = 0
    for size in sizes:
        block = range(first, first + size)
        for i in block:
            if size > 1 or rng.random() < 0.5:
                rows[i][first + (i - first + 1) % size] = weight()
            for _ in range(2):
                rows[i][rng.choice(block)] = weight()
            if first + size < n and rng.random() < 0.3:
                rows[i][rng.randrange(first + size, n)] = weight()
        first += size
    return rows


def _check_circuit(a, rho, circuit):
    assert len(set(circuit)) == len(circuit)
    arcs = zip(circuit, circuit[1:] + circuit[:1])
    assert Fraction(sum(a[i][j] for i, j in arcs), len(circuit)) == rho


def test_critical_circuit_matches_circuit_enumeration():
    # fractions, ties (weights from a short range) and several components
    rng = random.Random(15)
    kinds = set()
    for _ in range(400):
        if rng.random() < 0.5:
            a = random_matrix(rng, nmax=8, lo=-2, hi=2, zero_p=rng.choice([0.5, 0.8]))
            if rng.random() < 0.3:
                a = [{j: Fraction(w, rng.choice([1, 3, 4])) for j, w in row.items()} for row in a]
        else:
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
            a = components_matrix(rng, sizes, [-1, 0, 1], frac_p=0.3)
        rho, circuit = _critical_circuit(a)
        means = [mean for _, mean in simple_circuits(one_letter(a))]
        assert rho == max(means, default=None)
        if rho is None:
            assert circuit is None
            kinds.add("acyclic")
            continue
        _check_circuit(a, rho, circuit)
        assert type(rho) is int or rho.denominator > 1
        kinds.add("tie" if means.count(rho) > 1 else "unique")
        kinds.add(type(rho).__name__)
    assert kinds == {"acyclic", "tie", "unique", "int", "Fraction"}


def test_max_mean_cycle_matches_karp_beyond_the_enumeration():
    rng = random.Random(16)
    for n in [20, 50, 100, 200]:
        for _ in range(3):
            sizes = []
            while sum(sizes) < n:
                sizes.append(min(rng.randint(1, n // 3), n - sum(sizes)))
            a = components_matrix(rng, sizes, range(-9, 4), frac_p=0.2)
            assert len(_components(a)) == len(sizes)
            rho, circuit = _critical_circuit(a)
            assert rho == max_mean_cycle(one_letter(a)) == karp_max_mean_cycle(a)
            _check_circuit(a, rho, circuit)


def relaxed(a, beta):
    """The potential u = M*beta of the production relaxation, run to its fixpoint."""
    u = list(beta)
    for _ in _relax(*_backward_search([a], u), u):
        pass
    return u


def test_star_vector_matches_mat_star():
    # the relaxed potential against the star by its definition
    rng = random.Random(4242)
    for _ in range(100):
        a = random_matrix(rng, nmax=5, lo=-5, hi=0)
        if (rho := max_mean_cycle(one_letter(a))) is not None and rho > 0:
            continue
        beta = [
            None if rng.random() < 0.4 else rng.randint(-5, 5) for _ in range(len(a))
        ]
        expected = []
        for row in power_star(a):
            acc = None
            for j, w in row.items():
                if beta[j] is not None:
                    cand = w + beta[j]
                    acc = cand if acc is None or cand > acc else acc
            expected.append(acc)
        assert relaxed(a, beta) == expected


def test_star_vector_detects_divergence():
    a = [{0: 1}]  # positive self-loop feeding the final vector
    with pytest.raises(PositiveCycleError):
        relaxed(a, [0])
