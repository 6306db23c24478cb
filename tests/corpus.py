"""Seeded random generators shared by the test modules."""

from fractions import Fraction

from hypothesis import strategies as st

from twa import MAX_PLUS, MIN_PLUS, BooleanAutomaton, TropicalMatrix, WeightedAutomaton


def random_weight(rng, lo=-5, hi=5, zero_p=0.4, frac_p=0.0):
    """A random exact weight; None (the semiring zero) with probability zero_p."""
    if rng.random() < zero_p:
        return None
    if frac_p and rng.random() < frac_p:
        return Fraction(rng.randint(2 * lo, 2 * hi), rng.choice([2, 3, 4, 5, 7]))
    return rng.randint(lo, hi)


def random_matrix(rng, n=None, nmax=6, lo=-5, hi=5, zero_p=0.4, tag=MAX_PLUS):
    if n is None:
        n = rng.randint(1, nmax)
    rows = []
    for _ in range(n):
        row = {}
        for j in range(n):
            w = random_weight(rng, lo, hi, zero_p)
            if w is not None:
                row[j] = w
        rows.append(row)
    return TropicalMatrix(tag, n, rows)


def random_automaton(
    rng,
    max_states=4,
    alphabet="ab",
    tag=MAX_PLUS,
    arc_p=0.5,
    arrow_p=0.6,
    lo=-5,
    hi=5,
    frac_p=0.1,
):
    """A random automaton; not necessarily trim."""
    n = rng.randint(1, max_states)
    alphabet = tuple(alphabet)

    def arrow():
        return random_weight(rng, lo, hi, 1.0 - arrow_p, frac_p)

    initial = [(i, w) for i in range(n) if (w := arrow()) is not None]
    final = [(i, w) for i in range(n) if (w := arrow()) is not None]
    arcs = []
    for src in range(n):
        for ch in alphabet:
            for dst in range(n):
                if rng.random() < arc_p:
                    w = random_weight(rng, lo, hi, 0.0, frac_p)
                    arcs.append((src, ch, dst, w))
    return WeightedAutomaton.from_arcs(
        tag, alphabet, n, initial=initial, final=final, arcs=arcs
    )


def random_deterministic_automaton(
    rng, max_states=4, alphabet="ab", tag=MAX_PLUS, arc_p=0.7, lo=-4, hi=4
):
    """Single initial state, at most one arc per (state, letter): unambiguous by shape."""
    n = rng.randint(1, max_states)
    alphabet = tuple(alphabet)
    arcs = []
    for src in range(n):
        for ch in alphabet:
            if rng.random() < arc_p:
                arcs.append((src, ch, rng.randrange(n), rng.randint(lo, hi)))
    final = [(i, rng.randint(lo, hi)) for i in range(n) if rng.random() < 0.6]
    if not final:
        final = [(n - 1, rng.randint(lo, hi))]
    return WeightedAutomaton.from_arcs(
        tag, alphabet, n, initial=[(0, rng.randint(lo, hi))], final=final, arcs=arcs
    )


def grid_product(a, b, semiring, combine):
    """Reference: the full a.n * b.n grid, pair (p, q) at index p * b.n + q."""
    bn = b.n
    grid = [(p, q) for p in range(a.n) for q in range(bn)]

    def arrows(va, vb):
        return [
            None if va[p] is None or vb[q] is None else combine(va[p], vb[q])
            for p, q in grid
        ]

    mu = {
        ch: TropicalMatrix(semiring, len(grid), [
            {
                r * bn + s: combine(w1, w2)
                for r, w1 in a.mu[ch].rows[p].items()
                for s, w2 in b.mu[ch].rows[q].items()
            }
            for p, q in grid
        ])
        for ch in a.alphabet
    }
    labels = [f"({a.state_label(p)},{b.state_label(q)})" for p, q in grid]
    alpha, beta = arrows(a.alpha, b.alpha), arrows(a.beta, b.beta)
    return WeightedAutomaton(semiring, a.alphabet, len(grid), alpha, beta, mu, labels)


def zero_filter(aut):
    """The NFA of the weight-0 arrows and arcs of a nonpositively weighted automaton."""
    delta = {}
    for ch, mat in aut.mu.items():
        for i, row in enumerate(mat.rows):
            delta[(i, ch)] = {j for j, w in row.items() if w == 0}
    return BooleanAutomaton(
        aut.alphabet,
        aut.n,
        {i for i, w in enumerate(aut.alpha) if w == 0},
        {i for i, w in enumerate(aut.beta) if w == 0},
        delta,
    )


def as_min_plus_copy(aut):
    """The same data read as a min-plus automaton.

    For a 1-valued automaton (deterministic ones in particular) max and min
    over paths coincide, so the copy recognizes the same series.
    """
    return WeightedAutomaton(
        MIN_PLUS,
        aut.alphabet,
        aut.n,
        aut.alpha,
        aut.beta,
        {
            ch: TropicalMatrix(MIN_PLUS, aut.n, mat.rows)
            for ch, mat in aut.mu.items()
        },
        aut.state_labels,
    )


def random_trim_nonpositive(rng, decide, max_states=4, alphabet="ab", tries=2000):
    """Rejection-sample a trim automaton whose series is nonpositive.

    ``decide`` is the nonpositivity decision procedure (passed in to keep
    this helper free of import-order knots).
    """
    for _ in range(tries):
        aut = random_automaton(
            rng, max_states, alphabet, arc_p=0.45, lo=-5, hi=1, frac_p=0.1
        ).trim()
        if aut.n == 0:
            continue
        if decide(aut).holds:
            return aut
    raise AssertionError("rejection sampling failed to find a nonpositive automaton")


@st.composite
def automata(draw, tag, max_states=6, alphabet="ab", weight=st.integers(-5, 5)):
    """Hypothesis strategy: an automaton with 0..max_states states and integer weights.

    Not necessarily trim; every arrow and arc is drawn independently, each
    weight from ``weight``.
    """
    n = draw(st.integers(0, max_states))
    alpha = draw(st.lists(st.none() | weight, min_size=n, max_size=n))
    beta = draw(st.lists(st.none() | weight, min_size=n, max_size=n))
    arcs = {}
    if n:
        state = st.integers(0, n - 1)
        arcs = draw(st.dictionaries(
            st.tuples(state, st.sampled_from(alphabet), state), weight, max_size=3 * n
        ))
    return WeightedAutomaton.from_arcs(
        tag,
        alphabet,
        n,
        initial=[(i, w) for i, w in enumerate(alpha) if w is not None],
        final=[(i, w) for i, w in enumerate(beta) if w is not None],
        arcs=[(src, ch, dst, w) for (src, ch, dst), w in arcs.items()],
    )
