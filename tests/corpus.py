"""Seeded random generators shared by the test modules."""

from fractions import Fraction

from hypothesis import strategies as st

from twa import MAX_PLUS, MIN_PLUS, BooleanAutomaton, TropicalMatrix, WeightedAutomaton
from twa.format import serialize


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


# Digits that are not ASCII: Arabic-Indic one, fullwidth one, Devanagari one,
# superscript two.
_NON_ASCII_DIGITS = "\u0661\uff11\u0967\u00b2"
_MUTATIONS = (
    "drop-line", "dup-line", "drop", "dup", "swap", "digit", "state", "letter", "weight",
)


@st.composite
def twa_texts(draw, tag=None, max_states=4):
    """Hypothesis strategy: `.twa` text, valid or malformed.

    Serializes an automaton of ``automata`` (of ``tag``, else of either tag;
    integer or fraction weights), shuffles the lines after the `states` line, then applies up to
    four mutations: drop or duplicate a line; drop, duplicate or swap tokens
    of a line; put a non-ASCII digit into a token; put an out-of-range state
    into an arrow or arc; put an unknown letter into an arc; put a malformed
    literal in place of a weight.  State counts stay as drawn: the parser
    does not reject a count too large for memory (it raises OverflowError or
    MemoryError), and a count near 10**9 would really allocate gigabytes.
    """
    if tag is None:
        tag = draw(st.sampled_from([MAX_PLUS, MIN_PLUS]))
    weight = st.integers(-5, 5) | st.fractions(-5, 5, max_denominator=4)
    aut = draw(automata(tag, max_states=max_states, weight=weight))
    lines = serialize(aut).splitlines()
    lines[4:] = draw(st.permutations(lines[4:]))
    for _ in range(draw(st.integers(0, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split(" ")
        j = draw(st.integers(0, len(tokens) - 1))
        kind = draw(st.sampled_from(_MUTATIONS))
        arc_line = tokens[0] in ("initial", "final", "trans")
        if kind == "drop-line":
            del lines[i]
            continue
        if kind == "dup-line":
            lines.insert(i, lines[i])
            continue
        if kind == "drop":
            del tokens[j]
        elif kind == "dup":
            tokens.insert(j, tokens[j])
        elif kind == "swap":
            k = draw(st.integers(0, len(tokens) - 1))
            tokens[j], tokens[k] = tokens[k], tokens[j]
        elif kind == "digit":
            digits = [k for k, c in enumerate(tokens[j]) if c.isdigit()]
            if digits:
                k = draw(st.sampled_from(digits))
                tok = tokens[j]
                tokens[j] = tok[:k] + draw(st.sampled_from(_NON_ASCII_DIGITS)) + tok[k + 1:]
        elif kind == "state" and arc_line:
            bad = draw(st.sampled_from([-1, aut.n, aut.n + 1, 10**12]))
            tokens[draw(st.sampled_from([1, 2] if tokens[0] == "trans" else [1]))] = str(bad)
        elif kind == "letter" and tokens[0] == "trans" and len(tokens) > 3:
            tokens[3] = draw(st.sampled_from(["c", "z", "aa", "\u00e9", "#"]))
        elif kind == "weight" and arc_line:
            tokens[-1] = draw(st.sampled_from(["1/0", "0.0000000001", "1e3", "+-1", "1,2", "inf"]))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@st.composite
def twa_files(draw, tag=None, max_states=4):
    """Hypothesis strategy: the bytes of a `.twa` file, sometimes not UTF-8.

    The UTF-8 encoding of ``twa_texts``, with one byte sequence that does not
    decode inserted at a drawn offset half of the time.
    """
    data = draw(twa_texts(tag, max_states)).encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]))
        data = data[:at] + bad + data[at:]
    return data
