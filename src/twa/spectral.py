"""Square matrices over tropical semirings: maximum mean cycle and the potential.

Matrices are stored sparsely (one dict per row; absent entries are the
semiring zero), which keeps the large but thin products produced by the
automaton constructions cheap.  The maximum cycle mean and a circuit that
attains it come from one routine, Howard policy iteration.  The one star the
library needs, the potential u = M*beta, is never formed as a matrix: a
backward search from the support of beta orders a Bellman-Ford relaxation
of u, which raises PositiveCycleError when the star diverges.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionError, PositiveCycleError, TagMismatchError
from .semiring import Semiring, as_value, semiring_for


class TropicalMatrix:
    """A square matrix of weights over a single semiring tag."""

    __slots__ = ("semiring", "n", "rows")

    def __init__(self, tag, n: int, rows=None):
        self.semiring: Semiring = semiring_for(tag)
        if n < 0:
            raise DimensionError("matrix dimension must be nonnegative")
        self.n = n
        if rows is None:
            self.rows = [{} for _ in range(n)]
        else:
            if len(rows) != n:
                raise DimensionError(f"expected {n} rows, got {len(rows)}")
            self.rows = [dict(row) for row in rows]
            for i, row in enumerate(self.rows):
                for j, w in row.items():
                    if not 0 <= j < n:
                        raise DimensionError(f"column {j} out of range in row {i}")
                    if w is None or not self.semiring.is_weight(w):
                        raise TagMismatchError(
                            f"entry ({i},{j})={w!r} is not a finite {self.semiring.tag} weight"
                        )

    @classmethod
    def _adopt(cls, semiring: Semiring, n: int, rows: list) -> "TropicalMatrix":
        """Wrap rows the library built itself, without copying or re-checking.

        The caller hands over ``rows`` (n dicts whose columns lie in range and
        whose entries are finite weights of ``semiring``) and keeps no
        reference it later mutates.
        """
        mat = cls.__new__(cls)
        mat.semiring = semiring
        mat.n = n
        mat.rows = rows
        return mat

    @classmethod
    def from_rows(cls, tag, dense_rows) -> "TropicalMatrix":
        """Build from dense lists; None entries denote the semiring zero."""
        n = len(dense_rows)
        rows = []
        for drow in dense_rows:
            if len(drow) != n:
                raise DimensionError("dense matrix must be square")
            rows.append({j: w for j, w in enumerate(drow) if w is not None})
        return cls(tag, n, rows)

    def entry(self, i: int, j: int):
        return self.rows[i].get(j)

    def to_rows(self):
        """Dense list-of-lists view with None for zero entries."""
        return [[row.get(j) for j in range(self.n)] for row in self.rows]

    def arcs(self):
        """Yield (i, j, weight) for every nonzero entry."""
        for i, row in enumerate(self.rows):
            for j, w in row.items():
                yield i, j, w

    def __eq__(self, other):
        if not isinstance(other, TropicalMatrix):
            return NotImplemented
        return (
            self.semiring.tag == other.semiring.tag
            and self.n == other.n
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"TropicalMatrix({self.semiring.tag!r}, {self.n}, {self.rows!r})"


def vec_mat(x: dict, m: TropicalMatrix) -> dict:
    """Sparse row-vector times matrix; vectors are dicts state -> weight."""
    sr = m.semiring
    out: dict = {}
    for i, xi in x.items():
        for j, w in m.rows[i].items():
            c = sr.times(xi, w)
            old = out.get(j)
            out[j] = c if old is None else sr.plus(old, c)
    return out


# ---------------------------------------------------------------------------
# Maximum mean cycle.
# ---------------------------------------------------------------------------


def _critical_circuit(m: TropicalMatrix):
    """The maximum circuit mean of ``m`` and a simple circuit that attains it.

    Howard policy iteration (Cochet-Terrasson, Cohen, Gaubert, McGettrick and
    Quadrat, 1998).  The states that lead to no circuit are stripped first,
    so every state left has an arc to keep.  A policy keeps one arc per
    state; its graph ends in circuits, and each state gets the mean eta of
    the circuit it leads to and a bias x, with x = 0 at the smallest state of
    each circuit (its root) and x_i = w - eta_i + x_j along the kept arc
    i -> j.  A round first moves each state to a successor of larger eta;
    only when none exists does it move states to an arc of equal eta and
    larger w + x_j.  A state moves only on a strict improvement, to the
    lowest such target, so the policies never repeat and the iteration ends,
    with eta_i the largest mean of a circuit that i reaches.

    Returns (rho, circuit): rho exact (an int when integral), and the states
    of a circuit of the final policy with mean rho, the one with the smallest
    root, from its root in arc order.  (None, None) when the graph is acyclic.
    """
    if m.semiring.tag != "max-plus":
        raise TagMismatchError("max_mean_cycle requires a max-plus matrix")
    n, rows = m.n, m.rows
    outdeg = [len(row) for row in rows]
    into = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            into[j].append(i)
    dead = [i for i in range(n) if not outdeg[i]]
    for j in dead:  # grows while it is walked
        for i in into[j]:
            outdeg[i] -= 1
            if not outdeg[i]:
                dead.append(i)
    alive = [i for i in range(n) if outdeg[i]]
    if not alive:
        return None, None
    succ = [None] * n
    policy = [None] * n
    for i in alive:
        succ[i] = arcs = [(j, w) for j, w in sorted(rows[i].items()) if outdeg[j]]
        policy[i] = max(arcs, key=lambda arc: arc[1])  # the lowest target of the heaviest
    while True:
        eta, x, circuits = _policy_values(alive, policy)
        moved = False
        for i in alive:
            best, target = eta[i], None
            for arc in succ[i]:
                if eta[arc[0]] > best:
                    best, target = eta[arc[0]], arc
            if target is not None:
                policy[i] = target
                moved = True
        if moved:
            continue
        for i in alive:
            ei = eta[i]
            best, target = x[i] + ei, None
            for arc in succ[i]:
                j, w = arc
                if eta[j] == ei and w + x[j] > best:
                    best, target = w + x[j], arc
            if target is not None:
                policy[i] = target
                moved = True
        if not moved:
            return max(circuits, key=lambda c: (c[0], -c[1][0]))


def _policy_values(alive: list, policy: list):
    """The mean eta and bias x of each state under ``policy``, and its circuits.

    ``policy[i]`` is the kept arc (j, w) of state i.  Returns (eta, x,
    circuits), circuits as (mean, states from the root).
    """
    n = len(policy)
    eta = [None] * n
    x = [None] * n
    walk = [None] * n
    circuits = []
    for start in alive:
        if walk[start] is not None:
            continue
        path = []
        i = start
        while walk[i] is None:
            walk[i] = start
            path.append(i)
            i = policy[i][0]
        if walk[i] == start:  # this walk closed a circuit at i
            k = path.index(i)
            cycle = path[k:]
            del path[k:]
            root = cycle.index(min(cycle))
            cycle = cycle[root:] + cycle[:root]
            mean = as_value(Fraction(sum(policy[c][1] for c in cycle), len(cycle)))
            circuits.append((mean, cycle))
            eta[cycle[0]] = mean
            x[cycle[0]] = 0
            path += cycle[1:]
        for i in reversed(path):
            j, w = policy[i]
            eta[i] = ej = eta[j]
            x[i] = w - ej + x[j]
    return eta, x, circuits


def max_mean_cycle(m: TropicalMatrix):
    """The maximal mean weight over all simple circuits of the graph of ``m``.

    Returns an exact rational, or None (the semiring zero) when the graph is
    acyclic.  The mean is the first item of _critical_circuit.
    """
    return _critical_circuit(m)[0]


# ---------------------------------------------------------------------------
# The potential u = M*beta.
# ---------------------------------------------------------------------------


def _backward_order(into: list, u: list) -> list:
    """Breadth-first search backward from the finite entries of ``u``.

    Iterating ``into[j]`` gives the sources of the arcs into j.  Returns the
    states from which some arc path reaches a finite entry: those entries
    first, in increasing order, then the others in discovery order.
    """
    order = [j for j, uj in enumerate(u) if uj is not None]
    seen = [uj is not None for uj in u]
    for j in order:  # grows while it is walked: a breadth-first queue
        for i in into[j]:
            if not seen[i]:
                seen[i] = True
                order.append(i)
    return order


def _backward_search(letters: list, u: list) -> tuple[list, list]:
    """The backward search from the finite entries of ``u``, with the arcs it crossed.

    ``letters`` lists row lists (one per letter, or one matrix's rows), each
    of len(u) row dicts.  Returns (order, into): the result of
    _backward_order, and into[j] = {i: w}, the arcs i -> j of the letter sum
    by increasing source, built without the sum: one pass over the rows in
    row-major order merges the arcs of one source, one per letter, into
    their maximum.
    """
    into = [{} for _ in u]
    for i in range(len(u)):
        for rows in letters:
            for j, w in rows[i].items():
                preds = into[j]
                old = preds.get(i)
                if old is None or w > old:
                    preds[i] = w
    return _backward_order(into, u), into


def _relax(order: list, into: list, u: list):
    """Relax ``u`` in place toward (star of M) times u, one Bellman-Ford round per step.

    ``order`` and ``into`` are what _backward_search returns for u and the
    rows of M.  Every finite entry u_i is, at all times, the weight of a
    real path from i into the support of the starting vector, its final
    weight included.  Yields the states that a round improved, in
    improvement order (a state may repeat), and returns after the first
    round that changes nothing, when u is the fixpoint.  A caller may stop
    after any round.  Raises PositiveCycleError when round len(order) + 1
    still changes u: a cycle that reaches the support has positive weight.

    A round relaxes the arcs in backward breadth-first order from the support
    of u: the arcs into a state come right after those into the states it
    was discovered from.  So one round carries the best weights back along
    every path of fewest arcs, and rounds repeat only for better paths with
    more arcs.  Arcs into states that cannot reach the support never change
    u and are left out.
    """
    arcs = [(i, j, w) for j in order for i, w in into[j].items()]
    for rounds in range(len(order) + 1):
        improved = []
        for i, j, w in arcs:
            c = w + u[j]  # finite: an arc out of j came earlier in this order
            if u[i] is None or c > u[i]:
                u[i] = c
                improved.append(i)
        if not improved:
            return
        if rounds == len(order):
            raise PositiveCycleError("star diverges: positive-weight cycle reached")
        yield improved
