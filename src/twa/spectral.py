"""Maximum mean cycle of a max-plus automaton, by Howard policy iteration.

A matrix is kept as an automaton keeps each letter, n row dicts {column:
weight} with the semiring zero absent, so thin products stay cheap.  The
maximum cycle mean and a circuit that attains it come from one routine,
Howard policy iteration on the rows of a letter sum; max_mean_cycle takes
the max-plus automaton itself, as rows carry no tag.  The potential u =
M*beta is relaxed in twa.decisions, next to the verdict it serves.
"""

from __future__ import annotations

from fractions import Fraction

from .automaton import _require_max_plus
from .semiring import as_value


def _critical_circuit(rows: list):
    """The maximum circuit mean of the max-plus rows ``rows`` and a simple circuit that attains it.

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
    n = len(rows)
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


def max_mean_cycle(aut):
    """The maximal mean weight over all simple circuits of a max-plus automaton.

    The circuits are those of the graph of its letter sum.  Returns an exact
    rational, or None (the semiring zero) when the graph is acyclic.  The
    mean is the first item of _critical_circuit.  Raises TagMismatchError for
    a min-plus automaton, whose rows alone would not show it.
    """
    _require_max_plus(aut, "max_mean_cycle")
    return _critical_circuit(aut.letter_sum())[0]
