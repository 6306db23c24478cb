"""Exact tropical arithmetic: weights, letter matrices, cycle means, and divergence.

Run:  python3 demos/01_tropical_weights.py
"""

from fractions import Fraction

from twa import (
    MAX_PLUS,
    MIN_PLUS,
    WeightedAutomaton,
    decide_nonpositive,
    max_mean_cycle,
    negate_weight,
    oplus,
    otimes,
    parse_finite,
)

print("== scalar arithmetic ==")
print("oplus(2, 5) in max-plus :", oplus(2, 5, MAX_PLUS))
print("oplus(2, 5) in min-plus :", oplus(2, 5, MIN_PLUS))
print("otimes(2, 5) either way :", otimes(2, 5, MAX_PLUS))
print("zero (None) is neutral  :", oplus(3, None, MAX_PLUS))
print("zero absorbs under times:", otimes(3, None, MAX_PLUS))

print()
print("== exact rationals ==")
half = parse_finite("0.5")
third = parse_finite("1/3")
print("0.5 parses to", repr(half), "and 1/3 to", repr(third))
print("their tropical product is", otimes(half, third, MAX_PLUS), "- no rounding, ever")
print("negation swaps the semirings:", negate_weight(Fraction(5, 2)))

print()
print("== matrices ==")
# a letter's matrix is a list of row dicts {target: weight}; an absent entry is the zero
rows = [{0: -1, 1: 2}, {0: 0}]
one_letter = WeightedAutomaton(MAX_PLUS, "a", 2, [0, None], [None, 0], {"a": rows})
print("M = [[-1, 2], [0, zero]] as rows:", rows)
print("maximum cycle mean of M:", max_mean_cycle(one_letter), "(the two-cycle averages (2+0)/2)")

print()
print("== divergence ==")
spiky = WeightedAutomaton.from_arcs(
    MAX_PLUS, "a", 1, initial=[(0, -3)], final=[(0, -3)], arcs=[(0, "a", 0, Fraction(1, 2))]
)
print("a one-state loop of weight 1/2 behind arrows of -3: cycle mean", max_mean_cycle(spiky))
verdict = decide_nonpositive(spiky)
print("every value <= 0?", verdict.holds, "- the positive loop pumps past the arrows")
print(f"witness {verdict.witness!r} has value {spiky.eval(verdict.witness)}")
