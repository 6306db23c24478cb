"""From an equivalent max-plus/min-plus pair to an unambiguous automaton.

Run:  python3 demos/04_disambiguation.py
"""

from twa import (
    covering,
    disambiguate,
    extract_one_valued,
    hadamard,
    unambiguous_from_pair,
    zoo,
)
from twa.format import serialize
from twa.oracle import equal_upto, max_ambiguity_upto, one_valued_upto

amax, bmin = zoo.sample_equivalent_pair()

print("== the raw pair ==")
print("max-plus side: ambiguity on short words:", max_ambiguity_upto(amax, 8)[0])
print("is it 1-valued?", one_valued_upto(amax, 8))
print()

print("== step 1: the difference product ==")
product = hadamard(amax, bmin.negate())
print(f"product has {product.n} states; each word weighs its max-plus minus its min-plus value:")
print(serialize(product))

print("== step 2: keep only difference-0 arcs -> a 1-valued automaton ==")
one_valued = extract_one_valued(amax, bmin)
print(serialize(one_valued))
print("1-valued on short words:", one_valued_upto(one_valued, 10))
print("ambiguity is still", max_ambiguity_upto(one_valued, 10)[0], "though")
print()

print("== step 3: subset covering + competition removal -> unambiguous ==")
cover = covering(one_valued)
print(f"the covering tracks (state, subset) pairs: {cover.automaton.n} states")
unambiguous = disambiguate(one_valued)
print(f"after removing competitions and trimming: {unambiguous.n} states")
print(serialize(unambiguous))
print("ambiguity now:", max_ambiguity_upto(unambiguous, 10)[0])
print("equal to the max-plus input:", equal_upto(unambiguous, amax, 10))
print("equal to the min-plus input:", equal_upto(unambiguous, bmin, 10))
print()

print("== the one-call version ==")
# unambiguous_from_pair first determinizes the 1-valued automaton with its
# weights; the output is deterministic when that finishes within the
# 1-valued automaton's size and the subset cap (10**6 by default),
# otherwise it is the covering of step 3.  Here
# determinizing needs 5 states against 4, so the covering is the output.
direct = unambiguous_from_pair(amax, bmin)
print("states:", direct.n, "| ambiguity:", max_ambiguity_upto(direct, 10)[0])
print("same as step 3:", serialize(direct) == serialize(unambiguous))
pmax, pmin = zoo.prime_period_pair(2, 3, 5, 7)
prime = unambiguous_from_pair(pmax, pmin)
print(
    f"the prime-period pair (2,3,5,7): {extract_one_valued(pmax, pmin).n} 1-valued states,"
    f" {prime.n} deterministic ones (the period is 210)"
)
