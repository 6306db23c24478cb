"""Weighted automata: building, evaluating, trimming, and the .twa format.

Run:  python3 demos/02_automata_basics.py
"""

from twa import MAX_PLUS, WeightedAutomaton, zoo
from twa.format import parse, serialize
from twa.oracle import ambiguity, enum_paths, words_upto

print("== the max letter-count automaton ==")
counter = zoo.letter_count_max(("a", "b"))
for word in ("", "ab", "aab", "abbbba"):
    print(f"  value of {word!r:9} = {counter.eval(word)}   (max of #a and #b)")

print()
print("== every successful path, explicitly ==")
amax, _ = zoo.sample_equivalent_pair()
for path, weight in enum_paths(amax, "ab"):
    print("  path", " -> ".join(map(str, path)), "weighs", weight)
print("  the series takes the best one:", amax.eval("ab"))
print("  number of successful paths for 'ab':", ambiguity(amax, "ab"))

print()
print("== trimming ==")
loose = WeightedAutomaton.from_arcs(
    MAX_PLUS,
    "ab",
    4,
    initial=[(0, 0)],
    final=[(1, 0)],
    arcs=[(0, "a", 1, 1), (2, "a", 1, 9), (1, "b", 3, 4)],  # 2 unreachable, 3 dead
)
slim = loose.trim()
print(f"  {loose.n} states before, {slim.n} after; the series is untouched:")
for word in words_upto("ab", 3):
    assert loose.eval(word) == slim.eval(word)
print("  checked on every word up to length 3")

print()
print("== the .twa text format ==")
text = serialize(slim)
print(text)
print("round-trip parses back to the same automaton:", parse(text) == slim)

print("the support is the set of words with a value:")
print("  'a' in it:", slim.eval("a") is not None, "/ 'b' in it:", slim.eval("b") is not None)
