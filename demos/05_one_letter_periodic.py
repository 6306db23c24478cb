"""A one-letter series where both representations are large but equal.

The series combines "best divisor among {2,3}" with "cheapest divisor among
{5,7}" (zero when either is missing): the natural max-plus automaton needs
175 states, the natural min-plus one 72, and the extracted 1-valued automaton
repeats with period 210.

Run:  python3 demos/05_one_letter_periodic.py
"""

import time

from twa import decide_series_equal, extract_one_valued, zoo

tmax, tmin = zoo.prime_period_pair(2, 3, 5, 7)
print(f"max-plus representation: {tmax.n} states")
print(f"min-plus representation: {tmin.n} states")

start = time.perf_counter()
print("deciding equality of the two series:", decide_series_equal(tmax, tmin))
print(f"  ({time.perf_counter() - start:.2f}s)")

start = time.perf_counter()
one_valued = extract_one_valued(tmax, tmin)
print(f"1-valued automaton extracted: {one_valued.n} states "
      f"({time.perf_counter() - start:.2f}s)")

print()
print("first values of the series (dot = not in the support):")
row = []
for n in range(43):
    value = one_valued.eval("a" * n)
    row.append("." if value is None else str(value))
print("  n : " + " ".join(f"{n:>2}" for n in range(43)))
print("  T : " + " ".join(f"{v:>2}" for v in row))

print()
values = [one_valued.eval("a" * n) for n in range(421)]
closed = [zoo.prime_period_value(n) for n in range(421)]
print("matches the closed form for n <= 420:", values == closed)
print("periodic with period 210 on that range:",
      all(values[n] == values[n + 210] for n in range(211)))
