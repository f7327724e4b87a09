"""Check the engine against a permutation-pair brute force.

A bicolored map with d edges is a pair of permutations on d symbols
generating a transitive group: white vertices are the cycles of the
first, black vertices the cycles of the second, and the faces at
infinity the cycles of their product.  Counting labelled pairs and
dividing by d! recovers the automorphism-weighted counts with no
generating functions at all.  The scan runs sigma over one permutation
per cycle type, weighted by the size of its conjugacy class; a plain
pure-Python loop over all d!^2 pairs cross-checks it at small d.
"""

from math import factorial

from dessins import (
    ConnectedSeries,
    compare_with_series,
    cycle_type,
    is_transitive,
    parts_list,
    transitive_pair_counts,
)

# the two permutation statistics driving the binning
sigma, tau = (1, 2, 0, 3), (1, 0, 3, 2)
prod = tuple(sigma[x] for x in tau)
print(f"sigma cycles: {sum(cycle_type(sigma))}, tau cycles: {sum(cycle_type(tau))}")
print(f"profile of sigma*tau: {parts_list(cycle_type(prod))}")
print(f"transitive: {is_transitive(sigma, tau)}\n")

d = 4
oracle = transitive_pair_counts(d)
print(f"degree {d}: {oracle.total} transitive pairs out of {factorial(d)**2}")
print("labelled counts by type (k, l, profile):")
for (k, l, m), count in sorted(oracle.counts.items()):
    profile = ",".join(str(p) for p in parts_list(m))
    print(f"  k={k} l={l} profile={profile:<8} pairs={count:>4}  "
          f"weighted={count}/{factorial(d)}")

# the identical numbers, from the evolution recursion
series = ConnectedSeries.compute(d)
_, diffs = compare_with_series(series, d)
print(f"\nengine vs brute force at degree {d}: "
      f"{'all types agree' if not diffs else diffs}")

# the naive scan visits every one of the d!^2 pairs, no class weights,
# and gives the identical table (it stops at d = 5, the scan at d = 9)
assert transitive_pair_counts(d, "naive").counts == oracle.counts
print("class-reduced scan agrees with the naive all-pairs scan")
