"""Tour of the exact series algebra underneath everything else.

A monomial u^k v^l t1^m1 t2^m2 ... records one topological type of
bicolored map: k white vertices, l black vertices, and m_i cycles of
length 2i at infinity.  The t-weight sum(i * m_i) is the number of edges.
"""

from fractions import Fraction

from dessins import GradedSeries, genus_of

# the one-edge map: one white vertex, one black vertex, one 2-cycle
seed = GradedSeries.monomial(1, 1, (1,), Fraction(1), truncation=6)
print("seed term:")
print(seed.render())

# products add exponents; coefficients stay exact rationals
square = seed * seed
print("\nseed squared:")
print(square.render())

third = GradedSeries.monomial(2, 1, (0, 1), Fraction(1, 2), truncation=6)
combo = square + third.scaled(4)
print("\nsquare + 4 * (1/2) u^2 v t2:")
print(combo.render())

# formal derivative in t1 and multiplication back by t1
print("\nd/dt1 of the square:", square.diff_t(1).render())
print("t2 * seed:          ", seed.mul_t(2).render())
u = GradedSeries.monomial(1, 0, (), Fraction(1), truncation=6)
print("u * seed:           ", (u * seed).render())

# the genus of a type is fixed by 2g - 2 = d - (k + l + parts)
for key in [(1, 1, (1,)), (1, 1, (0, 0, 1)), (2, 2, (0, 0, 1))]:
    print(f"genus of {key}: {genus_of(key)}")

# truncation: products past the weight bound are dropped exactly
t1 = GradedSeries.monomial(0, 0, (1,), Fraction(1), truncation=2)
t2 = GradedSeries.monomial(0, 0, (0, 1), Fraction(1), truncation=2)
print("\n(t1 + t2) * t1 truncated at weight 2:")
print(((t1 + t2) * t1).render())  # t1*t2 would have weight 3

# canonical text round trip (this is also the cache format)
assert GradedSeries.parse(combo.render(), combo.truncation) == combo
print("\nrender/parse round trip: exact")
