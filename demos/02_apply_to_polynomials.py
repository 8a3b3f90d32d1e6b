"""Apply W-operators to polynomials in p_1, p_2, ... with exact rationals.

W([1]) is the grading operator (it multiplies a homogeneous polynomial by
its weight), and W([2]) is exactly Goulden-Jackson's cut-and-join operator
Delta = 1/2 sum_{i,j} ((i+j) p_i p_j d/dp_{i+j} + i j p_{i+j} d^2/dp_i dp_j),
so that W([2]) p1*p2 = p1^3 + 2*p3.  All coefficients below are exact
fractions; no floating point is involved.
"""

from fractions import Fraction

from woplab import Permutation, apply_template, apply_W, parse_p, print_p, summation_of

for n, text in [(1, "p2*p3"), (2, "p1^3"), (2, "p2"), (3, "p1^3"), (3, "p3")]:
    F = parse_p(text)
    print(f"W([{n}]) {text:8} = {print_p(apply_W(n, F))}")

print()
print("A single summation, with the 1/n prefactor supplied at application:")
beta = Permutation.parse("(321)")
t = summation_of(beta)
F = parse_p("p1^3")
result = Fraction(1, 3) * apply_template(t, F)
print(f"(1/3) FS_{beta} p1^3 = {print_p(result)}")

print()
print("Weight is preserved: W([n]) maps weight-w polynomials to weight-w ones.")
F = parse_p("p1^2*p2+p4")
out = apply_W(3, F)
print(f"W([3]) ({print_p(F)}) = {print_p(out)}   (weight {out.weight()})")
