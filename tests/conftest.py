"""Shared helpers: published reference data, relabeling equivalence and the
index tuples of a summation."""

import itertools

from woplab.summation import _canonical_blocks


def canon(blocks):
    return _canonical_blocks(blocks)


def relabel_blocks(blocks, sigma):
    """Apply the index renaming sigma (1-indexed image tuple) to a partition."""
    return canon(tuple(tuple(sigma[v - 1] for v in b) for b in blocks))


def equivalent_up_to_relabeling(n, pair_a, pair_b):
    """Whether two (cycle partition, derivative partition) pairs agree after a
    simultaneous renaming of the bound summation indices k_1..k_n."""
    pair_b = (canon(pair_b[0]), canon(pair_b[1]))
    for sigma in itertools.permutations(range(1, n + 1)):
        if (
            relabel_blocks(pair_a[0], sigma) == pair_b[0]
            and relabel_blocks(pair_a[1], sigma) == pair_b[1]
        ):
            return True
    return False


# The six summations of W([3]) as displayed in the literature, transcribed as
# (cycle partition, derivative partition) pairs over the printed indices
# i_1, i_2, i_3, keyed by the owning permutation in canonical cycle notation
# (so the descending 3-cycle (321) prints as "(1 3 2)").
W3_DISPLAY = {
    "(1 3 2)": ([[1, 2, 3]], [[1], [2], [3]]),
    "(1 3)(2)": ([[1, 3], [2]], [[1], [2, 3]]),
    "(1 2)(3)": ([[1, 2], [3]], [[2], [1, 3]]),
    "(1)(2 3)": ([[1], [2, 3]], [[3], [1, 2]]),
    "(1)(2)(3)": ([[1], [2], [3]], [[1, 2, 3]]),
    "(1 2 3)": ([[1, 2, 3]], [[1, 2, 3]]),
}


def index_tuples(n, bound):
    """All (k_1..k_n) with k_i >= 1 and sum at most bound."""
    for total in range(n, bound + 1):
        for cuts in itertools.combinations(range(1, total), n - 1):
            bounds = (0,) + cuts + (total,)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))
