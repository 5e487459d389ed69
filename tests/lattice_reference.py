"""Listing by concatenation and sort: the oracle for lattice._combine.

This is how the class members were combined into vectors before the walk
in coordinate order: every block's members tried group by group in norm
order, each partial vector concatenated at full length, and the finished
vectors sorted by coordinates.
"""


def combine_by_sort(w, target: int, per_block: list) -> list:
    """The block members combined into vectors of doubled norm target.

    per_block is what lattice._class_groups(w) returns; the doubled
    coordinates of each vector, sorted.
    """
    suffix_min = [0] * (w.blocks + 1)
    for b in range(w.blocks - 1, -1, -1):
        suffix_min[b] = suffix_min[b + 1] + min(per_block[b])

    def combine(b, remaining, head, out):
        groups = per_block[b]
        if b == w.blocks - 1:
            for vec in groups.get(remaining, ()):
                out.append(head + vec)
            return
        for q, vecs in groups.items():
            if q + suffix_min[b + 1] > remaining:
                break
            for vec in vecs:
                combine(b + 1, remaining - q, head + vec, out)

    results = []
    combine(0, target, (), results)
    results.sort()
    return results
