#!/usr/bin/env python3
"""Recompute the reference centralizer table from scratch.

For each of the eight normal forms the jet kernel at N=6 is compared with
the tabulated generators: certified dimension, per-degree table, generic
rank and the stabilization verdict.  Everything is exact; runtimes are
printed so regressions stand out.
"""

import time
from fractions import Fraction

from germfield import ad_kernel, linear_centralizer_table, span_matches
from germfield.gaussian import gq
from germfield.parsing import field_to_text

PARAMS = {
    1: {},
    2: {"ratio": gq(Fraction(5, 3))},
    3: {"p": 1, "q": 1},
    4: {},
    5: {"n": 2},
    6: {},
    7: {},
    8: {"p": 1, "residue": gq(0)},
}

N = 6


def main():
    for row, params in PARAMS.items():
        table = linear_centralizer_table(row, max_degree=N, **params)
        t0 = time.perf_counter()
        rep = ad_kernel(table.field, N)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        agree = span_matches(rep.basis_fields(), table.generator_jets(N), N)
        dim_text = table.dimension if table.dimension is not None else "inf"
        print(f"row {row}:  X = {field_to_text(table.field)}")
        print(
            f"  kernel dim {rep.dimension()} (tabulated d = {dim_text}), "
            f"rank {rep.rank_estimate}, verdict {rep.stabilization}, "
            f"span match {agree}, {elapsed_ms:.1f} ms"
        )
        print(f"  degree table {dict(sorted(rep.dims.items()))}")
        if rep.tentative:
            print(f"  tentative jets: {len(rep.tentative)}")
    print()
    print("kernels recomputed exactly; 'span match' compares against the")
    print("tabulated generators truncated at degree", N)


if __name__ == "__main__":
    main()
