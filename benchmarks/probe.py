"""Set-up probe: import the package and make one tiny first call per layer.

`run.py` starts this script several times in fresh interpreters and
reports the median wall time as `setup_s`; it also calls `warm_up()` in its
own process before timing, so lazy imports are not billed to the first op.
The calls are tiny on purpose: the enumeration calls stay at sizes where a
tree is a single bucket, so the oracle workload's cache still starts cold.

    python3 benchmarks/probe.py
"""

from __future__ import annotations

import sys

import common


def warm_up() -> None:
    common.use_checkout_source()
    import mpmath  # noqa: F401
    import numpy as np
    import scipy  # noqa: F401
    from buckettrees import (bijections, dist_desc, dist_k, enumeration, families,
                             gof, grow, montecarlo, pmf, spectral, trees, urns)
    spec = families.recursive(2)
    tree = grow.sample_tree(spec, 6, 0)
    trees.decode(trees.encode(tree), 2)
    families.total_weight_closed(spec, 4)
    spectral.indicial_roots(2, 0)
    dist_k.pmf_K(spec, 4)
    dist_desc.pmf_Y(spec, 5, 3)
    pmf.mixture([(1, pmf.point_mass(1))])
    urns.simulate_urn(urns.build_urn(spec), 4, 0)
    montecarlo.sample_K(spec, 4, 8, 0)
    gof.kolmogorov_smirnov(np.array([0.2, 0.5, 0.8]), lambda x: x)
    enumeration.enumerate_trees(spec, 2)
    bijections.bucket_to_diamond(enumeration.all_trees(2, 2)[0])


if __name__ == "__main__":
    try:
        warm_up()
    except common.SourceMissing as exc:
        print(f"probe: {exc}", file=sys.stderr)
        sys.exit(2)
