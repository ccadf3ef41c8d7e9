"""buckettrees: bucket increasing tree families, exactly and at scale.

Growth-process samplers, an exact-rational enumeration oracle, spectral
machinery for the indicial equation, exact bucket-size / descendant /
saturation / out-degree distributions, Polya urn representations, and
bijections to increasing diamonds and clustered increasing trees.
"""

from .families import FamilySpec, ary, linear, parse_family, port, recursive
from .grow import RngStream, sample_census, sample_tree
from .pmf import Pmf
from .trees import (BucketNode, BucketTree, canonicalize, census, decode, encode,
                    from_doc, to_doc)

__version__ = "0.1.0"

__all__ = [
    "FamilySpec", "ary", "linear", "parse_family", "port", "recursive",
    "RngStream", "sample_census", "sample_tree",
    "Pmf",
    "BucketNode", "BucketTree", "canonicalize", "census", "decode", "encode",
    "from_doc", "to_doc",
    "__version__",
]
