"""Exact computation in finite rings.

The pieces fit together like this: ``exprs`` parses construction
expressions ("Z36", "M(2, Z4)", ...) and elaborates them into ``rings``
objects; ``ideals`` enumerates and manipulates two-sided ideals;
``radicals`` computes the Jacobson and prime radicals; ``subsets``
handles multiplicative subsets and m-systems; ``predicates`` runs the
membership-forcing checks relative to such subsets; ``harness`` verifies
the law registry over a ring corpus; ``cli`` fronts it all from the
command line.
"""

from .errors import (
    CapacityExceeded,
    InvalidIdeal,
    InvalidParameter,
    InvalidSubset,
    NotApplicable,
    NotDisjoint,
    ParseError,
    RinglabError,
)
from .exprs import (
    build_ideal,
    build_ring,
    build_subset,
    element_index,
    parse_element,
    parse_ideal_spec,
    parse_ring_expr,
    parse_subset_spec,
    print_ring,
)
from .rings import (
    canonical_surjection,
    center_mask,
    make_cyclic_module,
    make_ideal_as_ring,
    make_idealization,
    make_matrix_ring,
    make_product,
    make_truncated_poly,
    make_zn,
)
from .ideals import (
    IdealSet,
    enumerate_ideals,
    ideal_generate,
    minimal_generating_set,
    principal_ideal,
)
from .radicals import jacobson_radical, prime_radical
from .subsets import SubsetS, generated_subset
from .predicates import (
    is_J_ideal,
    is_S_J_ideal,
    is_S_n_ideal,
    is_S_prime,
    is_n_ideal,
    is_right_S_J_ideal,
    is_right_S_prime,
)
from .harness import build_corpus, run_worked_examples, verify_properties

__version__ = "0.1.0"

__all__ = [
    "CapacityExceeded",
    "IdealSet",
    "InvalidIdeal",
    "InvalidParameter",
    "InvalidSubset",
    "NotApplicable",
    "NotDisjoint",
    "ParseError",
    "RinglabError",
    "SubsetS",
    "build_corpus",
    "build_ideal",
    "build_ring",
    "build_subset",
    "canonical_surjection",
    "center_mask",
    "element_index",
    "enumerate_ideals",
    "generated_subset",
    "ideal_generate",
    "is_J_ideal",
    "is_S_J_ideal",
    "is_S_n_ideal",
    "is_S_prime",
    "is_n_ideal",
    "is_right_S_J_ideal",
    "is_right_S_prime",
    "jacobson_radical",
    "make_cyclic_module",
    "make_ideal_as_ring",
    "make_idealization",
    "make_matrix_ring",
    "make_product",
    "make_truncated_poly",
    "make_zn",
    "minimal_generating_set",
    "parse_element",
    "parse_ideal_spec",
    "parse_ring_expr",
    "parse_subset_spec",
    "principal_ideal",
    "prime_radical",
    "print_ring",
    "run_worked_examples",
    "verify_properties",
    "__version__",
]
