"""Finite workbench for skew lattices, their ordered groupoids, and the
associated two-operation star algebras.

The package builds small structures as integer tables, checks every defining
law exhaustively with reported witnesses, converts between the groupoid and
algebra presentations in both directions, and generates a model suite from
groups acting on skew lattices.
"""

from .algebra import (
    BiBandAlgebra,
    anti_automorphism_witness,
    check_axioms,
    check_skehr,
    idempotent_skeleton,
    inverses_of,
    plus_minus,
)
from .enumeration import (
    DEFAULT_MAX_ORDER,
    enumerate_bands,
    enumerate_skew_lattices,
    labeled_bands,
)
from .errors import (
    ActionInvalidError,
    AxiomViolationError,
    BoundExceededError,
    CompositionAmbiguityError,
    ElementIndexError,
    MalformedSystemError,
    SignatureMismatchError,
    SkeletonNotClosedError,
    SkewalgError,
    UndefinedCompositionError,
)
from .groupoid import (
    FiniteGroupoid,
    check_groupoid,
    discrete_groupoid,
    group_groupoid,
    pair_groupoid,
)
from .isomorphism import (
    Isomorphism,
    automorphisms_of,
    find_isomorphism,
    preserves_operations,
    signature_of,
)
from .models import (
    GROUP_CATALOG,
    GroupAction,
    ModelInstance,
    SemidirectAlgebra,
    check_action,
    congruence_kernels,
    cyclic_group,
    dedupe_actions,
    enumerate_actions,
    generate_model_suite,
    klein_four,
    normal_form_report,
    semidirect_algebra,
    semidirect_groupoid,
    symmetric_group3,
    trivial_action,
)
from .reconstruction import (
    ReconstructedGroupoid,
    reconstruct,
    roundtrip_algebra,
    roundtrip_groupoid,
)
from .report import AxiomReport, Check
from .serialize import (
    load_structure,
    read_structure,
    save_structure,
    structure_from_dict,
    structure_to_dict,
)
from .system import (
    RestrictionSystem,
    build_algebra,
    check_extension_axioms,
    check_linking,
    check_restriction_axioms,
    check_structure,
    discrete_system,
    group_system,
    verify_derived_identities,
)
from .tables import (
    GroupTable,
    OperationTable,
    SkewLatticeTable,
    associativity_witness,
    chain_lattice,
    check_associative,
    check_band,
    check_skew_lattice,
    greens_relations,
    left_zero,
    natural_preorders,
    rectangular_skew,
    right_zero,
)

__version__ = "0.1.0"
