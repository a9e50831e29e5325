"""Concept-lattice engine for binary object/attribute contexts.

Parse or build a context, enumerate its formal concepts, order them into a
Hasse diagram, and query the result: generalization, specialization,
siblings, distance-ranked similarity, nearest concept for an attribute cue,
and prototype selection.  Ships two prosthetic-arm activity tables as a
bundled corpus.
"""

from .context import (
    DOMAIN_TAGS,
    AttributeMeta,
    FormalContext,
    closure_attributes,
    derive_extent,
    derive_intent,
    parse_context,
    serialize_context,
)
from .corpus import (
    CaseReport,
    corpus_context,
    golden_csv,
    ninapro_abc,
    ninapro_grasp,
    verify_corpus_cases,
)
from .enumeration import (
    FormalConcept,
    attribute_concept,
    brute_force_concepts,
    enumerate_concepts,
    object_concept,
)
from .errors import (
    BadArgument,
    BadId,
    BadIndex,
    ContextError,
    DuplicateName,
    EmptyCategory,
    FcaError,
    InvalidName,
    MalformedCell,
    MixedContext,
    RaggedRow,
)
from .lattice import ConceptLattice, build_lattice, export_dot, export_json
from .similarity import (
    SimilarityResult,
    generalize,
    intent_jaccard,
    lattice_distance,
    nearest_concept,
    prototype,
    siblings,
    similar_concepts,
    specialize,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DOMAIN_TAGS",
    "AttributeMeta",
    "FormalContext",
    "FormalConcept",
    "ConceptLattice",
    "SimilarityResult",
    "CaseReport",
    "parse_context",
    "serialize_context",
    "derive_intent",
    "derive_extent",
    "closure_attributes",
    "enumerate_concepts",
    "brute_force_concepts",
    "object_concept",
    "attribute_concept",
    "build_lattice",
    "export_json",
    "export_dot",
    "generalize",
    "specialize",
    "siblings",
    "lattice_distance",
    "similar_concepts",
    "intent_jaccard",
    "nearest_concept",
    "prototype",
    "corpus_context",
    "golden_csv",
    "ninapro_abc",
    "ninapro_grasp",
    "verify_corpus_cases",
    "FcaError",
    "ContextError",
    "DuplicateName",
    "InvalidName",
    "MalformedCell",
    "RaggedRow",
    "BadIndex",
    "BadId",
    "BadArgument",
    "MixedContext",
    "EmptyCategory",
]
