"""Concept-lattice engine for binary object/attribute contexts.

Parse or build a context, enumerate its formal concepts, order them into a
Hasse diagram, and query the result: generalization, specialization,
siblings, distance-ranked similarity, nearest concept for an attribute cue,
and prototype selection.  Ships two prosthetic-arm activity tables as a
bundled corpus.
"""

from importlib import import_module

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


def _lazy_names(scope: dict, homes: dict[str, tuple[str, ...]]):
    """A module ``__getattr__`` (PEP 562) for the names that ``homes`` maps
    submodules of this package to.  The first lookup of a name imports its
    submodule and binds that submodule's names in ``scope``, the module's
    globals, unless bound there already; later lookups are plain globals."""
    module_of = {name: module for module, names in homes.items() for name in names}

    def lookup(name: str):
        if name in scope:
            return scope[name]
        try:
            module = module_of[name]
        except KeyError:
            message = f"module {scope['__name__']!r} has no attribute {name!r}"
            raise AttributeError(message) from None
        home = import_module(f"{__name__}.{module}")
        for other in homes[module]:
            scope.setdefault(other, getattr(home, other))
        return scope[name]

    return lookup


# Every other public name is imported from its submodule on first access, so
# that a command loads only the code it runs.  An unknown name raises
# AttributeError, which lets ``from fca_spaces import cli`` import the submodule.
_HOME = {
    "context": (
        "DOMAIN_TAGS", "AttributeMeta", "FormalContext", "closure_attributes",
        "derive_extent", "derive_intent", "parse_context", "serialize_context",
    ),
    "corpus": (
        "CaseReport", "corpus_context", "golden_csv", "ninapro_abc", "ninapro_grasp",
        "verify_corpus_cases",
    ),
    "enumeration": (
        "FormalConcept", "attribute_concept", "brute_force_concepts", "enumerate_concepts",
        "object_concept",
    ),
    "lattice": ("ConceptLattice", "build_lattice", "export_dot", "export_json"),
    "similarity": (
        "SimilarityResult", "generalize", "intent_jaccard", "lattice_distance",
        "nearest_concept", "prototype", "siblings", "similar_concepts", "specialize",
    ),
}
__getattr__ = _lazy_names(globals(), _HOME)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "__version__",
    *(name for names in _HOME.values() for name in names),
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
