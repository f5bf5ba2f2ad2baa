"""The sequential algorithm concept taxonomy for STL-domain algorithms.

Section 1: "We began by developing sequential algorithm concept taxonomies
for two fundamental problem domains, sequence algorithms from the STL and
graph algorithms from BGL. ... making distinctions between some of the
algorithms in these domains requires more precision."

This module builds that taxonomy as data: every sequence algorithm in
:mod:`repro.sequences.algorithms` classified by problem, constrained by the
iterator/container concepts it requires, and annotated with the complexity
guarantees that *distinguish* refinements (find vs binary_search differ in
comparisons; sort vs stable_sort differ in a postcondition, not a bound).
"""

from __future__ import annotations

from typing import Optional

from ..concepts import AlgorithmConcept, Constraint, Param, Taxonomy
from ..concepts.builtins import (
    BidirectionalIterator,
    ContiguousContainer,
    ForwardIterator,
    InputIterator,
    PersistentContainer,
    RandomAccessContainer,
    RandomAccessIterator,
    Sequence,
    SortedRange,
)
from ..concepts.complexity import (
    constant,
    linear,
    linearithmic,
    logarithmic,
    quadratic,
)
from . import algorithms as A
from .backends.contiguous import ContiguousStorage
from .backends.sqlite_store import SqliteStorage
from .heap import heapsort
from .storage import (
    DequeStorage,
    LinkedStorage,
    ListStorage,
    StorageCapabilities,
)

It = Param("It")
C = Param("C")

#: STLlint container kinds mapped to the capability record of the storage
#: backing that kind — how a static annotation (``def f(s: "sqlite")``)
#: reaches the io/cpu-weighted selection path.
KIND_CAPABILITIES: dict[str, StorageCapabilities] = {
    "vector": ListStorage.capabilities,
    "deque": DequeStorage.capabilities,
    "list": LinkedStorage.capabilities,
    "contig": ContiguousStorage.capabilities,
    "sqlite": SqliteStorage.capabilities,
}


def kind_weights(kind: Optional[str],
                 cpu_resource: str = "comparisons") -> Optional[dict[str, float]]:
    """Resource weights for io/cpu-aware selection on a container kind:
    one unit per cpu operation, ``io_cost_per_op`` units per backend
    round trip.  Returns None for RAM-resident kinds (and unknown ones),
    which keeps their selection on the classic single-resource path."""
    caps = KIND_CAPABILITIES.get(kind or "")
    if caps is None or caps.io_cost_per_op <= 0:
        return None
    return {cpu_resource: 1.0, "io_ops": caps.io_cost_per_op}

#: Source-level call names (the STLlint subset / repro.sequences spelling)
#: mapped to the taxonomy concept analyzed for them — the bridge the
#: optimizer crosses from a call site to data-driven selection.
CALL_TO_CONCEPT: dict[str, str] = {
    "find": "find",
    "binary_search": "binary_search",
    "lower_bound": "lower_bound",
    "sort": "quicksort",
    "stable_sort": "stable merge sort",
    "max_element": "max_element",
    "min_element": "min_element",
    "accumulate": "accumulate",
    "count": "count",
    "indexed_find": "indexed lookup",
    "backend_sort": "backend sort",
}

#: ...and back: the call name that realizes a taxonomy concept in source.
CONCEPT_TO_CALL: dict[str, str] = {v: k for k, v in CALL_TO_CONCEPT.items()}


def stl_taxonomy() -> Taxonomy:
    """Build the STL-domain taxonomy (fresh instance; cheap)."""
    t = Taxonomy("STL sequence algorithms")
    t.add_concepts([
        InputIterator, ForwardIterator, BidirectionalIterator,
        RandomAccessIterator, Sequence, RandomAccessContainer,
        ContiguousContainer, PersistentContainer, SortedRange,
    ])

    # -- search problem -----------------------------------------------------
    # The second cost dimension: "io_ops" counts round trips to the
    # backing store (every deref/compare on a remote representation is
    # one), priced against cpu operations by kind_weights().
    find = t.add_algorithm(AlgorithmConcept(
        "find", problem="search",
        requires=(Constraint(InputIterator, (It,)),),
        guarantees={"comparisons": linear(), "traversals": linear(),
                    "io_ops": linear()},
        implementation=A.find,
        result="position",
        doc="Linear search; the least-demanding search algorithm.",
    ))
    t.add_algorithm(AlgorithmConcept(
        "binary_search", problem="search",
        requires=(Constraint(ForwardIterator, (It,)),
                  Constraint(SortedRange, (C,))),
        guarantees={"comparisons": logarithmic(), "io_ops": logarithmic()},
        refines=(find,),
        implementation=A.binary_search,
        requires_properties=("sorted",),
        result="bool",
        doc="Refines find: stronger precondition (sortedness) buys "
            "logarithmic comparisons.",
    ))
    t.add_algorithm(AlgorithmConcept(
        "lower_bound", problem="search",
        requires=(Constraint(ForwardIterator, (It,)),
                  Constraint(SortedRange, (C,))),
        guarantees={"comparisons": logarithmic(), "io_ops": logarithmic()},
        implementation=A.lower_bound,
        requires_properties=("sorted",),
        result="position",
        doc="Position query on sorted ranges.",
    ))
    t.add_algorithm(AlgorithmConcept(
        "indexed lookup", problem="search",
        requires=(Constraint(PersistentContainer, (C,)),
                  Constraint(SortedRange, (C,))),
        guarantees={"comparisons": logarithmic(), "io_ops": constant()},
        refines=(find,),
        implementation=A.indexed_find,
        requires_properties=("sorted",),
        requires_capabilities=("persistent",),
        result="position",
        doc="Search through the backend's value index: the comparisons "
            "happen inside the store, so the caller pays O(1) round "
            "trips — cheaper than lower_bound's O(log n) trips exactly "
            "when io dominates, which is what the weighted selection "
            "expresses.",
    ))

    # -- extremum problem ------------------------------------------------------
    t.add_algorithm(AlgorithmConcept(
        "max_element", problem="extremum",
        requires=(Constraint(ForwardIterator, (It,)),),
        guarantees={"comparisons": linear()},
        implementation=A.max_element,
        result="position",
        doc="Requires Forward (multipass), not just Input — the Section "
            "3.1 distinction.",
    ))
    t.add_algorithm(AlgorithmConcept(
        "min_element", problem="extremum",
        requires=(Constraint(ForwardIterator, (It,)),),
        guarantees={"comparisons": linear()},
        implementation=A.min_element,
        result="position",
    ))

    # -- accumulation -----------------------------------------------------------
    t.add_algorithm(AlgorithmConcept(
        "accumulate", problem="accumulation",
        requires=(Constraint(InputIterator, (It,)),),
        guarantees={"operations": linear()},
        implementation=A.accumulate,
        result="value",
    ))
    t.add_algorithm(AlgorithmConcept(
        "count", problem="accumulation",
        requires=(Constraint(InputIterator, (It,)),),
        guarantees={"comparisons": linear()},
        implementation=A.count,
        result="value",
    ))

    # -- sorting: where precision beyond O-bounds earns its keep ----------------
    sort_seq = t.add_algorithm(AlgorithmConcept(
        "merge sort", problem="sorting",
        requires=(Constraint(Sequence, (C,)),),
        guarantees={"comparisons": linearithmic(), "extra space": linear(),
                    "io_ops": linear()},
        implementation=A.stable_sort,
        establishes=("sorted",),
        destroys=("heap", "heap-except-last"),
        doc="The linear-access default; pays O(n) scratch space.",
    ))
    t.add_algorithm(AlgorithmConcept(
        "quicksort", problem="sorting",
        requires=(Constraint(RandomAccessContainer, (C,)),),
        guarantees={"comparisons": linearithmic(),
                    "extra space": logarithmic(),
                    "io_ops": linearithmic()},
        implementation=lambda c: A.sort(c),
        establishes=("sorted",),
        destroys=("heap", "heap-except-last"),
        doc="Same comparison bound as merge sort; distinguished by the "
            "extra-space guarantee — the 'more precision' the paper wants.",
    ))
    t.add_algorithm(AlgorithmConcept(
        "backend sort", problem="sorting",
        requires=(Constraint(PersistentContainer, (C,)),),
        guarantees={"comparisons": linearithmic(),
                    "extra space": linear(),
                    "io_ops": constant()},
        implementation=A.backend_sort,
        establishes=("sorted",),
        destroys=("heap", "heap-except-last"),
        requires_capabilities=("persistent",),
        doc="Delegate the whole reorder to the backing store (one ORDER "
            "BY statement): same comparison bound, O(1) round trips "
            "where element-swapping sorts pay a trip per access.",
    ))
    t.add_algorithm(AlgorithmConcept(
        "stable merge sort", problem="sorting",
        requires=(Constraint(Sequence, (C,)),),
        guarantees={"comparisons": linearithmic(), "extra space": linear()},
        refines=(sort_seq,),
        implementation=A.stable_sort,
        establishes=("sorted",),
        destroys=("heap", "heap-except-last"),
        doc="Refines merge sort with a stability postcondition at the same "
            "bounds.",
    ))
    t.add_algorithm(AlgorithmConcept(
        "heapsort", problem="sorting",
        requires=(Constraint(RandomAccessContainer, (C,)),),
        guarantees={"comparisons": linearithmic(), "extra space": constant(),
                    "io_ops": linearithmic()},
        implementation=heapsort,
        establishes=("sorted",),
        destroys=("heap", "heap-except-last"),
        doc="In-place O(1)-space O(n log n) — but not stable; the sorting "
            "design space's third corner.",
    ))
    t.add_algorithm(AlgorithmConcept(
        "insertion sort", problem="sorting",
        requires=(Constraint(BidirectionalIterator, (It,)),),
        guarantees={"comparisons": quadratic(), "extra space": constant(),
                    "io_ops": quadratic()},
        implementation=A.insertion_sort_range,
        establishes=("sorted",),
        destroys=("heap", "heap-except-last"),
        doc="O(1) space, O(n^2) comparisons: the honest in-place "
            "linear-access option.",
    ))

    # -- a deliberate gap: in-place stable O(n log n) sort with O(1) space ------
    t.add_algorithm(AlgorithmConcept(
        "in-place stable sort", problem="sorting",
        requires=(Constraint(RandomAccessContainer, (C,)),),
        guarantees={"comparisons": linearithmic(), "extra space": constant()},
        implementation=None,
        doc="Block-merge sorts exist but none is implemented here — a "
            "taxonomy 'gap' entry of the kind that 'helps in the design of "
            "new ones'.",
    ))
    return t
