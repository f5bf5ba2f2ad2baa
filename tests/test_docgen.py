"""Tests for the concept documentation generator."""

import os
import pathlib
import subprocess
import sys

import repro
import repro.graphs  # noqa: F401 - declares models shown in the reference
import repro.linalg  # noqa: F401
import repro.sequences  # noqa: F401
from repro.concepts import (
    Concept,
    Param,
    concept_figure,
    concept_reference,
    method,
    refinement_lattice,
)
from repro.concepts.builtins import (
    Container,
    ForwardContainer,
    ForwardIterator,
    InputIterator,
    SortedRange,
    StrictWeakOrder,
)
from repro.concepts.docgen import standard_reference
from repro.graphs import GraphEdge, IncidenceGraph


class TestConceptFigure:
    def test_fig1_shape(self):
        text = concept_figure(GraphEdge)
        assert "Expression" in text
        assert "Edge::vertex_type" in text
        assert "source(e)" in text
        assert "Type Edge models Graph Edge" in text

    def test_fig2_includes_constraints(self):
        text = concept_figure(IncidenceGraph)
        assert "out_edge_iterator::value_type == Graph::edge_type" in text
        assert "models Graph Edge" in text

    def test_custom_caption(self):
        text = concept_figure(GraphEdge, caption="my caption")
        assert text.endswith("my caption\n(" + GraphEdge.doc + ")")


class TestLattice:
    def test_parent_child_indentation(self):
        text = refinement_lattice([InputIterator, ForwardIterator])
        lines = text.splitlines()
        i_in = next(i for i, l in enumerate(lines) if l.strip() == "Input Iterator")
        i_fw = next(i for i, l in enumerate(lines) if l.strip() == "Forward Iterator")
        assert i_fw > i_in
        assert lines[i_fw].startswith("  ")

    def test_external_parents_become_roots(self):
        # ForwardIterator's parent isn't in the set: it renders as a root.
        text = refinement_lattice([ForwardIterator])
        assert text.strip() == "Forward Iterator"


class TestReference:
    def test_includes_axioms_and_guarantees(self):
        text = concept_reference([StrictWeakOrder, Container])
        assert "irreflexivity" in text
        assert "Complexity guarantees" in text
        assert "size in O(1)" in text

    def test_nominal_flagged(self):
        text = concept_reference([ForwardContainer, SortedRange])
        assert "nominal concept" in text

    def test_declared_models_listed(self):
        from repro.concepts.builtins import RandomAccessContainer

        # Vector is declared at RandomAccessContainer level; the reference
        # lists it under Container via refinement.
        text = concept_reference([Container, RandomAccessContainer])
        assert "Vector" in text

    def test_standard_reference_covers_all_domains(self):
        text = standard_reference()
        for needle in ("Incidence Graph", "Vector Space", "Banded Matrix",
                       "Strict Weak Order", "Sorted Associative Container"):
            assert needle in text, needle
        assert len(text.splitlines()) > 300


def test_concepts_md_is_the_standard_reference():
    """CONCEPTS.md is ``standard_reference()`` as a fresh interpreter
    renders it, so models that other tests register cannot leak in."""
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", "from repro.concepts.docgen import "
         "standard_reference; print(standard_reference())"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    header = ("Generated by the Caramel-style docgen: "
              "`repro.concepts.docgen.standard_reference()`\n\n")
    committed = pathlib.Path(__file__).resolve().parent.parent / "CONCEPTS.md"
    assert committed.read_text() == header + proc.stdout, (
        "CONCEPTS.md is stale: regenerate it from standard_reference()")
