"""Athena-style Denotational Proof Language (Section 3.3): assumption base,
primitive deductions, first-class methods, theories as operator-mapped
functions, and generic proofs instantiated per model.

Quick use::

    from repro.athena import OrderSig, prove_equivalence_properties

    pf, theorems = prove_equivalence_properties(OrderSig("<"))
    # theorems: E reflexive, E symmetric (derived), E transitive (axiom)
"""

import sys
from importlib import import_module
from typing import Any

#: Each public name, by the module (relative to this package) that
#: defines it.  A module loads on first use of one of its names (PEP 562),
#: so importing one proof does not load every theory's proofs.
_EXPORTS = {
    ".terms": ("App", "Term", "Var", "const", "replace_subterm"),
    ".props": ("And", "Atom", "Exists", "Falsity", "Forall", "Iff",
               "Implies", "Not", "Or", "Prop", "equals", "forall", "holds",
               "open_forall"),
    ".proof": ("AssumptionBase", "Proof", "ProofError"),
    ".methods": ("Method", "method", "conj_swap", "conj_idem",
                 "hypothetical_syllogism", "forward_chaining_search"),
    ".theories": ("OrderSig", "GroupSig", "RingSig", "VectorSpaceSig",
                  "RangeSig", "THEORIES", "strict_weak_order_axioms",
                  "strict_partial_order_axioms", "total_order_axioms",
                  "semigroup_axioms", "monoid_axioms", "group_axioms",
                  "abelian_axioms", "ring_axioms", "field_axioms",
                  "vector_space_axioms", "range_axioms"),
    ".proofs.strict_weak_order": ("prove_equiv_reflexive",
                                  "prove_equiv_symmetric",
                                  "prove_equivalence_properties",
                                  "swo_session", "instance_of"),
    ".proofs.group_theory": ("prove_left_inverse", "prove_left_identity",
                             "prove_inverse_involution",
                             "prove_group_theorems", "group_session"),
    ".proofs.ring_theory": ("prove_mul_zero", "prove_ring_theorems"),
    ".proofs.range_theory": ("range_session", "prove_reaches_kth_successor"),
    ".instantiation": ("InstanceReport", "instantiate_group_proofs",
                       "sig_for_structure"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}


def lazy_exports(package: str, module_of: dict) -> tuple:
    """PEP 562 ``__getattr__`` and ``__dir__`` for ``package``, which
    re-exports each name in ``module_of`` from the module named there
    (relative to ``package``), importing that module on first use."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = module_of.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module, package),
                                          name)
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(module_of))

    return __getattr__, __dir__


__getattr__, __dir__ = lazy_exports(__name__, _MODULE_OF)
__all__ = list(_MODULE_OF)
