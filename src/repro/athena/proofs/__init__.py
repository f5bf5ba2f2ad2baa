"""Generic proofs: written once, instantiated for every model.

"In such a system, proofs can themselves be generic components, in the
sense that one can express a proof once and subsequently instantiate it
many times to prove more specific cases, in much the same way as one does
with generic algorithms."
"""

from .. import lazy_exports

#: Each public name, by the proof module that defines it; a module loads
#: on first use of one of its names (PEP 562).
_MODULE_OF = {
    "prove_equiv_reflexive": ".strict_weak_order",
    "prove_equiv_symmetric": ".strict_weak_order",
    "prove_equivalence_properties": ".strict_weak_order",
    "prove_left_inverse": ".group_theory",
    "prove_left_identity": ".group_theory",
    "prove_inverse_involution": ".group_theory",
    "prove_group_theorems": ".group_theory",
    "prove_mul_zero": ".ring_theory",
    "prove_ring_theorems": ".ring_theory",
    "ring_session": ".ring_theory",
    "prove_reaches_kth_successor": ".range_theory",
    "range_session": ".range_theory",
}


__getattr__, __dir__ = lazy_exports(__name__, _MODULE_OF)

__all__ = list(_MODULE_OF)
