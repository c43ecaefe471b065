"""An index of the metatheorems, each a transformer in a module of its own; it
defines nothing.  No module of the package imports it, so a command compiles only
the metatheorem it runs; library callers may import from here."""

from .acceptability import (
    check_acceptable_theory, check_presuppositive, check_well_founded, check_well_founded_theory, down_sets,
)
from .derivation_ops import (
    concat_inst, derivation_nodes, find_congruence, generic_rule_instance, require_substitutive,
)
from .elimination import (
    compose_subst, eliminate_substitution, is_substitution_free, rename_derivation, subst_act_inst,
    substitute_derivation, substitute_equal_derivation,
)
from .inversion import invert, is_canonical_inversion, unique_typing, unique_typing_acceptable
from .presuppositions import (
    BUILTIN_WITNESSES, derive_presuppositions, inst_act_inst, inst_act_subst, instantiate_derivation,
)
from .tightness import check_tight, is_tight, natural_type, theory_tightness
