"""Decidable embedding criteria for amalgams of compact groups.

Exact computational criteria for when a pushout of compact groups embeds
into its compact reflection: character-theoretic finiteness checks,
integer matrix group finiteness, amalgam normal forms with coproduct
pseudometrics, and center arithmetic for quotient presentations of
connected groups.
"""

from .errors import BohrsoundError
from .groups import (
    FiniteAbelian,
    FiniteGroup,
    GroupHom,
    Subgroup,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    group_from_table,
    heisenberg,
    klein_four,
    semidirect,
    symmetric,
    trivial_group,
)
from .characters import (
    CharacterTable,
    EqualizerWitness,
    character_table,
    clifford_multiplicity,
    equalizer_witness,
    fin_check,
    restriction_multiplicity,
    splitting_prime,
)
from .zmat import (
    FixedStructure,
    MatrixGroupResult,
    abelian_embeds,
    char_orbit,
    coproduct_orbit_obstruction,
    element_order,
    fixed_subgroup_structure,
    generated_group,
    minkowski_bound,
    smith_normal_form,
    torus_soundness,
)
from .amalgam import (
    AmalgamSpec,
    BohrLipschitzRecord,
    FiniteTarget,
    LengthFunction,
    MatrixTarget,
    NormalForm,
    TorusSemidirectTarget,
    bohr_lipschitz_check,
    coproduct_pseudometric,
    discrete_length,
    eval_hom,
    free_product,
    intersection_check,
    length_function_validate,
    normal_form,
    padded_regular_representation,
    pseudometric_distance,
    regular_pullback_length,
    sl2z_amalgam,
    sl2z_matrix_target,
    split_decomposition_check,
    word_equal,
)
from .lie import (
    ConditionsReport,
    LargestCompactVerdict,
    LieDatum,
    SimpleType,
    achievable_center_autos,
    compactness_conditions,
    largest_compact_verdict,
    lie_center,
    simple_type,
    torus2_automorphism_family_witness,
    torus_image_invariants,
)
from .soundness import SoundnessVerdict, soundness_verdict

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
