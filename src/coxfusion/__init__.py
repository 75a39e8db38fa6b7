"""Coxeter planes as fixed points of Verlinde-ring hypergroup actions."""

from .coxeter import (
    INFINITE,
    Bipartition,
    CoxeterDiagram,
    CoxeterError,
    CoxeterPlane,
    bipartition,
    cartan_form,
    coxeter_number,
    coxeter_plane,
    diagram,
    parse_diagram,
    project_to_plane,
    root_system,
    rotation_angle,
)
from .fusion_ring import (
    FusionRing,
    FusionRingError,
    even_subring,
    verlinde_ring,
)
from .hypergroup import (
    Hypergroup,
    HypergroupAction,
    action_from_module,
    fixed_space,
    from_fusion_ring,
    verify_hypergroup_axioms,
)
from .report import CheckResult, all_passed
from .verify import (
    TheoremReport,
    check_bifurcation_lemma,
    check_decomposition_lemma,
    check_main_theorem,
    check_regular_split,
    default_roster,
    run_suite,
)
from .zplus_module import (
    AdeModule,
    ZPlusModuleError,
    ade_module,
    decompose,
    regular_element,
    restrict,
)

__version__ = "0.1.0"
