"""rotamap: rotation groups of chiral and regular polytopes.

Coset enumeration for finitely presented groups, polytopality and
chirality tests for rank-3 and rank-4 rotation groups, self-duality
detection, and the mixing constructions that turn self-dual rank-4
groups into skew maps.
"""

from .engine import (
    DEFAULT_CAP,
    Basis,
    CosetTable,
    GroupRep,
    SubgroupHandle,
    enumerate_group,
)
from .errors import (
    CapExceededError,
    CollapseError,
    ConstructionError,
    InconsistencyError,
    NotPolytopalError,
    NotSelfDualError,
    ParseError,
    RotamapError,
)
from .words import (
    Presentation,
    Word,
    parse_presentation,
    serialize_presentation,
    substitute,
)
from .rotary import (
    AnalysisReport,
    Chirality,
    InvolutionReport,
    MapInvariants,
    RegularCGroup4,
    RegularMap3,
    RotationGroup3,
    RotationGroup4,
    check_polytopal3,
    check_polytopal4,
    classify3,
    classify4,
    euler_genus,
    f_vector3,
    group_class,
    hole_length,
    involution_report,
    is_reflexible3,
    is_reflexible4,
    load_group,
    map_invariants3,
    map_invariants_regular,
    map_report3,
    map_report_regular,
    petrie4,
    rank4_report,
    rotation_subgroup,
    schlafli,
    zigzag_length,
)
from .selfdual import (
    DualityKind,
    ExtendedGroup,
    SelfDualityClass,
    detect_self_duality,
    extend_improper,
    extend_polarity,
    extend_proper,
    find_polarity,
)
from .constructions import (
    CatalogEntry,
    LocallyToroidalSpec,
    TorusFamily,
    catalog,
    compute_entry_report,
    lattice_torus_oracle,
    locally_toroidal,
    locally_toroidal_presentation,
    pc_map_improper,
    pc_map_proper,
    pc_map_regular,
    petrie_coxeter,
    petrie_quotient,
    report,
    simplex_presentation,
    torus_map,
    torus_presentation,
    verify_catalog_entry,
)

__version__ = "0.1.0"
