import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rotamap import (
    ExtendedGroup,
    LocallyToroidalSpec,
    RegularCGroup4,
    RegularMap3,
    RotationGroup3,
    RotationGroup4,
    TorusFamily,
    enumerate_group,
    extend_improper,
    extend_polarity,
    extend_proper,
    locally_toroidal,
    pc_map_improper,
    pc_map_proper,
    pc_map_regular,
    petrie_quotient,
    simplex_presentation,
)


@dataclass
class ImproperPipe:
    base: RotationGroup4
    ext: ExtendedGroup
    map3: RotationGroup3


@dataclass
class ProperPipe:
    base: RotationGroup4
    ext: ExtendedGroup
    map3: RegularMap3


def _improper_pipe(base: RotationGroup4) -> ImproperPipe:
    ext = extend_improper(base)
    return ImproperPipe(base, ext, pc_map_improper(ext))


def _proper_pipe(base: RotationGroup4) -> ProperPipe:
    ext = extend_proper(base)
    return ProperPipe(base, ext, pc_map_proper(ext))


@pytest.fixture(scope="session")
def ex1_pipe() -> ImproperPipe:
    base = locally_toroidal(
        LocallyToroidalSpec(TorusFamily("44", 1, 3), TorusFamily("44", 1, 3))
    )
    return _improper_pipe(base)


@pytest.fixture(scope="session")
def ex2_chain() -> dict:
    base = locally_toroidal(
        LocallyToroidalSpec(TorusFamily("63", 1, 2), TorusFamily("36", 2, 1))
    )
    return {
        "base": _improper_pipe(base),
        "q14": _improper_pipe(petrie_quotient(base, 14)),
        "q7": _improper_pipe(petrie_quotient(base, 7)),
    }


@pytest.fixture(scope="session")
def ex3_chain() -> dict:
    base = locally_toroidal(
        LocallyToroidalSpec(TorusFamily("36", 1, 2), TorusFamily("63", 1, 2))
    )
    center = base.rep.center()
    z = max(center.elements)
    quotient_pres = base.rep.presentation.with_relators(base.rep.element_word(z))
    quotient = RotationGroup4(enumerate_group(quotient_pres), base.sigma)
    return {
        "base": _proper_pipe(base),
        "quotient": _proper_pipe(quotient),
    }


@pytest.fixture(scope="session")
def simplex_pipe() -> dict:
    pres = simplex_presentation()
    c = RegularCGroup4(enumerate_group(pres), pres.distinguished)
    ext = extend_polarity(c)
    return {"cgroup": c, "ext": ext, "map3": pc_map_regular(ext)}
