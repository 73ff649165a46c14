import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rotamap import (
    ExtendedGroup,
    LocallyToroidalSpec,
    RegularMap3,
    RotationGroup3,
    RotationGroup4,
    TorusFamily,
    catalog,
    enumerate_group,
    extend_improper,
    extend_polarity,
    extend_proper,
    load_group,
    locally_toroidal,
    pc_map_improper,
    pc_map_proper,
    pc_map_regular,
    petrie_coxeter,
    petrie_quotient,
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


# the locally toroidal catalog entries, with the torus maps they are built from
LOCALLY_TOROIDAL = {
    "ex1": LocallyToroidalSpec(TorusFamily("44", 1, 3), TorusFamily("44", 1, 3)),
    "ex2": LocallyToroidalSpec(TorusFamily("63", 1, 2), TorusFamily("36", 2, 1)),
    "ex3": LocallyToroidalSpec(TorusFamily("36", 1, 2), TorusFamily("63", 1, 2)),
}


class CatalogGroups:
    """Catalog groups enumerated once and shared by every test that only
    reads them; a ``GroupRep`` is immutable and its queries are pure.
    The locally toroidal entries are built by ``locally_toroidal``, so its
    reference-order check runs on them.  Tests that enumerate on purpose
    (criterion 7, the CLI through ``main``, the enumeration oracles of
    ``test_derived``) do not use this store."""

    def __init__(self):
        self.entries = catalog()
        self._groups = {}

    def group(self, name):
        if name not in self._groups:
            pres = self.entries[name].presentation
            if name in LOCALLY_TOROIDAL:
                g = locally_toroidal(LOCALLY_TOROIDAL[name])
                assert g.rep.presentation == pres
            else:
                g = load_group(pres)
            self._groups[name] = g
        return self._groups[name]


@pytest.fixture(scope="session")
def catalog_groups() -> CatalogGroups:
    return CatalogGroups()


class CatalogExtensions(dict):
    """The extended group of each self-dual catalog entry, keyed by
    name, built on first use the way ``compute_entry_report`` builds it."""

    def __init__(self, groups: CatalogGroups):
        super().__init__()
        self.groups = groups

    def __missing__(self, name) -> ExtendedGroup:
        ext = self[name] = petrie_coxeter(self.groups.group(name))[0]
        return ext


@pytest.fixture(scope="session")
def catalog_extensions(catalog_groups) -> CatalogExtensions:
    return CatalogExtensions(catalog_groups)


@pytest.fixture(scope="session")
def ex1_pipe(catalog_groups) -> ImproperPipe:
    return _improper_pipe(catalog_groups.group("ex1"))


@pytest.fixture(scope="session")
def ex2_chain(catalog_groups) -> dict:
    base = catalog_groups.group("ex2")
    return {
        "base": _improper_pipe(base),
        "q14": _improper_pipe(petrie_quotient(base, 14)),
        "q7": _improper_pipe(petrie_quotient(base, 7)),
    }


@pytest.fixture(scope="session")
def ex3_chain(catalog_groups) -> dict:
    base = catalog_groups.group("ex3")
    center = base.rep.center()
    z = max(center.elements)
    quotient_pres = base.rep.presentation.with_relators(base.rep.element_word(z))
    quotient = RotationGroup4(enumerate_group(quotient_pres), base.sigma)
    return {
        "base": _proper_pipe(base),
        "quotient": _proper_pipe(quotient),
    }


@pytest.fixture(scope="session")
def simplex_pipe(catalog_groups) -> dict:
    c = catalog_groups.group("simplex333")
    ext = extend_polarity(c)
    return {"cgroup": c, "ext": ext, "map3": pc_map_regular(ext)}
