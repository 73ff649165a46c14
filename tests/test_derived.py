"""Groups built from an existing table against full enumeration.

Duality extensions (``GroupRep.extend``) and Petrie quotients
(``GroupRep.quotient``) are derived from the base group's coset table;
``enumerate_group`` of the same presentation is the oracle, and the two
tables must agree row for row.  The coset-table digests the benchmark
recorded from enumeration (``perfbench/tables.json``, read only) cover
every Petrie quotient its petrie-scan workload can draw."""

import importlib.util
import json
from pathlib import Path

import pytest

from rotamap import (
    CapExceededError,
    RotationGroup4,
    catalog,
    enumerate_group,
    petrie_coxeter,
)
from rotamap.selfdual import extend_proper

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

EXTENDED = ("ex1", "ex2", "ex2q14", "ex2q7", "ex3", "ex3-central-quotient", "simplex333")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.fixture(scope="module")
def recorded_tables():
    with open(PERFBENCH / "tables.json", encoding="utf-8") as f:
        return json.load(f)


def _recorded(tables, rep):
    return tables.get(spans.presentation_key(rep.presentation))


@pytest.fixture(scope="module")
def catalog_extensions(catalog_groups):
    """The extended group of each self-dual catalog entry, built the way
    ``compute_entry_report`` builds it."""
    return {name: petrie_coxeter(catalog_groups.group(name))[0] for name in EXTENDED}


@pytest.fixture(scope="module")
def petrie_bases(ex1_pipe, ex2_chain, ex3_chain):
    return {
        "ex1": ex1_pipe.base,
        "ex2": ex2_chain["base"].base,
        "ex3": ex3_chain["base"].base,
    }


def _petrie_relator(m, k):
    s1, _, s3 = m.sigma
    return ((s1 * s3) ** k).reduce()


class TestExtension:
    @pytest.mark.parametrize("name", EXTENDED)
    def test_matches_enumeration(self, catalog_extensions, name):
        ext = catalog_extensions[name]
        assert ext.order == 2 * ext.base.order
        oracle = enumerate_group(ext.rep.presentation)
        assert ext.rep.table == oracle.table

    @pytest.mark.parametrize("name", EXTENDED)
    def test_matches_recorded_digest(self, catalog_extensions, recorded_tables, name):
        rep = catalog_extensions[name].rep
        assert _recorded(recorded_tables, rep) == spans.table_digest(rep.table)

    def test_over_the_cap_reports_the_extension_order(self):
        pres = catalog()["ex3"].presentation
        m = RotationGroup4(enumerate_group(pres, cap=1343), pres.distinguished)
        with pytest.raises(CapExceededError) as exc:
            extend_proper(m)
        assert (exc.value.cap, exc.value.cosets_in_use) == (1343, 1344)
        m = RotationGroup4(enumerate_group(pres, cap=1344), pres.distinguished)
        assert extend_proper(m).order == 1344


class TestPetrieQuotient:
    @pytest.mark.parametrize("name,k", [
        *(("ex1", k) for k in range(2, 31)),
        *(("ex3", k) for k in range(2, 31)),
        *(("ex2", k) for k in (2, 3, 5, 7, 14, 28)),
    ])
    def test_matches_enumeration(self, petrie_bases, name, k):
        m = petrie_bases[name]
        w = _petrie_relator(m, k)
        q = m.rep.quotient(w)
        oracle = enumerate_group(m.rep.presentation.with_relators(w))
        assert q.presentation == oracle.presentation
        assert q.table == oracle.table

    def test_every_petrie_scan_pair_matches_recorded_digest(self, petrie_bases, recorded_tables):
        # the 87 (base, k) pairs the petrie-scan workload draws from
        for name, m in petrie_bases.items():
            for k in range(2, 31):
                q = m.rep.quotient(_petrie_relator(m, k))
                assert q.cap == m.rep.cap
                assert _recorded(recorded_tables, q) == spans.table_digest(q.table), (name, k)
