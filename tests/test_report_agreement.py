"""Catalog verification and the CLI must report the same numbers: the
``map`` dict that ``compute_entry_report`` checks against the catalog
equals the ``construct petrie-coxeter --json`` report of that entry, and
a rank-3 or rank-4 entry's dict equals its ``analyze --json`` report.  So
does the dict of a user-built entry given by the reflections of a
regular map."""

import json

import pytest

from rotamap import CatalogEntry, catalog, compute_entry_report, parse_presentation
from rotamap.cli import main

MAP_ENTRIES = ["ex1", "ex3", "ex3-central-quotient", "simplex333"]

# a regular {4,4} map on the torus, given by its three reflections
REGULAR_MAP = (
    "gens r0 r1 r2\nrel r0^2\nrel r1^2\nrel r2^2\nrel (r0 r1)^4\n"
    "rel (r1 r2)^4\nrel (r0 r2)^2\nrel (r0 r1 r2)^4\nrho r0 r1 r2\n"
)


def _catalog_view(d: dict) -> dict:
    """The compared fields of a catalog dict."""
    return {
        "order": d["order"],
        "schlafli": tuple(d["schlafli"]),
        "chirality": d["chirality"],
        "f_vector": tuple(d["f_vector"]),
        "euler": d["euler"],
        "genus": d["genus"],
        "holes": d["holes"],
        "zigzags": d["zigzags"],
        "gen_by_involutions": d.get("gen_by_involutions"),
    }


def _cli_view(d: dict) -> dict:
    """The same fields of a schema-1 JSON report."""

    def int_keys(x):
        return None if x is None else {int(j): v for j, v in x.items()}

    return {
        "order": d["group_order"],
        "schlafli": tuple(d["schlafli"]),
        "chirality": d["chirality"],
        "f_vector": tuple(d["f_vector"]),
        "euler": d["euler"],
        "genus": d["genus"],
        "holes": int_keys(d["holes"]),
        "zigzags": int_keys(d["zigzags"]),
        "gen_by_involutions": (d["involutions"] or {}).get("group_gen_by_involutions"),
    }


def _rank4_catalog_view(d: dict) -> dict:
    """The compared rank-4 fields of a catalog dict."""
    return {
        "order": d["order"],
        "schlafli": tuple(d["schlafli"]),
        "polytopal": d["polytopal"],
        "chirality": d["chirality"],
        "self_duality": d["self_duality"],
        "petrie": tuple(d["petrie"]),
    }


def _rank4_cli_view(d: dict) -> dict:
    """The same fields of a schema-1 JSON report."""
    return {
        "order": d["group_order"],
        "schlafli": tuple(d["schlafli"]),
        "polytopal": d["polytopal"],
        "chirality": d["chirality"],
        "self_duality": d["self_duality"],
        "petrie": (d["petrie"]["left"], d["petrie"]["right"]),
    }


@pytest.fixture(scope="module")
def entry_reports():
    entries = catalog()
    return {
        name: compute_entry_report(entries[name])
        for name in MAP_ENTRIES + ["torus-44-1-3"]
    }


@pytest.fixture(scope="module")
def entries_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("agreement")
    for name in MAP_ENTRIES + ["torus-44-1-3"]:
        assert main(["generate", "catalog", name, "--out", str(d)]) == 0
    return d


def _cli_json(capsys, argv) -> dict:
    capsys.readouterr()
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name", MAP_ENTRIES)
def test_catalog_map_matches_construct(entry_reports, entries_dir, tmp_path, capsys, name):
    got = entry_reports[name]["map"]
    d = _cli_json(capsys, [
        "construct", "petrie-coxeter", str(entries_dir / f"{name}.pres"),
        "--json", "--out", str(tmp_path / "pc.pres"),
    ])
    assert _catalog_view(got) == _cli_view(d)


def test_catalog_rank3_entry_matches_analyze(entry_reports, entries_dir, capsys):
    name = "torus-44-1-3"
    got = entry_reports[name]
    d = _cli_json(capsys, ["analyze", str(entries_dir / f"{name}.pres"), "--json"])
    assert _catalog_view(got) == _cli_view(d)


@pytest.mark.parametrize("name", MAP_ENTRIES)
def test_catalog_rank4_entry_matches_analyze(entry_reports, entries_dir, capsys, name):
    got = entry_reports[name]
    d = _cli_json(capsys, ["analyze", str(entries_dir / f"{name}.pres"), "--json"])
    assert _rank4_catalog_view(got) == _rank4_cli_view(d)


def test_regular_map_entry_matches_analyze(tmp_path, capsys):
    entry = CatalogEntry("regular-map", parse_presentation(REGULAR_MAP), {})
    got = _catalog_view(compute_entry_report(entry))
    path = tmp_path / "regular-map.pres"
    path.write_text(REGULAR_MAP)
    assert got == _cli_view(_cli_json(capsys, ["analyze", str(path), "--json"]))
    assert got["order"] == 64
    assert got["schlafli"] == (4, 4)
    assert got["chirality"] == "regular"
    assert got["f_vector"] == (8, 16, 8)
    assert got["genus"] == 1
