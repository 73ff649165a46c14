"""Catalog verification and the CLI must report the same numbers: the
``map`` dict that ``compute_entry_report`` checks against the catalog
equals the ``construct petrie-coxeter --json`` report of that entry, and
a rank-3 entry's dict equals its ``analyze --json`` report."""

import json

import pytest

from rotamap import catalog, compute_entry_report
from rotamap.cli import main

MAP_ENTRIES = ["ex1", "ex3", "ex3-central-quotient", "simplex333"]


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
def test_catalog_map_matches_construct(entries_dir, tmp_path, capsys, name):
    got = compute_entry_report(catalog()[name])["map"]
    d = _cli_json(capsys, [
        "construct", "petrie-coxeter", str(entries_dir / f"{name}.pres"),
        "--json", "--out", str(tmp_path / "pc.pres"),
    ])
    assert _catalog_view(got) == _cli_view(d)


def test_catalog_rank3_entry_matches_analyze(entries_dir, capsys):
    name = "torus-44-1-3"
    got = compute_entry_report(catalog()[name])
    d = _cli_json(capsys, ["analyze", str(entries_dir / f"{name}.pres"), "--json"])
    assert _catalog_view(got) == _cli_view(d)
