"""Command line interface.

    rotamap analyze FILE [--json] [--max-cosets N] [--require-polytopal]
    rotamap construct petrie-coxeter FILE [--out PATH] [--json] [--max-cosets N]
    rotamap construct quotient FILE --petrie K [--out PATH] [--json] [--max-cosets N]
    rotamap generate torus FAMILY B C [--out DIR]
    rotamap generate catalog [NAME] [--verify] [--out DIR] [--max-cosets N]

``construct petrie-coxeter`` runs ``constructions.petrie_coxeter``: it
detects the input's duality, adjoins it and writes the resulting map's
presentation.  ``construct quotient`` adds the Petrie relator (s1 s3)^K
for K >= 1.  ``generate catalog NAME --verify`` verifies that one entry,
without NAME every entry.

``analyze`` and ``construct`` load with ``rotary.load_group`` and print
``constructions.report`` of the result; ``generate`` writes each ``.pres``
and its manifest with ``_write_entry``.

Exit codes: 0 success, 1 mathematical verdict failure (not polytopal
under --require-polytopal, not self-dual, verification mismatch),
2 operational error (parse failure, including a word of more than
DEFAULT_CAP letters; coset cap; bad invocation, such as ``--petrie`` for
``construct petrie-coxeter``, ``--out`` for ``generate catalog --verify``,
which writes nothing, or a ``generate torus`` vector whose map has more
than DEFAULT_CAP elements; input sigma/rho words that break their
identities).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .engine import DEFAULT_CAP
from .errors import (
    CapExceededError,
    ConstructionError,
    InconsistencyError,
    NotPolytopalError,
    ParseError,
    RotamapError,
)
from .rotary import (
    SCHEMA_VERSION,
    AnalysisReport,
    RegularCGroup4,
    RotationGroup3,
    RotationGroup4,
    group_class,
    load_group,
    petrie4,
)
# perfbench/spans.py traces these names here, and the report_rotation4 and
# report_cgroup4 re-imported from constructions below;
# tests/test_benchmark_api.py keeps them
from .rotary import map_report3 as report_rotation3
from .rotary import map_report_regular as report_regular_map
from .constructions import (
    TorusFamily,
    catalog,
    lattice_torus_oracle,
    petrie_coxeter,
    petrie_quotient,
    report,
    report_cgroup4,
    report_rotation4,
    torus_presentation,
    verify_catalog_entry,
)
from .words import Presentation, Word, parse_presentation, serialize_presentation


def _nominal_warnings(pres: Presentation, rep) -> list:
    """Flag power relators whose nominal exponent collapsed."""
    out = []
    for r in pres.relators:
        cols = r.cols()
        if len(cols) >= 2 and len(set(cols)) == 1:
            g = cols[0] >> 1
            actual = rep.element_order(Word.gen(g))
            if actual != len(cols):
                out.append(
                    f"nominal order {len(cols)} of generator "
                    f"{pres.names[g]} collapsed to {actual}"
                )
    return out


def analyze_presentation(pres: Presentation, cap: int = DEFAULT_CAP) -> AnalysisReport:
    g = load_group(pres, cap)
    return report(g, _nominal_warnings(pres, g.rep))


def format_text(report: AnalysisReport) -> str:
    d = report.to_dict()

    def fmt(v):
        if v is None:
            return "-"
        if isinstance(v, bool):
            return "yes" if v else "no"
        if isinstance(v, dict):
            return "  ".join(f"{k} {fmt(x)}" for k, x in v.items())
        if isinstance(v, list):
            return "{" + ",".join(str(x) for x in v) + "}"
        return str(v)

    labels = [
        ("group order", d["group_order"]),
        ("schlafli", d["schlafli"]),
        ("polytopal", d["polytopal"]),
        ("chirality", d["chirality"]),
        ("self-duality", d["self_duality"]),
        ("petrie", d["petrie"]),
        ("holes", d["holes"]),
        ("zigzags", d["zigzags"]),
        ("f-vector", d["f_vector"]),
        ("euler", d["euler"]),
        ("genus", d["genus"]),
        ("involutions", d["involutions"]),
    ]
    width = max(len(k) for k, _ in labels)
    lines = [f"{k:<{width}}  {fmt(v)}" for k, v in labels]
    for w in d["warnings"]:
        lines.append(f"{'warning':<{width}}  {w}")
    return "\n".join(lines)


def _emit(report: AnalysisReport, as_json: bool):
    if as_json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(format_text(report))


def _load(path: str) -> Presentation:
    return parse_presentation(Path(path).read_text(encoding="utf-8"))


# -- commands -------------------------------------------------------------------


def cmd_analyze(args) -> int:
    pres = _load(args.file)
    report = analyze_presentation(pres, cap=args.max_cosets)
    _emit(report, args.json)
    if args.require_polytopal and not report.polytopal:
        return 1
    return 0


def cmd_construct(args) -> int:
    if args.what == "petrie-coxeter" and args.petrie is not None:
        raise RotamapError("--petrie applies to construct quotient only")
    pres = _load(args.file)
    cls = group_class(pres.distinguished, pres.distinguished_kind)
    warnings = []

    if args.what == "quotient":
        if args.petrie is None:
            raise RotamapError("construct quotient requires --petrie K")
        if args.petrie < 1:
            raise RotamapError(f"--petrie must be at least 1, got {args.petrie}")
        if cls is not RotationGroup4:
            raise RotamapError("quotient input must be a rank-4 sigma file")
        m = load_group(pres, args.max_cosets)
        period = petrie4(m)[0]
        if period % args.petrie != 0:
            warnings.append(
                f"--petrie {args.petrie} does not divide the Petrie length "
                f"{period}; the quotient may collapse"
            )
        result = petrie_quotient(m, args.petrie)
        out_pres = result.rep.presentation
        default_name = f"{Path(args.file).stem}-petrie{args.petrie}.pres"
    else:
        if cls not in (RotationGroup4, RegularCGroup4):
            raise RotamapError(
                "petrie-coxeter input must be rank-4 (sigma with 3 words or "
                "rho with 4 words)"
            )
        ext, result = petrie_coxeter(load_group(pres, args.max_cosets))
        if isinstance(result, RotationGroup3):
            words, kind = result.sigma, "sigma"
        else:
            words, kind = result.rho, "rho"
        out_pres = replace(
            ext.rep.presentation, distinguished=words, distinguished_kind=kind
        )
        default_name = f"{Path(args.file).stem}-pc.pres"

    out_path = Path(args.out) if args.out else Path(args.file).parent / default_name
    out_path.write_text(serialize_presentation(out_pres), encoding="utf-8")
    print(f"wrote {out_path}", file=sys.stderr)
    _emit(report(result, warnings), args.json)
    return 0


def cmd_generate(args) -> int:
    outdir = Path(args.out) if args.out else Path.cwd()
    if args.what == "torus":
        fam = TorusFamily(args.family, args.b, args.c)
        # the oracle bounds the order before the relator words are built
        order, v, e, f = lattice_torus_oracle(fam)
        _write_entry(outdir, fam.name, torus_presentation(fam), {
            "order": order,
            "f_vector": [v, e, f],
            "expect_regular": fam.expect_regular,
        })
        return 0

    # args.what is "catalog", the only other subparser
    if args.verify and args.out is not None:
        raise RotamapError("--out does not apply to generate catalog --verify")
    entries = catalog()
    names = [args.name] if args.name else list(entries)
    for name in names:
        if name not in entries:
            raise RotamapError(f"unknown catalog entry {name!r}")
    if args.verify:
        failures = 0
        for name in names:
            bad = verify_catalog_entry(entries[name], cap=args.max_cosets)
            if bad:
                failures += 1
                print(f"{name}: FAIL")
                for path_, want, got in bad:
                    print(f"  {path_}: expected {want!r}, got {got!r}")
            else:
                print(f"{name}: ok")
        return 1 if failures else 0
    for name in names:
        entry = entries[name]
        _write_entry(outdir, name, entry.presentation, entry.expected)
    return 0


def _write_entry(outdir: Path, name: str, pres: Presentation, fields: dict):
    """Write ``name.pres`` and its manifest ``name.expected.json``: the
    schema, the name, then ``fields``."""
    path = outdir / f"{name}.pres"
    path.write_text(serialize_presentation(pres), encoding="utf-8")
    manifest = {"schema": SCHEMA_VERSION, "name": name}
    manifest.update(_jsonable(fields))
    (outdir / f"{name}.expected.json").write_text(
        json.dumps(manifest, indent=2), encoding="utf-8"
    )
    print(f"wrote {path}", file=sys.stderr)


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    return v


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rotamap",
        description="analyze and construct rotation groups of maps and polytopes",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    max_cosets = dict(
        type=int, default=DEFAULT_CAP, metavar="N",
        help="coset cap for enumerations: a bound on the coset rows defined "
        "times the order of the group that labels them, that of the facet "
        "subgroup <x0, x1> with three or more generators (at most 256), or "
        "else the exponent p of the largest power relator g^p; and so on the "
        "group order (default %(default)s)",
    )

    def common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--max-cosets", **max_cosets)

    p = sub.add_parser("analyze", help="report invariants of a presentation file")
    p.add_argument("file")
    p.add_argument(
        "--require-polytopal", action="store_true",
        help="exit 1 if the intersection condition fails",
    )
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("construct", help="run a construction on an input file")
    p.add_argument("what", choices=["petrie-coxeter", "quotient"])
    p.add_argument("file")
    p.add_argument("--petrie", type=int, metavar="K",
                   help="Petrie relator exponent for quotient")
    p.add_argument("--out", metavar="PATH", help="output presentation path")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("generate", help="write built-in presentations")
    gsub = p.add_subparsers(dest="what", required=True)

    pt = gsub.add_parser("torus", help="a torus map presentation")
    pt.add_argument("family", help="4,4 or 3,6 or 6,3")
    pt.add_argument("b", type=int)
    pt.add_argument("c", type=int)
    pt.add_argument("--out", metavar="DIR", help="output directory")
    pt.set_defaults(func=cmd_generate)

    pc = gsub.add_parser("catalog", help="catalog entries, or --verify them")
    pc.add_argument("name", nargs="?", help="entry name (default: all)")
    pc.add_argument("--verify", action="store_true",
                    help="recompute the entries and compare")
    pc.add_argument("--out", metavar="DIR", help="output directory")
    pc.add_argument("--max-cosets", **max_cosets)
    pc.set_defaults(func=cmd_generate)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"{exc} (see --max-cosets)", file=sys.stderr)
        return 2
    except NotPolytopalError as exc:
        print(f"not polytopal: {exc}", file=sys.stderr)
        return 1
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    except (InconsistencyError, RotamapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
