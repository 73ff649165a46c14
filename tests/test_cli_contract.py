"""The command-line contract as one table of cases, run in process through
``rotamap.cli.main``, the ``rotamap`` console script.  A case is an argv,
its exit code and at most one check of its output; ``{dir}`` holds every
catalog entry's ``.pres`` and manifest and the ``cli`` fixture's inputs,
and each argv runs once per module.  ``test_cli.py`` pins the caps of an
extension, Z x Z, a long relator and a huge torus vector (the last under a
1 GB address-space limit and in under 5 s): ``test_cap_reaches_the_extension``,
``test_infinite_presentation_hits_cap``, ``test_long_relator_hits_cap`` and
``test_huge_torus_vector_fails_fast``."""

import io
import json
import re
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

import pytest

from rotamap.cli import main


class Same(NamedTuple):
    """The JSON output equals that of another command."""
    argv: str
    def __call__(self, out, cli):
        assert json.loads(out) == json.loads(cli.stdout(self.argv))


class Manifest(NamedTuple):
    """Report fields equal catalog ``entry``'s manifest, whose ``order`` and
    ``extended_order`` are ``group_order`` and whose Petrie pair is a list."""
    entry: str
    keys: tuple
    def __call__(self, out, cli):
        report = json.loads(out)
        want = json.loads((cli.dir / f"{self.entry}.expected.json").read_text())
        for key in self.keys:
            got = report["group_order" if key.endswith("order") else key]
            if key == "petrie":
                got = [got["left"], got["right"]]
            assert got == want[key], (key, want[key], got)


class Bytes(NamedTuple):
    """The output is byte-equal to that of another command."""
    argv: str
    def __call__(self, out, cli):
        assert out == cli.stdout(self.argv)


class Fields(NamedTuple):
    """Report fields have the given values."""
    values: dict
    def __call__(self, out, cli):
        report = json.loads(out)
        assert {key: report[key] for key in self.values} == self.values


Case = namedtuple("Case", "id argv code check", defaults=[None])
RANK4 = ("order", "schlafli", "polytopal", "chirality", "self_duality", "petrie")
W, TORUS_W = "s1 s2^-1 s3 s1 s2 s3^-1 s2 s1^-1", "s1 s2^-1 s1 s2 s1"
# each catalog entry's .conjugated.pres conjugates its sigma or rho words by w
CONJUGATED = {"ex2q7": W, "ex3": W, "torus-44-2-0": TORUS_W, "simplex333": "r0 r1 r2 r3 r1",
              "torus-44-1-3": TORUS_W, "ex1": W}


def _pc(name):
    return f"construct petrie-coxeter {{dir}}/{name}.pres --json"


def _quotient(base, k):
    return f"construct quotient {{dir}}/{base}.pres --petrie {k} --out {{dir}}/{base}-q{k}.pres --json"


CASES = [
    # Petrie-Coxeter maps of all three duality kinds: the built report equals
    # analyze of the written extension, which enumerates it from scratch, and
    # has the manifest's extended_order.  ex2q7's built extension is never
    # table-checked, so its involution fields walk Schreier words; the
    # enumerated one's read the left multiplications the check keeps.
    *(case for name in ("ex1", "ex2q7", "ex3", "simplex333") for case in (
        Case(f"pc-{name}", _pc(name), 0, Same(f"analyze {{dir}}/{name}-pc.pres --json")),
        Case(f"pc-{name}-manifest", _pc(name), 0, Manifest(name, ("extended_order",))),
    )),
    Case("pc-ex1-fields", _pc("ex1"), 0, Fields(
        {"group_order": 4000, "schlafli": [4, 8], "holes": {"2": 4, "3": 20, "4": 10}})),
    # Petrie quotients (base, K, the quotient's entry, its order): the quotient
    # built from the base's table equals analyze of the written file, which
    # enumerates it from scratch, and has its entry's pinned order.  (s1 s3)^20
    # is 1 in ex1 and (s1 s3)^28 in ex2, so those keep the base's own table;
    # ex2's passed the table check when it was enumerated, so its quotient
    # takes over the check's left multiplications.
    *(case for base, k, entry, order in [
        ("ex2", 7, "ex2q7", 5040), ("ex1", 20, "ex1", 2000), ("ex2", 28, "ex2", 20160),
    ] for case in (
        Case(f"quotient-{base}-{k}", _quotient(base, k), 0,
             Same(f"analyze {{dir}}/{base}-q{k}.pres --json")),
        Case(f"quotient-{base}-{k}-manifest", _quotient(base, k), 0, Manifest(entry, ("order",))),
        Case(f"quotient-{base}-{k}-order", _quotient(base, k), 0, Fields({"group_order": order})),
    )),
    Case("quotient-ex2-7-fields", _quotient("ex2", 7), 0,
         Fields({"group_order": 5040, "petrie": {"left": 7, "right": 7}})),
    Case("quotient-ex1-4", "construct quotient {dir}/ex1.pres --petrie 4", 0),
    Case("quotient-ex3-8", "construct quotient {dir}/ex3.pres --petrie 8", 0),
    # a quotient needs --petrie K and a rank-4 sigma file
    Case("quotient-without-petrie", "construct quotient {dir}/ex1.pres", 2),
    Case("quotient-of-rho-file", "construct quotient {dir}/map.pres --petrie 2", 2),
    # the free product of C3 and C2: the cosets of <a> are enumerated with
    # Schreier labels, and the cap counts them times 3
    Case("cap-c3c2", "analyze {dir}/c3c2.pres --max-cosets 1000", 2),
    # a long proper power stays in the Felsch buckets: the quotient of order
    # 4 needs a cap of 1,960, 49 rows over <s1, s2> times 40
    Case("ex1-power-29", "analyze {dir}/ex1-power-29.pres --max-cosets 2000 --json", 0,
         Fields({"group_order": 4})),
    # {3,6}(12,12), order 2,592, with long translation relators closed once per
    # coset, defines exactly 482 rows of the coset table of <s2>, and the cap
    # counts them times s2's exponent 6
    Case("torus-rows-2892", "analyze {dir}/torus-36-12-12.pres --max-cosets 2892", 0),
    Case("torus-rows-2891", "analyze {dir}/torus-36-12-12.pres --max-cosets 2891", 2),
    *(Case(f"analyze-{name}-manifest", f"analyze {{dir}}/{name}.pres --json", 0, Manifest(name, RANK4))
      for name in ("ex1", "ex2", "ex2q7", "ex3", "ex3-central-quotient")),
    Case("analyze-ex1-fields", "analyze {dir}/ex1.pres --json", 0,
         Fields({"chirality": "chiral", "schlafli": [4, 4, 4], "group_order": 2000})),
    # conjugation is an inner automorphism, so the generation check, the form
    # tests read off its certificate and every invariant must not move.  One
    # form holds for each of ex2q7 (improper), ex3 (proper), torus-44-2-0
    # (reflexible) and simplex333 (polarity, its rho line conjugated); the
    # chiral torus-44-1-3 and ex1 fail the reflexibility test
    *(Case(f"conjugated-{name}", f"analyze {{dir}}/{name}.conjugated.pres --json", 0,
           Bytes(f"analyze {{dir}}/{name}.pres --json")) for name in CONJUGATED),
    # a regular {4,4} map on the torus, given by its three reflections; it is
    # not a rank-4 group, so there is nothing to construct
    Case("regular-map", "analyze {dir}/map.pres --json", 0,
         Fields({"group_order": 64, "chirality": "regular", "genus": 1})),
    Case("regular-map-construct", "construct petrie-coxeter {dir}/map.pres", 2),
    # non-orientable regular maps: their rotations are the whole group, so
    # they have no genus.  The hemicube {4,3}_3 lies on the projective
    # plane; {4,6}_3 has an even Euler characteristic, -2, so only its
    # orientability withholds the genus
    *(Case(name, f"analyze {{dir}}/{name}.pres --json", 0, Fields({
        "group_order": order, "f_vector": f_vector, "euler": euler, "genus": None,
        "warnings": ["rotation subgroup has index 1; genus not reported"]}))
      for name, order, f_vector, euler in [
          ("hemicube", 24, [4, 6, 3], 1), ("map-4-6-3", 48, [4, 12, 6], -2)]),
]


class Cli:
    """Runs each argv once through ``main``, with ``{dir}`` filled in."""

    def __init__(self, path):
        self.dir, self._runs = path, {}

    def run(self, argv):
        if argv not in self._runs:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([a.replace("{dir}", str(self.dir)) for a in argv.split()])
            self._runs[argv] = code, out.getvalue(), err.getvalue()
        return self._runs[argv]

    def stdout(self, argv):
        code, out, err = self.run(argv)
        assert code == 0, (argv, err)
        return out

    def check(self, case):
        code, out, err = self.run(case.argv)
        assert code == case.code, (case.argv, code, err)
        if case.check is not None:
            case.check(out, self)


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    cli = Cli(d)
    cli.stdout("generate catalog --out {dir}")
    cli.stdout("generate torus 3,6 12 12 --out {dir}")
    (d / "c3c2.pres").write_text("gens a b\nrel a^3\nrel b^2\nsigma a b\n")
    (d / "map.pres").write_text("gens r0 r1 r2\nrel r0^2\nrel r1^2\nrel r2^2\nrel (r0 r1)^4\n"
                                "rel (r1 r2)^4\nrel (r0 r2)^2\nrel (r0 r1 r2)^4\nrho r0 r1 r2\n")
    for name, q in (("hemicube", 3), ("map-4-6-3", 6)):
        (d / f"{name}.pres").write_text(
            f"gens r0 r1 r2\nrel r0^2\nrel r1^2\nrel r2^2\nrel (r0 r1)^4\nrel (r1 r2)^{q}\n"
            "rel (r0 r2)^2\nrel (r0 r1 r2)^3\nrho r0 r1 r2\n")
    (d / "ex1-power-29.pres").write_text((d / "ex1.pres").read_text() + "rel (s1 s3)^29\n")
    for name, w in CONJUGATED.items():
        plain = (d / f"{name}.pres").read_text()
        text, n = re.subn(r"^(sigma|rho) (.*)$", lambda m: m[1] + "".join(
            f" (({w})^-1 {g} ({w}))" for g in m[2].split()), plain, flags=re.M)
        assert n == 1, name
        (d / f"{name}.conjugated.pres").write_text(text)
    return cli


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.id)
def test_case(cli, case):
    cli.check(case)


# each differs from the passing case analyze-ex3-manifest in its exit
# code or its check only, so the runner cannot pass without checking
@pytest.mark.parametrize("case", [
    Case("code", "analyze {dir}/ex3.pres --json", 1),
    Case("same", "analyze {dir}/ex3.pres --json", 0, Same("analyze {dir}/ex3-central-quotient.pres --json")),
    Case("manifest", "analyze {dir}/ex3.pres --json", 0, Manifest("ex3-central-quotient", RANK4)),
    Case("bytes", "analyze {dir}/ex3.pres --json", 0, Bytes("analyze {dir}/ex3-central-quotient.pres --json")),
    Case("fields", "analyze {dir}/ex3.pres --json", 0, Fields({"group_order": 671})),
], ids=lambda c: c.id)
def test_runner_fails_a_wrong_case(cli, case):
    with pytest.raises(AssertionError):
        cli.check(case)
