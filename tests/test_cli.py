import json
import os
import re
import resource
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from rotamap import cli
from rotamap.cli import analyze_presentation, format_text, main
from rotamap import TorusFamily, catalog, parse_presentation


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    assert main(["generate", "catalog", "ex3", "--out", str(d)]) == 0
    assert main(["generate", "torus", "4,4", "1", "0", "--out", str(d)]) == 0
    assert main(["generate", "torus", "4,4", "1", "3", "--out", str(d)]) == 0
    return d


class TestAnalyze:
    def test_example3_json(self, workdir, capsys):
        assert main(["analyze", str(workdir / "ex3.pres"), "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["schema"] == 1
        assert d["group_order"] == 672
        assert d["self_duality"] == "proper"
        assert d["chirality"] == "chiral"
        assert d["schlafli"] == [3, 6, 3]

    def test_degenerate_torus_map_exit_code(self, workdir, capsys):
        rc = main([
            "analyze", str(workdir / "torus-44-1-0.pres"),
            "--require-polytopal", "--json",
        ])
        assert rc == 1
        d = json.loads(capsys.readouterr().out)
        assert d["polytopal"] is False
        assert d["f_vector"] == [1, 2, 1]

    @pytest.mark.parametrize("rels, f_vector, euler", [
        ("rel a^3\nrel a b\n", [1, 3, 1], -1),  # C3 with sigma1 sigma2 = 1
        ("rel a\nrel b\n", [1, 1, 1], 1),  # the trivial group
    ], ids=["c3", "trivial"])
    def test_degenerate_half_turn(self, tmp_path, capsys, rels, f_vector, euler):
        # edges are the cosets of <sigma1 sigma2>, here of order 1; an odd
        # Euler characteristic of a non-polytopal map has no genus
        f = tmp_path / "degenerate.pres"
        f.write_text(f"gens a b\n{rels}sigma a b\n")
        assert main(["analyze", str(f), "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert (d["f_vector"], d["euler"], d["genus"]) == (f_vector, euler, None)
        assert d["warnings"] == [
            "intersection condition fails; counts are diagnostic only"
        ]
        assert main(["analyze", str(f)]) == 0
        assert re.search(r"^genus +-$", capsys.readouterr().out, re.M)

    @pytest.mark.parametrize("power", ["a^4", "a^-4"])
    def test_collapsed_power_of_either_sign_is_flagged(self, tmp_path, capsys, power):
        f = tmp_path / "collapsed.pres"
        f.write_text(f"gens a b\nrel {power}\nrel a^6\nrel b^2\nrel (a b)^2\nsigma a b\n")
        assert main(["analyze", str(f), "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["warnings"] == [
            "nominal order 4 of generator a collapsed to 2",
            "nominal order 6 of generator a collapsed to 2",
        ]

    def test_text_and_json_agree(self, workdir, capsys):
        assert main(["analyze", str(workdir / "torus-44-1-3.pres"), "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert main(["analyze", str(workdir / "torus-44-1-3.pres")]) == 0
        text = capsys.readouterr().out
        assert str(d["group_order"]) in text
        assert "chiral" in text
        assert "{1,2,1}" not in text  # f-vector of (1,3) is not degenerate

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.pres"
        bad.write_text("gens a\nrel b^2\n")
        assert main(["analyze", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_cap_exceeded_exit_2(self, tmp_path, capsys):
        free = tmp_path / "free.pres"
        free.write_text("gens a b\nsigma a b\n")
        assert main(["analyze", str(free), "--max-cosets", "40"]) == 2
        assert "--max-cosets" in capsys.readouterr().err

    def test_infinite_presentation_hits_cap(self, tmp_path, capsys):
        # Z x Z: enumeration can only stop at the cap
        f = tmp_path / "z2.pres"
        f.write_text("gens a b\nrel a b a^-1 b^-1\nsigma a b\n")
        t0 = time.perf_counter()
        assert main(["analyze", str(f), "--max-cosets", "1000"]) == 2
        assert time.perf_counter() - t0 < 2.0
        assert "coset cap 1000 exceeded" in capsys.readouterr().err

    def test_long_relator_hits_cap(self, tmp_path, capsys):
        # an infinite one-relator group whose relator has 40 distinct
        # rotations, so it is closed once per coset: that stops at the
        # cap too
        f = tmp_path / "long.pres"
        f.write_text(
            "gens a b\n"
            "rel b^2 a b^-1 a^-2 b a^-1 b^-1 a^2 b^-1 a^-1 b^-1 a^-2 b^-1 a^-6"
            " b^2 a^-4 b^-1 a b a^-2 b a b^2 a b\n"
            "sigma a b\n"
        )
        t0 = time.perf_counter()
        assert main(["analyze", str(f), "--max-cosets", "1000"]) == 2
        assert time.perf_counter() - t0 < 2.0
        assert "coset cap 1000 exceeded" in capsys.readouterr().err

    def test_missing_sigma_line_is_operational_error(self, tmp_path, capsys):
        f = tmp_path / "norank.pres"
        f.write_text("gens a\nrel a^4\n")
        assert main(["analyze", str(f)]) == 2

    def test_input_sigma_words_breaking_identity_exit_2(self, tmp_path, capsys):
        f = tmp_path / "a5.pres"
        f.write_text("gens a b\nrel a^3\nrel b^2\nrel (a b)^5\nsigma a b\n")
        assert main(["analyze", str(f)]) == 2
        err = capsys.readouterr().err
        assert "(sigma1 sigma2)^2 does not evaluate to the identity" in err
        assert "construction failed" not in err

    def test_long_relator_fails_fast(self, tmp_path, capsys):
        f = tmp_path / "long.pres"
        f.write_text("gens a b\nrel a^200000 b a b^-1\nsigma a b\n")
        t0 = time.perf_counter()
        rc = main(["analyze", str(f), "--max-cosets", "1000"])
        assert time.perf_counter() - t0 < 2.0
        assert rc == 2
        err = capsys.readouterr().err
        assert "200003 letters" in err and "1000" in err

    @pytest.mark.parametrize("rel, args, message", [
        # 32 KB line: 4000 terms, 804 000 letters, parsed in linear time
        (" ".join(["a^200 b"] * 4000), ["--max-cosets", "1000"],
         "804000 letters"),
        # 40 bytes that expand to 20 million letters
        ("((a^1000)^1000)^20 b", [], "parse error: line 2: word of 20000000"),
        ("a^2000000", [], "parse error: line 2: word of 2000000"),
    ], ids=["4000-terms", "nested-powers", "huge-power"])
    def test_hostile_words_fail_fast(self, tmp_path, capsys, rel, args, message):
        f = tmp_path / "hostile.pres"
        f.write_text(f"gens a b\nrel {rel}\nsigma a b\n")
        t0 = time.perf_counter()
        rc = main(["analyze", str(f)] + args)
        assert time.perf_counter() - t0 < 2.0
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_deep_nesting(self, tmp_path, capsys):
        deep = tmp_path / "deep.pres"
        nested = "(" * 5000 + "a" + ")" * 5000
        deep.write_text(f"gens a b\nrel {nested}\nrel b^2\nsigma a b\n")
        assert main(["analyze", str(deep), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["group_order"] == 2
        unmatched = tmp_path / "unmatched.pres"
        unmatched.write_text("gens a b\nrel " + "(" * 5000 + "a\nsigma a b\n")
        t0 = time.perf_counter()
        assert main(["analyze", str(unmatched)]) == 2
        assert time.perf_counter() - t0 < 2.0
        assert "parse error: line 2: missing ')'" in capsys.readouterr().err


def _run_limited(argv):
    """``rotamap argv`` in a child process whose address-space limit turns
    a runaway build into a MemoryError instead of exhausting the machine."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "rotamap.cli", *argv],
        capture_output=True, text=True, env=env,
        preexec_fn=limit_memory, timeout=60,
    )


class TestConstruct:
    def test_petrie_coxeter_proper(self, workdir, capsys):
        rc = main([
            "construct", "petrie-coxeter", str(workdir / "ex3.pres"), "--json",
        ])
        assert rc == 0
        out = capsys.readouterr()
        d = json.loads(out.out)
        assert d["group_order"] == 1344
        assert d["schlafli"] == [3, 16]
        assert d["zigzags"]["1"] == 28
        emitted = workdir / "ex3-pc.pres"
        assert emitted.exists()
        pres = parse_presentation(emitted.read_text())
        assert pres.distinguished_kind == "rho"
        assert len(pres.distinguished) == 3

    def test_cap_reaches_the_extension(self, workdir, tmp_path, capsys):
        # the ex3 base needs a cap of 756, 18 rows over <s1, s2> times 42;
        # its extension has 1,344 elements
        rc = main([
            "construct", "petrie-coxeter", str(workdir / "ex3.pres"),
            "--max-cosets", "1000", "--out", str(tmp_path / "ex3-pc.pres"),
        ])
        assert rc == 2
        assert "--max-cosets" in capsys.readouterr().err
        rc = main(["generate", "catalog", "ex3", "--verify", "--max-cosets", "1000"])
        assert rc == 2
        assert "--max-cosets" in capsys.readouterr().err

    def test_quotient_by_full_period(self, workdir, capsys):
        rc = main([
            "construct", "quotient", str(workdir / "ex3.pres"),
            "--petrie", "8", "--json",
            "--out", str(workdir / "ex3-q8.pres"),
        ])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["group_order"] == 672
        assert (workdir / "ex3-q8.pres").exists()

    def test_quotient_warns_on_non_divisor(self, workdir, capsys):
        rc = main([
            "construct", "quotient", str(workdir / "ex3.pres"),
            "--petrie", "3", "--json",
            "--out", str(workdir / "ex3-q3.pres"),
        ])
        out = capsys.readouterr()
        if rc == 0:
            d = json.loads(out.out)
            assert any("divide" in w for w in d["warnings"])
        else:
            assert rc == 1  # collapse diagnosed

    def test_huge_petrie_exponent_fails_fast(self, workdir, tmp_path):
        # the relator's length is bounded before its 2K letters are built
        out = tmp_path / "q.pres"
        t0 = time.perf_counter()
        proc = _run_limited([
            "construct", "quotient", str(workdir / "ex3.pres"),
            "--petrie", "10000000000", "--out", str(out),
        ])
        assert time.perf_counter() - t0 < 2.0
        assert proc.returncode == 2, proc.stderr
        assert "20000000000 letters, more than the cap" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_nonpositive_petrie_exit_2(self, workdir, capsys, k):
        rc = main([
            "construct", "quotient", str(workdir / "ex3.pres"),
            "--petrie", k, "--out", str(workdir / "ex3-bad.pres"),
        ])
        assert rc == 2
        assert "--petrie must be at least 1" in capsys.readouterr().err
        assert not (workdir / "ex3-bad.pres").exists()

    def test_petrie_coxeter_rejects_petrie_exit_2(self, workdir, capsys):
        out = workdir / "ex3-petrie-flag.pres"
        rc = main([
            "construct", "petrie-coxeter", str(workdir / "ex3.pres"),
            "--petrie", "3", "--out", str(out),
        ])
        assert rc == 2
        assert "--petrie applies to construct quotient only" in capsys.readouterr().err
        assert not out.exists()

    def test_not_self_dual_exit_1(self, tmp_path, capsys):
        f = tmp_path / "cube.pres"
        f.write_text(
            "gens s1 s2 s3\nrel s1^4\nrel s2^3\nrel s3^3\n"
            "rel (s1 s2)^2\nrel (s2 s3)^2\nrel (s1 s2 s3)^2\n"
            "sigma s1 s2 s3\n"
        )
        assert main(["construct", "petrie-coxeter", str(f)]) == 1
        assert "not self-dual" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["petrie-coxeter"], ["quotient", "--petrie", "2"],
    ])
    def test_input_sigma_words_breaking_identity_exit_2(
        self, tmp_path, capsys, extra
    ):
        f = tmp_path / "bad.pres"
        f.write_text("gens a b c\nrel a^3\nrel b\nrel c\nsigma a b c\n")
        out = tmp_path / "out.pres"
        argv = ["construct", extra[0], str(f), "--out", str(out)] + extra[1:]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "(sigma1 sigma2)^2 does not evaluate to the identity" in err
        assert not out.exists()

    @pytest.mark.parametrize("names, adjoined", [
        ("d s2 s3", "d2"), ("d d2 s3", "d3"),
    ], ids=["d", "d-d2"])
    def test_adjoined_generator_takes_a_fresh_name(self, workdir, tmp_path, names, adjoined):
        # ex3 with its generators renamed: the duality is adjoined under
        # the first of d, d2, d3, ... that the presentation does not use
        text = (workdir / "ex3.pres").read_text()
        for old, new in zip(("s1", "s2", "s3"), names.split()):
            text = re.sub(rf"\b{old}\b", new, text)
        f, out = tmp_path / "renamed.pres", tmp_path / "renamed-pc.pres"
        f.write_text(text)
        assert main(["construct", "petrie-coxeter", str(f), "--out", str(out)]) == 0
        pres = parse_presentation(out.read_text())
        assert pres.names == (*names.split(), adjoined)

    def test_simplex_regular_path(self, tmp_path, capsys):
        f = tmp_path / "simplex.pres"
        from rotamap import serialize_presentation, simplex_presentation

        f.write_text(serialize_presentation(simplex_presentation()))
        rc = main(["construct", "petrie-coxeter", str(f), "--json"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["group_order"] == 240
        assert d["schlafli"] == [4, 6]
        assert d["holes"]["2"] == 3


class TestGenerate:
    def test_torus_manifest(self, workdir):
        manifest = json.loads((workdir / "torus-44-1-3.expected.json").read_text())
        assert manifest["order"] == 40
        assert manifest["expect_regular"] is False

    def test_torus_takes_no_coset_cap(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "generate", "torus", "4,4", "1", "3", "--max-cosets", "5",
                "--out", str(tmp_path),
            ])
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    def test_huge_torus_vector_fails_fast(self, tmp_path):
        # the lattice order 4 (b^2 + c^2) is bounded before the relator
        # words are built or the residues enumerated
        t0 = time.perf_counter()
        proc = _run_limited(["generate", "torus", "4,4", "100000", "0", "--out", str(tmp_path)])
        assert time.perf_counter() - t0 < 5.0
        assert proc.returncode == 2, proc.stderr
        assert "order 40000000000, more than 1000000" in proc.stderr
        assert not list(tmp_path.iterdir())

    def test_torus_at_the_cap_edge(self, tmp_path):
        # 4 (499^2 + 12^2) = 996,580, just under the cap of 1,000,000
        assert main(["generate", "torus", "4,4", "499", "12", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "torus-44-499-12.expected.json").read_text())
        assert manifest["order"] == 996_580
        assert manifest["f_vector"] == [249_145, 498_290, 249_145]

    def test_unknown_catalog_name(self, tmp_path):
        assert main(["generate", "catalog", "nope", "--out", str(tmp_path)]) == 2

    def test_verify_unknown_catalog_name(self, capsys):
        assert main(["generate", "catalog", "nope", "--verify"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "unknown catalog entry" in out.err

    def test_verify_named_entry_only(self, capsys):
        assert main(["generate", "catalog", "torus-44-1-3", "--verify"]) == 0
        assert capsys.readouterr().out == "torus-44-1-3: ok\n"

    def test_verify_reports_a_wrong_expectation_exit_1(self, monkeypatch, capsys):
        entries = catalog()
        entry = entries["torus-44-1-3"]
        entries["torus-44-1-3"] = replace(entry, expected={**entry.expected, "order": 41})
        monkeypatch.setattr(cli, "catalog", lambda: entries)
        assert main(["generate", "catalog", "torus-44-1-3", "--verify"]) == 1
        assert capsys.readouterr().out == (
            "torus-44-1-3: FAIL\n  order: expected 41, got 40\n"
        )

    def test_verify_rejects_out_exit_2(self, tmp_path, capsys):
        # --verify writes nothing, so an --out directory would stay empty
        outdir = tmp_path / "out"
        outdir.mkdir()
        assert main(["generate", "catalog", "ex3", "--verify", "--out", str(outdir)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "--out does not apply to generate catalog --verify" in out.err
        assert list(outdir.iterdir()) == []

    def test_generated_file_analyzes_to_expected_order(self, workdir, capsys):
        assert main(["analyze", str(workdir / "torus-44-1-3.pres"), "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["group_order"] == 40

    @pytest.mark.parametrize("family,b,c", [("4,4", 0, 5), ("6,3", 0, 2)])
    def test_vector_on_b_axis_is_regular(self, tmp_path, capsys, family, b, c):
        # (0, c) lies on a mirror axis just like (b, 0)
        fam = TorusFamily(family, b, c)
        assert main([
            "generate", "torus", family, str(b), str(c), "--out", str(tmp_path),
        ]) == 0
        manifest = json.loads((tmp_path / f"{fam.name}.expected.json").read_text())
        assert main(["analyze", str(tmp_path / f"{fam.name}.pres"), "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["chirality"] == "regular"
        assert fam.expect_regular is True
        assert manifest["expect_regular"] is True


class TestHeavyExamples:
    def test_catalog_verify_passes(self, capsys):
        assert main(["generate", "catalog", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "ex1: ok" in out and "simplex333: ok" in out


class TestReportSchema:
    def test_roundtrip(self, workdir, capsys):
        path = workdir / "ex3.pres"
        assert main(["analyze", str(path), "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        report = analyze_presentation(parse_presentation(path.read_text()))
        assert report.to_dict() == d

    def test_text_contains_warnings(self):
        pres = parse_presentation(
            "gens s1 s2\nrel s1^4\nrel s2^4\nrel (s1 s2)^2\n"
            "rel s2^-1 s1\nrel s1^-1 s2\nsigma s1 s2\n"
        )
        report = analyze_presentation(pres)
        text = format_text(report)
        assert "group order" in text
