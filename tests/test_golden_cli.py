"""CLI output pinned by digest: the sha256 of the stdout of each command,
of each presentation file it writes, and of the catalog manifests.  A
refactor of the construction pipeline must leave all of them unchanged."""

import hashlib

import pytest

from rotamap.cli import main

NAMES = ["ex1", "ex3", "ex3-central-quotient", "simplex333", "torus-44-1-3"]

COMMANDS = {
    "analyze": ["analyze"],
    "petrie-coxeter": ["construct", "petrie-coxeter"],
    "quotient4": ["construct", "quotient", "--petrie", "4"],
}

CASES = [(cmd, name) for cmd in ("analyze", "petrie-coxeter") for name in NAMES]
CASES += [("quotient4", "ex1"), ("quotient4", "ex3")]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def catalog_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    for name in NAMES:
        assert main(["generate", "catalog", name, "--out", str(d)]) == 0
    return d


def run_case(d, capsys, cmd, name):
    """Exit code, stdout digest and written-file digest of one command on
    the catalog entry ``name`` generated into ``d``."""
    argv = COMMANDS[cmd] + [str(d / f"{name}.pres"), "--json"]
    out = d / f"{name}.{cmd}.out.pres"
    if argv[0] == "construct":
        argv += ["--out", str(out)]
    capsys.readouterr()
    rc = main(argv)
    stdout = capsys.readouterr().out
    written = _sha(out.read_text()) if out.exists() else None
    return rc, _sha(stdout), written


def manifest_digests(d, name):
    return (
        _sha((d / f"{name}.pres").read_text()),
        _sha((d / f"{name}.expected.json").read_text()),
    )


# recorded before the construction pipeline was merged into one dispatcher
GOLDEN = {
    ('analyze', 'ex1'): (0, 'd4b783d8af4afe7e31699ffa502ad2319b866b002256ab932d8db548f6ec1c2c', None),
    ('analyze', 'ex3'): (0, '566343b1a3c68d0157d96f1f23585f5ec1f31d7985eab4c911261cca9cae9fc8', None),
    ('analyze', 'ex3-central-quotient'): (0, '610d6a6de9e55e1f2deebcaf760e4840413c0715fc0f9cc22aeeeb97f8b976c5', None),
    ('analyze', 'simplex333'): (0, '993f927838c1edb8bbe57e7e97afba87464abf01e1d742b01c4c33f394327702', None),
    ('analyze', 'torus-44-1-3'): (0, 'fe342d35cb775ed0432190b5f7066368321d932e9b1a8cb9ac777604a6a227a3', None),
    ('petrie-coxeter', 'ex1'): (0, 'e24aff29f02ca66c9a375cbb315fbd37d17e31949e0af1e7ebac9ca6e32ada3c', 'e0acd101ba89efebbfc51762065cb492ef6d548c70b3f6a853cf2ae3d2a750e7'),
    ('petrie-coxeter', 'ex3'): (0, '2f6f577afc044147fc15db55aaf87b0735766dc733fe422d116a764db5550d98', 'f3ce6c6a94ab0d48fe78f59a87758fd66f07c5e1660b290b89bd8a8f7c411cb5'),
    ('petrie-coxeter', 'ex3-central-quotient'): (0, '22e14c23a7656a97329fb33d4fd2a4cb7c9bdc21dbd3faece6e5c276d395d53d', 'f2773018182205b20226c1fa0325b4c13fafbe3f1321bbb964e93a3ae6c05ec3'),
    ('petrie-coxeter', 'simplex333'): (0, 'b2bb55ec55de481389623f3ccd75cc8b7cabe8eba1e01cc9afecdb47ca592fa4', '775add0a322a5419f4c0be1d4608bf16e3ccf99e8c0b8cf213dbe10683611bf5'),
    ('petrie-coxeter', 'torus-44-1-3'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', None),
    ('quotient4', 'ex1'): (0, '56994b033ba8e8f9ceede346946011049def6cc3e69ffc560af4fb742c22a48a', '477410f22b526bb30cdd3250332b7a0cf08896f6d0e242bb553f22b316b3ccc4'),
    ('quotient4', 'ex3'): (0, '610d6a6de9e55e1f2deebcaf760e4840413c0715fc0f9cc22aeeeb97f8b976c5', '623ea7130384aff619e17fee11e2746016681fa10b8fe545df31f4c77cb4f7cb'),
}

GOLDEN_MANIFESTS = {
    'ex1': ('607bfb1c045978381005ed7c4553ffadeb0ff94c6e2f626a55ec5d5672bb3979', '519d5f60f8f7b81dde33054dd443e18bd8cc8fe38b4370b348dc74bcddc33f71'),
    'ex3': ('08d6bd6d9338c68189e40da92827fe6325e28944ff8c9e16f2cae7736f1e7a76', '757ed569f6d27310f03654289373774cc0bdc299e9136f295391d591a0eec5d8'),
    'ex3-central-quotient': ('c820832e579efab4911f91e51f81b89281f9e8af997fad04498455b94e61e71e', '0f62d896071481a7f46d083521f8d9f11dba0c993a9585aa8eb5bb7211290665'),
    'simplex333': ('d5edabf59ef27a2a5d956df9f4a04cba409cee0a1fc955a1aa48fba6abaa3f91', 'b18333653715ee9be03541b6522618327b9c44a42032c507f2a888cbf6598118'),
    'torus-44-1-3': ('f4280a8607a23595b936096ef615d6ac4af5dbab98132a7307934966df861ac1', '790db3cd0c42d4691739a2eff74393c1902ef7cfd4847cbee917fa5a83765c4e'),
}


@pytest.mark.parametrize("cmd,name", CASES, ids=[f"{c}-{n}" for c, n in CASES])
def test_command_digest(catalog_dir, capsys, cmd, name):
    assert run_case(catalog_dir, capsys, cmd, name) == GOLDEN[cmd, name]


@pytest.mark.parametrize("name", NAMES)
def test_catalog_manifest_digest(catalog_dir, name):
    assert manifest_digests(catalog_dir, name) == GOLDEN_MANIFESTS[name]
