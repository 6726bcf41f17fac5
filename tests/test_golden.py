"""Golden output hashes for the ``residual``, ``mesh`` and ``profile`` commands.

Each test runs one command and compares the sha256 of every file it writes
with a pinned value.  The residual files are pinned on a small non-square
grid for all five CLI families in all three modes, the OBJ mesh for three
families.  The family parameters avoid the defaults where that makes both
factor curves vary.  A second set runs every family and every profile ODE
with no parameter flags, which pins the defaults its builder supplies; the
profile files are also pinned with every parameter flag of the ODE set.

A hash here may change only together with a CHANGES.md line that explains
why the bytes changed.
"""
import hashlib

import pytest

from solsurf.cli import main

GRID = "23x17"

FAMILY_ARGS = {
    "horosphere": ["--a", "0.7"],
    "vertical-plane": ["--d", "-0.5", "--b", "0.2"],
    "minimal-cylinder": [],
    "grim-reaper": ["--lambda", "0.5", "--b", "0.5"],
    "conformal-cylinder": ["--a", "0.3"],
}

# (family, mode) -> (sha256 of <out>.csv, sha256 of <out>.summary.txt)
RESIDUAL_SHA256 = {
    ("horosphere", "minimal"): (
        "781b441c6267800114feb782559bda705758408908eb43f714310eaea19cfa2b",
        "771808507e320968ed74684f39d912c91797732c71463d4d0bdc77fcc385dd4b",
    ),
    ("horosphere", "translator"): (
        "6e77faebf3719cdadcf0dcb9199bc5abdfd4ba66375a87a8541df06d480d93b0",
        "9a10d27a439793bceb791e2ceede4a283bbd2875240c1ebea7a3dd023844812b",
    ),
    ("horosphere", "conformal"): (
        "ee0d6869aa3409486bcac326fe9a377c3948ecca7c391a78442a00445e76307d",
        "dec40956cd35557f26d80a1a1f67bc8e76788ab12f69d7baf46e7dc6afaa3682",
    ),
    ("vertical-plane", "minimal"): (
        "16983150975819f3fe7f15f464805ea79129e0b00d6aa04f0acded529aa0867d",
        "7c176df3f98553c1053c956dd1cd120c9a83c5d35ffb8001a6107933b3b4dd3b",
    ),
    ("vertical-plane", "translator"): (
        "b1c0dcfccad5950539d79926b2057a946f9df7a612f54d7e856a4e5d05e73696",
        "0289f44d4691d92e8c159563b9b7b07338658e7e6cda47d03bd3c3004ab49031",
    ),
    ("vertical-plane", "conformal"): (
        "16983150975819f3fe7f15f464805ea79129e0b00d6aa04f0acded529aa0867d",
        "75599c95a6c6af4840870b1aba42583c2a18c645b9c03f7ae72b57cf58cac878",
    ),
    ("minimal-cylinder", "minimal"): (
        "a8d74248a2166e7b7b05f0a309c44525981ae7f515bed2408c381ae76f267fdc",
        "7041082377c7badd6ca90b03399d3421374c5ddf231c037fae570fb70faa3bfa",
    ),
    ("minimal-cylinder", "translator"): (
        "3219fc72d65e4c8857ea3a96821a98e5c8778654646c367a113120f833d17519",
        "5ce2bcec2adb7673f88b42dbe41d931992b1f1778f574e876406e970de99ddf0",
    ),
    ("minimal-cylinder", "conformal"): (
        "b4c8120f145db180a1f916e71d705be4c86ff67b2183acd42d0c43fd73c56c95",
        "da4a66ca8a6113d13db41f606c9dae9159d290d461f21f8f45036751daffa98d",
    ),
    ("grim-reaper", "minimal"): (
        "deff79995f94da0da0fd6ca7ef2ab3f78b158d52c85b83fe2994761372b60087",
        "95b2fe209e13baa78caa50f0837764a3dd359b9b4a11564747ef0b112ce6b820",
    ),
    ("grim-reaper", "translator"): (
        "8c7ff5ec5637879bada808f1a5d52b54d4ce42055f2f509a35d9c46ec808e4f8",
        "2e628174d4d7e61d1dc4badb5007bb4f97983d523cb4250ae3b40817cfdd503e",
    ),
    ("grim-reaper", "conformal"): (
        "038cf8df043752018c30a1469fca77ac4b0b078be175313e12ae59c9390b2ef6",
        "d6120233e99ee56e56a94fd1aeeb4c0856a51cde0ea3f397b87fb802aaa6e93a",
    ),
    ("conformal-cylinder", "minimal"): (
        "ea71b3efb3d5fc4bca198783f9f1e7f970dfc57b235437ab621870c3f07f9426",
        "c3b474cf472b23c4663685d14999bf6cec56bc0d6aae3d25aeb99b2291d0cff2",
    ),
    ("conformal-cylinder", "translator"): (
        "04ec10c60f0a3e7071188444765436293028c5d9ce96e2445386188aebbbd814",
        "7d6f95c2bdd48290f2709a5c1b1470cdb18394db4bd0e49f2cbe1e8cbcc6281c",
    ),
    ("conformal-cylinder", "conformal"): (
        "1494f6e3add3fea375a3b0c66ed6776ebe8fa30a2c6461d57adbcb07ee9a7cdd",
        "5db4548b0f92aa3269a0baab30dd65c76cddbaf50eb816fe0461c045e02ad962",
    ),
}

# family -> sha256 of <out>.obj
MESH_SHA256 = {
    "horosphere": "e95858e0a68d58c5b2e399f0b5b7b1e98bec8b79c1ec8f93d873dce385457900",
    "minimal-cylinder": "6a8e265903d890a7e54c5a489058be4d0b82bf6d8c5b7923f9ebc195cf447a3b",
    "grim-reaper": "8829ed797122e6fd419ea908ea41cf07335d7b21d44136d12e9d639dbeaae294",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("family,mode", list(RESIDUAL_SHA256))
def test_residual_bytes(tmp_path, family, mode):
    out = tmp_path / "r"
    argv = ["residual", "--family", family, *FAMILY_ARGS[family], "--mode", mode,
            "--grid", GRID, "--out", str(out)]
    assert main(argv) == 0
    got = (_sha256(tmp_path / "r.csv"), _sha256(tmp_path / "r.summary.txt"))
    assert got == RESIDUAL_SHA256[family, mode]


@pytest.mark.parametrize("family", list(MESH_SHA256))
def test_mesh_bytes(tmp_path, family):
    out = tmp_path / "m"
    argv = ["mesh", "--family", family, *FAMILY_ARGS[family], "--grid", GRID,
            "--out", str(out)]
    assert main(argv) == 0
    assert _sha256(tmp_path / "m.obj") == MESH_SHA256[family]


# family -> (mode, sha256 of <out>.csv, sha256 of <out>.summary.txt, sha256 of <out>.obj)
# with no parameter flags.  Each mode is one whose residual bytes move with
# the family's parameters.  minimal-cylinder is left out: its FAMILY_ARGS are
# empty, so the tables above already pin its defaults.
DEFAULTS_SHA256 = {
    "horosphere": (
        "conformal",
        "6ddcdc7b0d18110917efe66daf935aa859ad3b59769534bb88399af82335cf18",
        "b34d07c2fa102bec57fc22a20cff55b90b5c85a6d638f4d6bb47fedb26b2d272",
        "180add82ab25622a198649c5d7c377043c4214f6d9ecf735fb5c2201522cecba",
    ),
    "vertical-plane": (
        "translator",
        "16983150975819f3fe7f15f464805ea79129e0b00d6aa04f0acded529aa0867d",
        "30a05c1f8d7760a5a3ccdf8b633379b55b8c944a79d04ea353f59507d7fdedfc",
        "e3d7e360e73f2a97e6f34b272a84b1c48c443b11add45d87db034c37a1085420",
    ),
    "grim-reaper": (
        "translator",
        "d3ed06a65ba44ca736f82a3533c5100fa00a0d8b13d30db50d4ed92a6466a471",
        "cf0581df31fdc32598480fdd120a9eb4622bf59bc3dd98c4c49f314b4e8a357c",
        "e7a53e79f28951df22fed7e9157615d9000c073d1f6f0e2830b5eaf7dc5fde3b",
    ),
    "conformal-cylinder": (
        "conformal",
        "d9cebfc8338a9e8301d2f03f22cae4cba448d0268c82f4346e9081e84bb46c11",
        "852bcffb36488ca152d65ead365d686e31a3bda752b7bb46e3e2f20e51b9c07e",
        "211f494d3232e28b6f3951dd91db43695e42431ee5a1b4778d06191595968cdf",
    ),
}


@pytest.mark.parametrize("family", list(DEFAULTS_SHA256))
def test_default_parameter_bytes(tmp_path, family):
    mode, csv, summary, obj = DEFAULTS_SHA256[family]
    assert main(["residual", "--family", family, "--mode", mode, "--grid", GRID,
                 "--out", str(tmp_path / "r")]) == 0
    assert main(["mesh", "--family", family, "--grid", GRID, "--out", str(tmp_path / "m")]) == 0
    got = (_sha256(tmp_path / "r.csv"), _sha256(tmp_path / "r.summary.txt"),
           _sha256(tmp_path / "m.obj"))
    assert got == (csv, summary, obj)


# Every parameter flag each ODE takes, away from its default.
PROFILE_ARGS = {
    "minimal": ["--c", "0.8", "--y0", "1.3"],
    "grim-reaper": ["--lambda", "1.5", "--k", "0.7", "--span", "-4:6"],
    "conformal": ["--a", "0.6", "--y0", "0.9"],
}

# (ode, with flags) -> (sha256 of <out>.csv, sha256 of <out>.events.txt)
PROFILE_SHA256 = {
    ("minimal", True): (
        "ce6906a4b18ec79dbd3bb99e7699894833804fc8c4eb8eaf21344ded43800bbf",
        "4273e4066600e70973c342ba6936709ad7ec85cbffaf23bc3759fbc46638eb11",
    ),
    ("grim-reaper", True): (
        "c9e040993d898464f8387e82f61ef290893a31748a4a0fdf69b17908a1c8a1a8",
        "26f0ec783b17743edca6f56acf9bc9f90f9af3db4bd81f7b4b1188c2145675a0",
    ),
    ("conformal", True): (
        "7c2d6d6b6dd805cbbb0f4abd15e9a64bc5b291a41861490e7efa6cc0d56894ec",
        "5477ed51e61f7f1465f4acd50f9bf2220fdad504712c7e06af65e0ec124d3e3d",
    ),
    ("minimal", False): (
        "37d6d116a975de5c9281edf17d7a200ed91d6168f38c0416c161f93eb91606f9",
        "702daac31390caa84bc24f368f101f46108dd16e2df7d7818d90c1468741ca3a",
    ),
    ("grim-reaper", False): (
        "750c397e52d3d901b1c8c2acd58b50ca9d0b28ba7cc926c2bfd0d5aad420c88e",
        "ee20044d2aaf15bbcd51b3f56c9b8750177cf60b9e683d1f8874ba70eb45e9e6",
    ),
    ("conformal", False): (
        "d7bb3de0f3548de942b6c5e29a8d57683d2ac7487e7b21247469ec20c5d0a1ca",
        "e24b15bcdb0bc318e76ad348978f104d747590258338a0db103402ac11fa2b99",
    ),
}


@pytest.mark.parametrize("ode,flags", list(PROFILE_SHA256))
def test_profile_bytes(tmp_path, ode, flags):
    argv = ["profile", "--ode", ode, *(PROFILE_ARGS[ode] if flags else []),
            "--out", str(tmp_path / "p")]
    assert main(argv) == 0
    got = (_sha256(tmp_path / "p.csv"), _sha256(tmp_path / "p.events.txt"))
    assert got == PROFILE_SHA256[ode, flags]
