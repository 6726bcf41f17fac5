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
    "grim-reaper": ["--lambda", "0.5", "--b", "0.5", "--a", "0.2"],
    "conformal-cylinder": ["--a", "0.3"],
}

# (family, mode) -> (sha256 of <out>.csv, sha256 of <out>.summary.txt)
RESIDUAL_SHA256 = {
    ("horosphere", "minimal"): (
        "781b441c6267800114feb782559bda705758408908eb43f714310eaea19cfa2b",
        "f9c6639c01a7642078655f32c4898055274ab0d83d71206f6f3c4f96b1545634",
    ),
    ("horosphere", "translator"): (
        "6e77faebf3719cdadcf0dcb9199bc5abdfd4ba66375a87a8541df06d480d93b0",
        "c33ad37e819661522d9c343ea87c12a529c756aac14f7c66c6f8232747338de8",
    ),
    ("horosphere", "conformal"): (
        "ee0d6869aa3409486bcac326fe9a377c3948ecca7c391a78442a00445e76307d",
        "f1abfd6eb8ab86d115e007bcf9db91b4075619d9ea035798e17b8fe2558827c8",
    ),
    ("vertical-plane", "minimal"): (
        "16983150975819f3fe7f15f464805ea79129e0b00d6aa04f0acded529aa0867d",
        "592ef1a7cdeb520aefe6014be4fb47b6c6075b374eec7cf5ef26516e879d51ac",
    ),
    ("vertical-plane", "translator"): (
        "b1c0dcfccad5950539d79926b2057a946f9df7a612f54d7e856a4e5d05e73696",
        "930c120ddb041f46e7bf5663a92eaa1a68214642e799ecd762c5a9f267c36bd0",
    ),
    ("vertical-plane", "conformal"): (
        "16983150975819f3fe7f15f464805ea79129e0b00d6aa04f0acded529aa0867d",
        "b7802d4d6201cb0d867c96831f08ec045078e168da944eaedde6912af01a05b5",
    ),
    ("minimal-cylinder", "minimal"): (
        "cdf2bcccf6b22c6c3f0e866397952ce252ba54af9dd0a56ecbca4ea692c0e6ad",
        "55aaaa0f7c8b978a4940d386cb492756a4a72fa31f3738acfe87d62386e40df2",
    ),
    ("minimal-cylinder", "translator"): (
        "639dae5e059ff25f3514ede6aea302a235764deb83b43f3ae686ded2bb358a7d",
        "1917388e61158d4683ecef42c1004e604e0532907f400fd298766d65130b8291",
    ),
    ("minimal-cylinder", "conformal"): (
        "3c99c91a83f0f308112c0cc2bcf47f02c4f1bea81c1ef5ff597c8b0f6b887bb3",
        "cd6fd8edc24aa2f74b58a7249c8f0f623ad1a7516027e4ad2c0f696aeecdd07c",
    ),
    ("grim-reaper", "minimal"): (
        "d329e409a8568607ea272f99605dc331d526579ef4ac88edcce374527b2e31d3",
        "d60e8c0fd812da7345c0845d7a97d939728b7fc043f35101e5d43f64e53d927f",
    ),
    ("grim-reaper", "translator"): (
        "f7be036891a9c08de486487535f55376fbbfb80aacfc4ea214439b6ab6e4246e",
        "0357545d1e9b8138d36bef00e98d1479dd8be644f86951fd160fdca31289aa5b",
    ),
    ("grim-reaper", "conformal"): (
        "b77e13b4000446c74cabd693a12c49b956022973ddcad99cbfa42f1fcf958ba5",
        "8815b7c0810c4df57fe05eed68ad5c00ff2dda9ac4356ce021f50b95ec3e03f8",
    ),
    ("conformal-cylinder", "minimal"): (
        "5877a1588211d714e9c38f9d3fb6af00fe414de21c27abd215b4e128996d136d",
        "dbd723390303fdb5aa34e4352c8919d00c0f6e9a41c69eaf595dd031f81e68c5",
    ),
    ("conformal-cylinder", "translator"): (
        "0cccd884ca9917421bc9fcb76a2d098e938ee3185624cfe2c28baa51b866b387",
        "e2a9aced6066f4f4b92f2e8682ac4cc39dea99eaee0e60c36655baa57a9c0051",
    ),
    ("conformal-cylinder", "conformal"): (
        "b9eacc9b5c22a6c4113a5ba1942db124366ad684d9a7fea24a97e99bed3edf20",
        "4c6b4ed5a25e568c130259b15bb96539a71d24077f59a2a54d89ad915eb80f77",
    ),
}

# family -> sha256 of <out>.obj
MESH_SHA256 = {
    "horosphere": "e95858e0a68d58c5b2e399f0b5b7b1e98bec8b79c1ec8f93d873dce385457900",
    "minimal-cylinder": "7a2f9b8bb21f8e896d770e5e504dc08c56638ab809fd51bd2b9f23f298acd410",
    "grim-reaper": "c3fe75a57d68cc858baccc78934daaa14e3077a9b457f52bf114f124fe50371d",
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
        "b4570158557553ca49e504ec60a513392c62b773bc2a69b6ca5653015b8e9240",
        "180add82ab25622a198649c5d7c377043c4214f6d9ecf735fb5c2201522cecba",
    ),
    "vertical-plane": (
        "translator",
        "16983150975819f3fe7f15f464805ea79129e0b00d6aa04f0acded529aa0867d",
        "09d5fadf372bfa9a0f7febdc30cedf54a800c13c325ec9e3f035828151ac2bcf",
        "e3d7e360e73f2a97e6f34b272a84b1c48c443b11add45d87db034c37a1085420",
    ),
    "grim-reaper": (
        "translator",
        "b17d1d11a6115bda4a5d790692474e0ff4dcac1d321c7730bfb8f1260e5a032d",
        "01f544dd8686dbe69b609813cba04c449fa0af9f489b07e38f910d3b3055a766",
        "e7a53e79f28951df22fed7e9157615d9000c073d1f6f0e2830b5eaf7dc5fde3b",
    ),
    "conformal-cylinder": (
        "conformal",
        "2d458a38f93357f16864765c624b291e018c6bacaf72a515cdd41bcab231eb32",
        "09ffae93bad9236ec6da4707cc5b8e92fab940b830cf6f188d53096d8756c8d9",
        "3111cef4735e7c8d04276054020fe0e732a1ab841dd0442404410d2b2ed28502",
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
    "minimal": ["--c", "0.8", "--y0", "1.3", "--d", "0.4", "--eps-g", "1e-5",
                "--m-stop", "1e5"],
    "grim-reaper": ["--lambda", "1.5", "--k", "0.7", "--span", "-4:6", "--eps-g", "1e-5"],
    "conformal": ["--a", "0.6", "--y0", "0.9", "--eps-g", "1e-5", "--m-stop", "1e5"],
}

# (ode, with flags) -> (sha256 of <out>.csv, sha256 of <out>.events.txt)
PROFILE_SHA256 = {
    ("minimal", True): (
        "72993dcb8538c1b345108e1415d8b9fac3f53cd2bb4aef4af22ea189557402ed",
        "e767fbcb802cd736a82eaf86817dc907891427dd3a14a91243cbdd0398276691",
    ),
    ("grim-reaper", True): (
        "3b290e51bc481e1884c4519fedc4941feeefac1a2729b7af2c166a97ed0d717a",
        "26f0ec783b17743edca6f56acf9bc9f90f9af3db4bd81f7b4b1188c2145675a0",
    ),
    ("conformal", True): (
        "a95323b5487acab3846b732916268dc3d16508d9609be4dc6c80ad463346af4f",
        "0988761e26b97992a588599b7ea6d7b2682e4d001396f975d13809794feb95b3",
    ),
    ("minimal", False): (
        "eb846f9af404b66c821d29c4f93260d147d90cf6ed459ab76dc069490903240f",
        "6c7b2a6986e6581621ca494c338092725bc6db7e2702ac7742985af2a953f613",
    ),
    ("grim-reaper", False): (
        "0a72ee0a5ed9bc5824d735a2460b0e01147a694c7aee159600d72846a99b752f",
        "ee20044d2aaf15bbcd51b3f56c9b8750177cf60b9e683d1f8874ba70eb45e9e6",
    ),
    ("conformal", False): (
        "e38abd509ebff3724a353c0931bff8a3129f6dc639b313d2db100ea3bf3bbe2c",
        "84acca3b9792d68639a25bc328d2f6c1537e189d7b16ec250bceb1f7af56f988",
    ),
}


@pytest.mark.parametrize("ode,flags", list(PROFILE_SHA256))
def test_profile_bytes(tmp_path, ode, flags):
    argv = ["profile", "--ode", ode, *(PROFILE_ARGS[ode] if flags else []),
            "--out", str(tmp_path / "p")]
    assert main(argv) == 0
    got = (_sha256(tmp_path / "p.csv"), _sha256(tmp_path / "p.events.txt"))
    assert got == PROFILE_SHA256[ode, flags]
