"""Golden output hashes for the ``residual``, ``mesh`` and ``profile`` commands.

Each test runs one command and compares the sha256 of every file it writes
with a pinned value.  The residual files are pinned on a small non-square
grid for all five CLI families in all three modes, the OBJ mesh for three
families.  The family parameters avoid the defaults where that makes both
factor curves vary.  A second set runs every family and every profile ODE
with no parameter flags, which pins the defaults its builder supplies; the
profile files are also pinned with every parameter flag of the ODE set.

A hash here may change only together with a CHANGES.md line that explains
why the bytes changed.  The profile CSV writer derives an even profile's
left half from its right half's text; the byte tests at the end compare it
with formatting every value, on random tables.
"""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from solsurf import GrimReaperParams, export, integrate_grim_reaper
from solsurf.cli import main
from solsurf.export import fmt

GRID = "23x17"

FAMILY_ARGS = {
    "horosphere": ["--a", "0.7"],
    "vertical-plane": ["--d", "-0.3"],
    "minimal-cylinder": [],
    "grim-reaper": ["--lambda", "0.5", "--b", "0.5"],
    "conformal-cylinder": ["--a", "0.3"],
}

# (family, mode) -> (sha256 of <out>.csv, sha256 of <out>.summary.txt)
RESIDUAL_SHA256 = {
    ("horosphere", "minimal"): (
        "781b441c6267800114feb782559bda705758408908eb43f714310eaea19cfa2b",
        "7191f13f297a1022062c1b5ce1b62b69dcd443f7c57cf6b976e5a159b43e6e5d",
    ),
    ("horosphere", "translator"): (
        "6e77faebf3719cdadcf0dcb9199bc5abdfd4ba66375a87a8541df06d480d93b0",
        "0df663e4479eca0d68fbd1930d7c1d4673825a240cbcfaca8766c0588d66c0b4",
    ),
    ("horosphere", "conformal"): (
        "ee0d6869aa3409486bcac326fe9a377c3948ecca7c391a78442a00445e76307d",
        "e06918e6da0b3fc167f5e42c2ab24b41e5f988c41a35f472acc8e78183021e78",
    ),
    ("vertical-plane", "minimal"): (
        "16983150975819f3fe7f15f464805ea79129e0b00d6aa04f0acded529aa0867d",
        "23c4f60b97a87bcab05c75abfc8a77c4867572cca2d2dba57aebd36efa010047",
    ),
    ("vertical-plane", "translator"): (
        "b1c0dcfccad5950539d79926b2057a946f9df7a612f54d7e856a4e5d05e73696",
        "9e398d86ff4854d034004a09d000dea9f28d0e842f5c9c52ca2b17c68ae3632e",
    ),
    ("vertical-plane", "conformal"): (
        "16983150975819f3fe7f15f464805ea79129e0b00d6aa04f0acded529aa0867d",
        "f97b506e2291d6113ff06b6a29bc590d8fc84dd026f2b7e61d401cb8e744bd7b",
    ),
    ("minimal-cylinder", "minimal"): (
        "a8d74248a2166e7b7b05f0a309c44525981ae7f515bed2408c381ae76f267fdc",
        "d8b239140a4897d02ea67ee1867dca5a9f6f76ea465d34508449c893d2b1141f",
    ),
    ("minimal-cylinder", "translator"): (
        "3219fc72d65e4c8857ea3a96821a98e5c8778654646c367a113120f833d17519",
        "ae3cf2f7fd0f4c5e0c4f2b1dfdd90247f33890147b5c641c6d1cd449fc39a79f",
    ),
    ("minimal-cylinder", "conformal"): (
        "b4c8120f145db180a1f916e71d705be4c86ff67b2183acd42d0c43fd73c56c95",
        "1695ce38bed334139151ddabaf2d5ec112d174a0469fbd0c41d5e32b463b0295",
    ),
    ("grim-reaper", "minimal"): (
        "deff79995f94da0da0fd6ca7ef2ab3f78b158d52c85b83fe2994761372b60087",
        "0ce952504b05bd923f5b717306610636c8cab0cf1009098a13aebf139233d323",
    ),
    ("grim-reaper", "translator"): (
        "8c7ff5ec5637879bada808f1a5d52b54d4ce42055f2f509a35d9c46ec808e4f8",
        "c802f47808822237ede49d248d859ab27ef10163f29878e73ada6d4c5b5fc7a3",
    ),
    ("grim-reaper", "conformal"): (
        "038cf8df043752018c30a1469fca77ac4b0b078be175313e12ae59c9390b2ef6",
        "85f633980896ec2c4e68912b3768859008504fff0994ab818af0dd45cfeca627",
    ),
    ("conformal-cylinder", "minimal"): (
        "ea71b3efb3d5fc4bca198783f9f1e7f970dfc57b235437ab621870c3f07f9426",
        "26f035a1b65893924666bd897ee7f859b2f7fde8ba08d67c6f38ac2e262e2658",
    ),
    ("conformal-cylinder", "translator"): (
        "04ec10c60f0a3e7071188444765436293028c5d9ce96e2445386188aebbbd814",
        "77046191d66f2435f9f3450ab75055ac5b65e1a4c9ae7fb0b04ace4ee698418b",
    ),
    ("conformal-cylinder", "conformal"): (
        "1494f6e3add3fea375a3b0c66ed6776ebe8fa30a2c6461d57adbcb07ee9a7cdd",
        "1e53e329f3a0a4b31a29577165ebf1a8d18da7960e7c519517e58194ced19d79",
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
        "f6efee96cb21534c3cd58de0dfaa5576a0429c585f71ec00075a248c2ed8364b",
        "180add82ab25622a198649c5d7c377043c4214f6d9ecf735fb5c2201522cecba",
    ),
    "vertical-plane": (
        "translator",
        "16983150975819f3fe7f15f464805ea79129e0b00d6aa04f0acded529aa0867d",
        "960f9a424aa4ccdec06b3893ed209e051fa40965248c0dc33dde79283bcc3430",
        "e3d7e360e73f2a97e6f34b272a84b1c48c443b11add45d87db034c37a1085420",
    ),
    "grim-reaper": (
        "translator",
        "d3ed06a65ba44ca736f82a3533c5100fa00a0d8b13d30db50d4ed92a6466a471",
        "d658004ed284f5af0533bcabe97f4fbb4eee218799a83d02f74207283b97bc5f",
        "e7a53e79f28951df22fed7e9157615d9000c073d1f6f0e2830b5eaf7dc5fde3b",
    ),
    "conformal-cylinder": (
        "conformal",
        "d9cebfc8338a9e8301d2f03f22cae4cba448d0268c82f4346e9081e84bb46c11",
        "8c54914e8940d695400392935e08b8a3d7e99cb177eccbb89598966f0386f8fc",
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


# --- the mirrored profile CSV -----------------------------------------------

# Floats of every kind but NaN, with the signed zeros, subnormals, 3-digit
# exponents and infinities drawn often.
_VALUES = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e-300, -7.25e123, 1e300, math.inf, -math.inf]),
)
_ROWS = st.lists(st.tuples(_VALUES, _VALUES, _VALUES, _VALUES), min_size=1, max_size=40)
_EXTREME = [(0.0, 1.0, 0.0, -0.0), (1e-310, 1e300, -1e-200, -0.0), (2.5, 5e-324, -math.inf, 1e-5)]


def _mirrored(right):
    """The table whose centre is ``right[0]`` and whose right half is
    ``right``, with the left half its mirror: t and g' negated."""
    right = np.array(right, dtype=float)
    return np.concatenate([right[:0:-1] * [-1.0, 1.0, -1.0, 1.0], right])


def _every_value(table):
    """The oracle: every value of every row formatted by ``fmt``."""
    return "".join(",".join(fmt(x) for x in row) + "\n" for row in table.tolist())


def _profile_text(table):
    """The writer's rows for ``table`` and the row count of each ``_rows``
    call it made."""
    calls, rows = [], export._rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(export, "_rows", lambda template, t: calls.append(len(t)) or rows(template, t))
        return export._profile_rows(table), calls


@settings(max_examples=300, deadline=None)
@given(_ROWS)
@example(_EXTREME)
def test_mirrored_profile_bytes(right):
    """A mirrored table is written from its right half, with no ``_rows``
    call, in the bytes of formatting every value."""
    table = _mirrored(right)
    text, calls = _profile_text(table)
    assert calls == []
    assert text == _every_value(table)


def _assert_falls_back(table):
    text, calls = _profile_text(table)
    assert calls == [len(table)]
    assert text == _every_value(table)


@settings(max_examples=100, deadline=None)
@given(_ROWS.filter(lambda rows: len(rows) > 1), st.data())
@example(_EXTREME, None)
def test_tables_that_are_not_mirrors_take_rows(right, data):
    """An even-length table, one that is mirrored but for one bit, and one
    that holds a NaN where it is otherwise mirrored are each one ``_rows``
    call, in the same bytes."""
    table = _mirrored(right)
    _assert_falls_back(table[1:])
    i = 0 if data is None else data.draw(st.integers(0, table.size - 1).filter(
        lambda k: k // 4 != len(table) // 2), label="flipped")
    flipped = table.copy()
    flipped.reshape(-1)[i:i + 1].view(np.int64)[0] ^= 1
    _assert_falls_back(flipped)
    table[0, 1] = table[-1, 1] = math.nan
    _assert_falls_back(table)


def test_reaper_profile_takes_rows(tmp_path):
    """The reaper is not even: its CSV is one ``_rows`` call over every node."""
    sol = integrate_grim_reaper(GrimReaperParams(lam=0.5), (-5.0, 5.0))
    _assert_falls_back(np.column_stack([sol.t, sol.g, sol.gp, sol.node_defect]))
