"""Golden output hashes for the ``residual``, ``mesh`` and ``profile`` commands.

Each test runs one command and compares the sha256 of every file it writes
with a pinned value.  The residual files are pinned on a small non-square
grid for all five CLI families in all three modes, the OBJ mesh for three
families.  The family parameters avoid the defaults where that makes both
factor curves vary.  A second set runs every family and every profile ODE
with no parameter flags, which pins the defaults its builder supplies; the
profile files are also pinned with every parameter flag of the ODE set.

A hash here may change only together with a CHANGES.md line that explains
why the bytes changed.  The profile CSV and the OBJ vertices are written by
a numpy ``%.12e`` kernel; the byte tests at the end compare it with
formatting every value, on random tables and raw 64-bit patterns.
"""
import hashlib
import math
import os
import tempfile
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from solsurf import GrimReaperParams, ResidualReport, export, integrate_grim_reaper
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
        "3ba4bdfd875b2d64516142df9254302d94cb83c4198929dd8ccc1f3c89b0065b",
        "751f053c8f735f1cbdaa3643132d492a6775dc758aa00c27b72c08c9ad1de09d",
    ),
    ("minimal-cylinder", "translator"): (
        "b1057bb42cad150f8ccf7adf0805712ee125b1824d992b7f6fad0b2526acdc76",
        "08db20a06e9720db395fe3f07386a55191a08182eb25089038a4f30f59054d34",
    ),
    ("minimal-cylinder", "conformal"): (
        "0cfc6a5835b17cc4e3774d472934d0b66336e18a8aa462bb22cfc33b34fe919d",
        "d0fb933eac63b96835f0fb7fbb4abfd941ce42a8d659282ca11e516b71ff234e",
    ),
    ("grim-reaper", "minimal"): (
        "d0012a64596a20ad79b0018502169cef9c94dacc4cfde603e6751324917123c5",
        "180ed8f24343461a92c89c21163fd4f5a63b45b93ed77604ea38617edeeae351",
    ),
    ("grim-reaper", "translator"): (
        "1446de106af4c4339b81cf440de009f308bd9e28055af49a892f08dd2ca8d342",
        "26b880146e5791f294bcdaf1025c5e481c4750059e52589b4291144d8b3bbd81",
    ),
    ("grim-reaper", "conformal"): (
        "9ed32365c6e26314d77bbe29550270eea460063b264fd2a69c11f42a0e000d4f",
        "85f633980896ec2c4e68912b3768859008504fff0994ab818af0dd45cfeca627",
    ),
    ("conformal-cylinder", "minimal"): (
        "fc5ba4a23b4514e345d14a96ba1bf9060e7a11e6f7ac2601f47cf48f4e55f074",
        "2656a5461a4f94db19c76e73181fe517931180f6d939376ed76df8e0e66ab9d8",
    ),
    ("conformal-cylinder", "translator"): (
        "9077823c3f45ede3d707f31faa8fcd78ffa2d4a1465b61791c38bc2c453d1311",
        "fd6e2b9b6d44c60b4edda454e3d817da83d2ba1f1d7ed726af5f6065181c83b2",
    ),
    ("conformal-cylinder", "conformal"): (
        "fc5b1e97de9238a4a0c90f2e33b247b5924d2a85aeadfbfc7791e69071f45dd4",
        "7eec5c0a92cecf54bc6f997bc56f6a6edee82f11a5d4e30ab33c6e4e026329da",
    ),
}

# family -> sha256 of <out>.obj
MESH_SHA256 = {
    "horosphere": "e95858e0a68d58c5b2e399f0b5b7b1e98bec8b79c1ec8f93d873dce385457900",
    "minimal-cylinder": "8baad803d29df55fc04d56f4c1db0cac3bea7acdcd7364a73b4f230422f38114",
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


# A sweep with failed nodes: on this s range the plane's f(s) = 2*s
# overflows on the upper 12 of the 23 s rows, so 204 of the 391 nodes fail.
# (sha256 of <out>.csv, sha256 of <out>.summary.txt)
FAILING_ARGS = ["--family", "vertical-plane", "--c", "2", "--s-range", "8e307:1e308",
                "--mode", "translator"]
FAILING_SHA256 = (
    "1a34d654b8a2a88b6b7ac2b0b817c5a92e765428a1cd5d3ede796a26c3519a50",
    "7ccb3fcd2a48342bd67c6b073174e36053cd1bff9dfaabbf906d33d113e933db",
)


def test_residual_command_forms_no_samples_table(tmp_path, monkeypatch):
    """``residual`` writes its files from the report's grid: with
    ``ResidualReport.samples`` and ``ResidualReport.failures`` made to
    raise, a sweep with failed nodes and one without exit 0 with their
    pinned bytes, so no command path forms a table or a tuple per node."""
    def refused(report):
        raise AssertionError("the residual command formed a table of nodes")

    monkeypatch.setattr(ResidualReport, "samples", property(refused))
    monkeypatch.setattr(ResidualReport, "failures", property(refused))
    for argv, expect in (
        (FAILING_ARGS, FAILING_SHA256),
        (["--family", "horosphere", *FAMILY_ARGS["horosphere"], "--mode", "translator"],
         RESIDUAL_SHA256["horosphere", "translator"]),
    ):
        out = tmp_path / "r"
        assert main(["residual", *argv, "--grid", GRID, "--out", str(out)]) == 0
        assert (_sha256(tmp_path / "r.csv"), _sha256(tmp_path / "r.summary.txt")) == expect


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
        "2baa62a7f233b3659cf366e3d97a28187c759c9c0e91d683cdb9f8581ef680b5",
        "c723067f6be88964f4360d6583d73e8f4883829f93aef30f7da6740eef35d637",
        "e7a53e79f28951df22fed7e9157615d9000c073d1f6f0e2830b5eaf7dc5fde3b",
    ),
    "conformal-cylinder": (
        "conformal",
        "d999aca0f0bbe409d3085d389027206ae90d9d281b725a837c37937ae3e5f060",
        "ee116c9ab36bc206f979487e9ac1fd8717a22cbdcd10bbaba20a5cae300044ba",
        "f3f915777e3c864f2f06f535934e88cedcd15ef33c93b9877e655fb201bd83b5",
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
        "7c273b8c537a6622ca85ad045fc482f9fd127127d77404d96a6d5a935d2096b9",
        "46c380fb31c412058d5c8d363a9d779d31060f27db7bdf7536270245e34352ac",
    ),
    ("grim-reaper", True): (
        "abc5e6deabd7406bf4228bf0a5a6b7c9f591eae56c492ce12a42034e2aed7d5c",
        "a7660b86ea3eb93c183f0ff54b76397c41c0f7ac608a6ddd1768213c3315e79a",
    ),
    ("conformal", True): (
        "3fe5f5a08d07a4e0e4edd10936cf596b84c76881ec7cd23a348f96af5d9efbc8",
        "e4dc08bfbbb6a620655756d8e6c648f6294ef187602a971bb17db2814cf376ba",
    ),
    ("minimal", False): (
        "2269b852199c6cc309402a8c4fe948e6249b239fa3f61f73c0cb0c462dddc6d0",
        "10ed2bfa9543e56cf9629e6696f2e6e7efbc598f663f963b121c20d6880fdb44",
    ),
    ("grim-reaper", False): (
        "8ced2cc0035501ee6b82c02165c764f53f17082cfdc2011b7bca5d5ffdff901a",
        "6ec8be11c97ac5ae9e25179c16c2bf5f1784371420b52c2992f042e56043b6f6",
    ),
    ("conformal", False): (
        "36876b5b4dac8d05084564f54928b35593bc8e3bf9374fb2fe50cc8a53c07894",
        "5a4f8d82bdc9ac3da849818f413c73d821c46e65cecaaf0f5ef625db0384bbcb",
    ),
}


@pytest.mark.parametrize("ode,flags", list(PROFILE_SHA256))
def test_profile_bytes(tmp_path, ode, flags):
    argv = ["profile", "--ode", ode, *(PROFILE_ARGS[ode] if flags else []),
            "--out", str(tmp_path / "p")]
    assert main(argv) == 0
    got = (_sha256(tmp_path / "p.csv"), _sha256(tmp_path / "p.events.txt"))
    assert got == PROFILE_SHA256[ode, flags]


# --- the profile CSV against formatting every value ------------------------

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


def _assert_profile_bytes(table):
    """``write_profile_csv`` writes the header, then ``table`` in the bytes
    of the oracle."""
    sol = SimpleNamespace(t=table[:, 0], g=table[:, 1], gp=table[:, 2], node_defect=table[:, 3])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.csv")
        assert export.write_profile_csv(path, sol) == len(table)
        with open(path, "rb") as fh:
            text = fh.read().decode("ascii")
    assert text == "t,g,gp,first_integral_defect\n" + _every_value(table)


@settings(max_examples=300, deadline=None)
@given(_ROWS)
@example(_EXTREME)
def test_mirrored_profile_bytes(right):
    """A mirrored table, as every minimal and conformal profile is, is
    written in the bytes of formatting every value."""
    _assert_profile_bytes(_mirrored(right))


@settings(max_examples=100, deadline=None)
@given(_ROWS.filter(lambda rows: len(rows) > 1), st.data())
@example(_EXTREME, None)
def test_tables_that_are_not_mirrors_bytes(right, data):
    """An even-length table, one that is mirrored but for one bit, and one
    that holds a NaN where it is otherwise mirrored are written in the
    bytes of formatting every value."""
    table = _mirrored(right)
    _assert_profile_bytes(table[1:])
    i = 0 if data is None else data.draw(st.integers(0, table.size - 1).filter(
        lambda k: k // 4 != len(table) // 2), label="flipped")
    flipped = table.copy()
    flipped.reshape(-1)[i:i + 1].view(np.int64)[0] ^= 1
    _assert_profile_bytes(flipped)
    table[0, 1] = table[-1, 1] = math.nan
    _assert_profile_bytes(table)


def test_reaper_profile_bytes():
    """The reaper is not even, and its defect column is all zeros."""
    sol = integrate_grim_reaper(GrimReaperParams(lam=0.5), (-5.0, 5.0))
    _assert_profile_bytes(np.column_stack([sol.t, sol.g, sol.gp, sol.node_defect]))


# --- the %.12e kernel --------------------------------------------------------

def _float(bits: int) -> float:
    return float(np.int64(bits).view(np.float64))


# Any 64-bit pattern, NaNs of every payload included, or a float in the
# kernel's own range [1e-31, 1e56], which raw patterns reach one time in 7.
_CELL = st.one_of(
    st.integers(-(1 << 63), (1 << 63) - 1).map(_float),
    st.floats(1e-31, 1e56).flatmap(lambda x: st.sampled_from([x, -x])),
)
# A lead of 0, 2 or 8 bytes and separators of 1 to 4.
_LEADS = st.sampled_from(["", "v ", "leadbyte"])
_SEPS = st.sampled_from([",", " ", "\n", "\r\n", " | "])


@st.composite
def _templated_tables(draw):
    """``(cells, lead, seps)``: 1 to 30 rows of 1 to 4 cells, and the row
    template's lead and separators."""
    k = draw(st.integers(1, 4))
    cells = draw(st.lists(st.lists(_CELL, min_size=k, max_size=k), min_size=1, max_size=30))
    return cells, draw(_LEADS), draw(st.lists(_SEPS, min_size=k, max_size=k))


# 13 digits and a 5: ties and near-ties at the 13th digit.
_HALVES = [1.0000000000005, 2.5000000000005, -1.2345678901235e-3, 1234567890123.5,
           4.4444444444445e20, -7.7777777777775e-21, 5.0000000000005e-25, 3.0000000000005e40]
# Decades, the last value that rounds up into one, and the float below
# one (whose log10 rounds up to the decade), at either factor.
_EDGES = [9.9999999999995, 9.9999999999995e-1, -9.9999999999995e10, 9.9999999999995e33,
          9.9999999999995e-11, 1e22, 1e23, -1e34, 1e35, 1e-10, 1e-11, 9.99999999999e33,
          1.0000000000001e-10, 1e-31, 1e56, 9.99e-32, 1.01e56,
          *(math.nextafter(x, 0.0) for x in (100.0, 1e15, 1e22, -1e-5, 1e-10, 1e40))]
_SPECIALS = [0.0, -0.0, 5e-324, -2.2250738585072009e-308, 2.2250738585072014e-308,
             math.inf, -math.inf, math.nan, _float(-1)]


@settings(max_examples=300, deadline=None)
@given(_templated_tables())
@example(([_HALVES], "", [","] * len(_HALVES)))
@example(([_EDGES], "v ", ["\n"] * len(_EDGES)))
@example(([[x, -x] for x in _SPECIALS], "", [",", "\n"]))
@example(([[x] for x in _HALVES + _EDGES], "leadbyte", [" | "]))
def test_num_rows_is_fmt_of_every_cell(case):
    """The kernel writes every cell of a table, raw 64-bit patterns and
    ties at the 13th digit among them, as ``fmt`` does, between the lead
    and separators of the row template."""
    cells, lead, seps = case
    template = lead + "".join(export._NUM + sep for sep in seps)
    table = np.array(cells, dtype=float).reshape(len(cells), len(seps))
    want = "".join(lead + "".join(fmt(x) + sep for x, sep in zip(row, seps))
                   for row in table.tolist())
    assert "".join(export._num_rows(template, table)) == want


def test_num_rows_chunks_whole_rows():
    """Each chunk holds whole rows and at most ``_CHUNK_CELLS`` cells."""
    table = np.linspace(-2.0, 3.0, 3 * (export._CHUNK_CELLS + 7)).reshape(-1, 3)
    chunks = list(export._num_rows("v %.12e %.12e %.12e\n", table))
    rows = [chunk.count("\n") for chunk in chunks]
    assert rows == [export._CHUNK_CELLS // 3] * 3 + [len(table) - 3 * (export._CHUNK_CELLS // 3)]
    assert all(chunk.endswith("\n") for chunk in chunks)


def test_profile_csv_peak_memory(tmp_path):
    """Writing a profile of 2*65,536 nodes, the most two branches can
    step, holds its ``(n, 4)`` table and one chunk's text and temporaries:
    at most 1.5 times the table's bytes.  A kernel that formats the whole
    table at once holds about 17 times."""
    n = 2 * 65536
    t = np.linspace(-3.0, 3.0, n)
    sol = SimpleNamespace(t=t, g=np.cosh(t), gp=np.sinh(t),
                          node_defect=np.random.default_rng(1).standard_normal(n) * 1e-16)
    path = tmp_path / "p.csv"
    export.write_profile_csv(path, sol)
    tracemalloc.start()
    try:
        export.write_profile_csv(path, sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (n * 4 * 8), peak / (n * 4 * 8)
