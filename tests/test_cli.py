import json
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, cap_structure, load_json, load_structure, random_structure

import ledc
from ledc.cli import _format_json, code_from_dict, code_to_dict, run, structure_from_dict
from ledc.code import LedcCode, encode, erasure_decode
from ledc.construct import construct_cyclic, construct_nested, construct_random
from ledc.errors import UnrecoverableErasurePattern
from ledc.field import make_field
from ledc.linalg import MatrixGF
from ledc.locality import LocalityStructure

UNEQUAL_R = str(FIXTURES / "unequal_r_structure.json")
EQUAL_R = str(FIXTURES / "equal_r_structure.json")
SUBOPT = str(FIXTURES / "suboptimal_code.json")
CYC_DESC = str(FIXTURES / "cyclic_code_descending.json")
CYC = str(FIXTURES / "cyclic_code.json")
CYC_JSON = load_json("cyclic_code.json")
T0 = {"q": 7, "groups": [{"K": [1, 2], "n": 3}, {"K": [3], "n": 2}]}  # equal redundancy, no shared symbol


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(*argv):
    """Run the CLI in a fresh interpreter, as from a shell."""
    src = str(Path(ledc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ledc.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )


def assert_clean_exit(result, code, error):
    assert result.returncode == code
    assert result.stderr.startswith(f"error={error}: ")
    assert "Traceback" not in result.stderr


def failing_erasure_pattern(code, size):
    word = encode(code, [1] * code.structure.k)
    for erased in combinations(range(code.structure.n), size):
        received = [None if j in erased else word[j] for j in range(code.structure.n)]
        try:
            erasure_decode(code, received)
        except UnrecoverableErasurePattern:
            return [j + 1 for j in erased]
    raise AssertionError(f"no failing {size}-erasure pattern")


# ---------- bound ----------


def test_bound_reference_structures(capsys):
    assert run(["bound", UNEQUAL_R]) == 0
    assert "dmax=4" in capsys.readouterr().out
    assert run(["bound", EQUAL_R]) == 0
    out = capsys.readouterr().out
    assert "dmax=5" in out
    assert "blocks=1" in out
    assert "data=1" in out


def test_bound_at_group_cap(tmp_path, capsys):
    s = cap_structure()
    groups = [{"K": list(Kg), "n": len(Ng)} for Kg, Ng in zip(s.K, s.N)]
    assert run(["bound", write_json(tmp_path, "cap.json", {"q": 13, "groups": groups})]) == 0
    assert capsys.readouterr().out == "dmax=6\nblocks=12,18\ndata=6,15\n"


def test_bound_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["bound", str(bad)]) == 2
    assert run(["bound", str(tmp_path / "missing.json")]) == 2
    composite = write_json(tmp_path, "c.json", {"q": 12, "groups": [{"K": [1], "n": 1}]})
    assert run(["bound", composite]) == 2
    assert "error=" in capsys.readouterr().err


def test_bound_reads_a_code_files_structure(tmp_path, capsys):
    for path in (SUBOPT, CYC_DESC, CYC):
        structure = write_json(tmp_path, "structure.json", load_json(Path(path).name)["structure"])
        assert run(["bound", structure]) == 0
        expected = capsys.readouterr().out
        assert run(["bound", path]) == 0
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "text",
    [
        '{"q": 1e400, "groups": [{"K": [1], "n": 2}]}',  # float overflow to inf
        "[" * 100_000,  # past the JSON decoder's recursion limit
        '{"q": 13.7, "groups": [{"K": [1], "n": 2}]}',
        '{"q": 13, "groups": [{"K": [1, true], "n": 3}]}',
    ],
    ids=["huge-float", "deep-nesting", "fractional-q", "boolean-in-K"],
)
def test_structure_file_input_gaps_exit_2(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert_clean_exit(run_cli("bound", str(path)), 2, "ValueError")


@pytest.mark.parametrize(
    "command, payload, field",
    [
        ("verify", {**CYC_JSON, "G": 5}, "'G'"),
        ("verify", {**CYC_JSON, "G": [5]}, "row 1 of 'G'"),
        ("verify", {**CYC_JSON, "structure": 5}, "structure"),
        ("bound", {**CYC_JSON, "structure": 5}, "structure"),
        ("bound", {"q": 13, "groups": [5]}, "group 1"),
        ("bound", {"q": 13, "groups": [{"n": 2}]}, "'K'"),
        ("verify", {key: v for key, v in CYC_JSON.items() if key != "structure"}, "'structure'"),
        ("verify", [1, 2], "code file"),
        ("bound", [1, 2], "structure"),
        ("verify", "code", "code file"),
        ("bound", "structure", "structure"),
        ("bound", {"q": 13, "groups": []}, "'groups'"),
        ("bound", {"q": 13, "groups": {"K": [1], "n": 2}}, "'groups'"),
    ],
    ids=[
        "G-int", "G-row-int", "structure-int", "bound-structure-int", "group-int", "group-without-K",
        "no-structure", "top-list", "bound-top-list", "top-string", "bound-top-string",
        "groups-empty", "groups-object",
    ],
)
def test_malformed_files_exit_2_naming_the_field(tmp_path, command, payload, field):
    result = run_cli(command, write_json(tmp_path, "bad.json", payload))
    assert_clean_exit(result, 2, "ValueError")
    assert field in result.stderr
    assert "TypeError" not in result.stderr and "KeyError" not in result.stderr


@pytest.mark.parametrize(
    "payload",
    [
        {"q": 13, "groups": [{"K": [1000000000], "n": 1}]},
        {"q": 13, "groups": [{"K": [1], "n": 1, "N": [1000000000]}]},
    ],
    ids=["huge-data-index", "huge-position"],
)
def test_huge_indices_exit_2_fast(tmp_path, capsys, payload):
    """Coverage is settled by counting, so a large index named in a tiny file costs nothing."""
    path = write_json(tmp_path, "huge.json", payload)
    start = time.perf_counter()
    assert run(["bound", path]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error=CoverageGap: 999999999 ")


def test_index_below_1_exits_2_naming_it(tmp_path, capsys):
    path = write_json(tmp_path, "zero.json", {"q": 13, "groups": [{"K": [0], "n": 1}]})
    assert run(["bound", path]) == 2
    assert capsys.readouterr().err == "error=CoverageGap: group 1 has data index 0, below 1\n"


def test_each_command_checks_its_structure_once(tmp_path, monkeypatch, capsys):
    calls = []
    check = LocalityStructure.__post_init__

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(LocalityStructure, "__post_init__", counted)
    commands = [
        ["bound", EQUAL_R],
        ["construct", UNEQUAL_R, "--method", "nested"],
        ["construct", EQUAL_R, "--method", "cyclic"],
        ["construct", UNEQUAL_R, "--method", "random", "--q", "101", "--seed", "5"],
        ["verify", CYC],
        ["encode", CYC, "--data", "1,2,3,4,5,6,7"],
        ["decode", SUBOPT, "--received", "?,?,3,1,0,1,4,2,2,3"],
        ["demo", CYC, "--fail", "1,2"],
    ]
    for argv in commands:
        calls.clear()
        assert run(argv) in (0, 5), argv
        assert len(calls) == 1, argv
    capsys.readouterr()


# ---------- construct ----------


def test_construct_nested_then_verify(tmp_path, capsys):
    out = str(tmp_path / "code.json")
    assert run(["construct", UNEQUAL_R, "--method", "nested", "--out", out]) == 0
    printed = capsys.readouterr().out
    assert f"wrote={out}" in printed
    assert "claimed_distance=4" in printed
    assert run(["verify", out]) == 0
    assert "optimal=true" in capsys.readouterr().out


def test_construct_to_stdout_round_trips(capsys):
    assert run(["construct", UNEQUAL_R, "--method", "nested"]) == 0
    payload = json.loads(capsys.readouterr().out)
    code = code_from_dict(payload)
    assert code.meta["claimed_distance"] == 4
    assert code_to_dict(code) == payload


def test_construct_cyclic_matches_fixture(tmp_path, capsys):
    out = str(tmp_path / "cyclic.json")
    assert run(["construct", EQUAL_R, "--method", "cyclic", "--out", out]) == 0
    written = json.loads((tmp_path / "cyclic.json").read_text())
    assert written["omega"] == 2
    assert written["G"] == load_json("cyclic_code.json")["G"]


def test_construct_cyclic_records_omega_from_the_code(tmp_path, capsys):
    """Cyclic writes the omega it built with, also with no shared symbols, and a chosen omega; never a seed."""
    s = write_json(tmp_path, "t0.json", {"q": 13, "groups": [{"K": [1, 2], "n": 4}, {"K": [3, 4, 5], "n": 5}]})
    assert run(["construct", s, "--method", "cyclic"]) == 0
    written = json.loads(capsys.readouterr().out)
    assert (written["method"], written["omega"]) == ("cyclic", 2)
    assert "seed" not in written
    assert run(["construct", EQUAL_R, "--method", "cyclic", "--omega", "6"]) == 0
    written = json.loads(capsys.readouterr().out)
    assert written["omega"] == 6
    assert "seed" not in written


def test_construct_cyclic_writes_omega_as_its_residue(tmp_path, capsys):
    """--omega -2 and --omega 24 name the element 11 of GF(13): the three spellings write the same file."""
    written = []
    for omega in ("-2", "24", "11"):
        out = tmp_path / f"cyclic{omega}.json"
        assert run(["construct", EQUAL_R, "--method", "cyclic", "--omega", omega, "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1] == written[2]
    assert json.loads(written[0])["omega"] == 11


def test_construct_cyclic_without_shared_symbols_writes_the_cyclic_layout(tmp_path, capsys):
    """t = 0: the private rows x^i u with u = x - w^0, and omega is written as for t >= 1."""
    assert run(["construct", write_json(tmp_path, "t0.json", T0), "--method", "cyclic"]) == 0
    structure = {"q": 7, "groups": [{"K": [1, 2], "n": 3, "N": [1, 2, 3]}, {"K": [3], "n": 2, "N": [4, 5]}]}
    G = [[6, 1, 0, 0, 0], [0, 6, 1, 0, 0], [0, 0, 0, 6, 1]]
    expected = {"structure": structure, "method": "cyclic", "G": G, "claimed_distance": 2, "omega": 3}
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_construct_cyclic_checks_omega_without_shared_symbols(tmp_path, capsys):
    """t = 0 takes --omega as t >= 1 does: 2 is GF(13)'s smallest generator, so it changes nothing."""
    s = write_json(tmp_path, "t0.json", {"q": 13, "groups": [{"K": [1, 2, 3], "n": 5}, {"K": [4, 5, 6], "n": 5}]})
    for omega in ("4", "0"):
        assert run(["construct", s, "--method", "cyclic", "--omega", omega]) == 3
        assert "error=NotPrimitive" in capsys.readouterr().err
    assert run(["construct", s, "--method", "cyclic", "--omega", "2"]) == 0
    with_omega = capsys.readouterr().out
    assert run(["construct", s, "--method", "cyclic"]) == 0
    assert capsys.readouterr().out == with_omega


def test_construct_precondition_exit(tmp_path, capsys):
    s = write_json(
        tmp_path,
        "tight.json",
        {"q": 7, "groups": [{"K": [1, 2, 3, 4], "n": 5}, {"K": [2, 3, 4, 5], "n": 5}]},
    )
    assert run(["construct", s, "--method", "nested"]) == 3
    assert "error=PreconditionViolated" in capsys.readouterr().err
    assert run(["construct", UNEQUAL_R, "--method", "cyclic"]) == 3


@pytest.mark.parametrize(
    "argv, build",
    [
        ([UNEQUAL_R, "--method", "nested"], lambda: construct_nested(*load_structure("unequal_r_structure.json"))),
        ([EQUAL_R, "--method", "cyclic"], lambda: construct_cyclic(*load_structure("equal_r_structure.json"))[0]),
        (
            [UNEQUAL_R, "--method", "random", "--q", "101", "--seed", "5"],
            lambda: construct_random(load_structure("unequal_r_structure.json")[0], make_field(101), 5, 20),
        ),
    ],
    ids=["nested", "cyclic", "random"],
)
def test_construct_writes_the_json_encoders_bytes(tmp_path, capsys, argv, build):
    """A new file and stdout both hold json.dumps(..., indent=2) of the code, plus one newline."""
    expected = json.dumps(code_to_dict(build()), indent=2) + "\n"
    out = tmp_path / "new" / "code.json"
    out.parent.mkdir()
    assert run(["construct", *argv, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == expected
    capsys.readouterr()
    assert run(["construct", *argv]) == 0
    assert capsys.readouterr().out == expected


def test_construct_overwrites_in_place(tmp_path, capsys):
    """A longer old file is cut to the new bytes; its inode, a hard link to it and its mode survive."""
    out, link = tmp_path / "code.json", tmp_path / "link.json"
    out.write_text("x" * 100_000)
    out.chmod(0o600)
    os.link(out, link)
    before = out.stat()
    assert run(["construct", UNEQUAL_R, "--method", "nested", "--out", str(out)]) == 0
    assert run(["construct", UNEQUAL_R, "--method", "nested"]) == 0
    printed = capsys.readouterr().out
    expected = printed.split("claimed_distance=4\n", 1)[1]
    assert out.read_text(encoding="utf-8") == link.read_text(encoding="utf-8") == expected
    after = out.stat()
    assert (after.st_ino, after.st_nlink, after.st_mode) == (before.st_ino, 2, before.st_mode)


def test_construct_out_to_devices_and_pipes(tmp_path, capsys):
    """Only a regular file is truncated: /dev/null takes the bytes, and /dev/stdout on a pipe carries them."""
    assert run(["construct", UNEQUAL_R, "--method", "nested", "--out", os.devnull]) == 0
    assert capsys.readouterr().out == f"wrote={os.devnull}\nclaimed_distance=4\n"
    assert run(["construct", UNEQUAL_R, "--method", "nested"]) == 0
    payload = capsys.readouterr().out
    result = run_cli("construct", UNEQUAL_R, "--method", "nested", "--out", "/dev/stdout")
    assert result.returncode == 0, result.stderr
    assert result.stdout == payload + "wrote=/dev/stdout\nclaimed_distance=4\n"


def test_construct_out_that_cannot_be_written_exits_2(tmp_path, capsys):
    for out, error in ((tmp_path, "IsADirectoryError"), (tmp_path / "missing" / "code.json", "FileNotFoundError")):
        assert run(["construct", UNEQUAL_R, "--method", "nested", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error={error}: ")
        assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=5, max_size=5).filter(lambda v: v[0] + v[1] and v[1] + v[2]),
    st.sampled_from(("nested", "cyclic", "random")), st.sampled_from((7, 13, 257)), st.integers(-1, 3000),
)
def test_construct_out_over_an_old_file_fuzz(shape, method, q, old_size):
    """Two groups with a, t, b private, shared, private data symbols and redundancies r1, r2, over no file (-1)
    or an old file of any length: the file ends up holding exactly what stdout shows on exit 0, and keeps its old
    bytes on any other exit."""
    a, t, b, r1, r2 = shape
    groups = [{"K": list(range(1, a + t + 1)), "n": a + t + r1}, {"K": list(range(a + 1, a + t + b + 1)), "n": t + b + r2}]
    structure = {"q": q, "groups": groups}
    old = b"\xff" * old_size if old_size >= 0 else None
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "structure.json"), Path(tmp, "out.json")
        Path(path).write_text(json.dumps(structure))
        if old is not None:
            out.write_bytes(old)
        printed = StringIO()
        with redirect_stdout(printed), redirect_stderr(StringIO()):
            status = run(["construct", path, "--method", method])
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            assert run(["construct", path, "--method", method, "--out", str(out)]) == status
        assert status in (0, 3)
        if status == 0:
            assert out.read_text(encoding="utf-8") == printed.getvalue()
        else:
            assert (out.read_bytes() if out.exists() else None) == old


def test_construct_field_override(tmp_path, capsys):
    out = str(tmp_path / "f11.json")
    assert run(["construct", UNEQUAL_R, "--method", "nested", "--q", "11", "--out", out]) == 0
    assert json.loads((tmp_path / "f11.json").read_text())["structure"]["q"] == 11
    assert run(["construct", UNEQUAL_R, "--method", "nested", "--q", "6"]) == 2


@pytest.mark.parametrize(
    "method, flag, good",
    [("nested", "--q", "13"), ("cyclic", "--omega", "11"), ("random", "--seed", "15"), ("random", "--max-attempts", "20")],
)
def test_construct_integer_options_are_decimal(tmp_path, capsys, method, flag, good):
    """Each integer option takes ASCII digits after an optional '-', where int() also reads '1_3', '+13' and '١٣'."""
    s = EQUAL_R if method == "cyclic" else UNEQUAL_R
    field = ["--q", "101"] if method == "random" else []
    assert run(["construct", s, "--method", method, *field, flag, good]) == 0
    capsys.readouterr()
    for spelling in (good[0] + "_" + good[1:], "+" + good, good.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))):
        out = tmp_path / "code.json"
        assert run(["construct", s, "--method", method, *field, flag, spelling, "--out", str(out)]) == 2, spelling
        assert f"argument {flag}: invalid decimal value: {spelling!r}" in capsys.readouterr().err
        assert not out.exists()


def test_construct_refuses_options_of_other_methods(tmp_path, capsys):
    """--omega belongs to cyclic, --seed and --max-attempts to random: another method exits 2 naming both."""
    for method, flag, value, owner in (
        ("nested", "--omega", "4", "cyclic"),
        ("random", "--omega", "2", "cyclic"),
        ("nested", "--seed", "0", "random"),
        ("cyclic", "--seed", "3", "random"),
        ("nested", "--max-attempts", "20", "random"),
        ("cyclic", "--max-attempts", "1", "random"),
    ):
        out = tmp_path / "code.json"
        assert run(["construct", EQUAL_R, "--method", method, flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error=ValueError: {flag} belongs to --method {owner}, not {method}\n"
        assert not out.exists()
    assert run(["construct", UNEQUAL_R, "--method", "random", "--q", "101"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0


def test_construct_random_records_seed(tmp_path, capsys):
    out = str(tmp_path / "rand.json")
    argv = ["construct", UNEQUAL_R, "--method", "random", "--q", "101", "--seed", "5", "--out", out]
    assert run(argv) == 0
    written = json.loads((tmp_path / "rand.json").read_text())
    assert written["seed"] == 5
    assert run(["verify", out]) == 0
    capsys.readouterr()


def test_construct_random_exhaustion_exit(tmp_path, capsys):
    s = write_json(tmp_path, "binary.json", {"q": 2, "groups": [{"K": [1, 2], "n": 4}]})
    assert run(["construct", s, "--method", "random", "--max-attempts", "5"]) == 3
    assert "error=ExhaustedAttempts" in capsys.readouterr().err


def test_construct_random_past_group_cap_exits_2(tmp_path):
    groups = [{"K": [i], "n": 1} for i in range(1, 22)]
    s = write_json(tmp_path, "many.json", {"q": 7, "groups": groups})
    assert_clean_exit(run_cli("construct", s, "--method", "random"), 2, "TooManyGroups")


def test_construct_random_past_local_mds_budget_exits_3(tmp_path):
    # C(30,15) local minors exceed the rank budget before any is eliminated
    s = write_json(tmp_path, "wide.json", {"q": 2**31 - 1, "groups": [{"K": list(range(1, 16)), "n": 30}]})
    assert_clean_exit(run_cli("construct", s, "--method", "random"), 3, "TooLarge")


# ---------- verify ----------


def test_verify_good_code(capsys):
    assert run(["verify", CYC_DESC]) == 0
    out = capsys.readouterr().out
    for line in ("support=ok", "local_mds_1=ok", "local_mds_2=ok",
                 "distance=5", "claimed=5", "dmax=5", "optimal=true"):
        assert line in out


def test_verify_suboptimal_code(capsys):
    assert run(["verify", SUBOPT]) == 4
    out = capsys.readouterr().out
    assert "distance=4" in out
    assert "dmax=5" in out
    assert "optimal=false" in out


def test_verify_explicit_method(capsys):
    assert run(["verify", SUBOPT, "--distance-method", "exhaustive"]) == 4
    assert run(["verify", SUBOPT, "--distance-method", "both"]) == 4
    capsys.readouterr()


def test_verify_support_tamper(tmp_path, capsys):
    payload = load_json("suboptimal_code.json")
    payload["G"][0][5] = 1  # data 1 leaks into group 2 positions
    tampered = write_json(tmp_path, "tampered.json", payload)
    assert run(["verify", tampered]) == 4
    assert "support=FAIL" in capsys.readouterr().out


def test_verify_rejects_out_of_field_entries(tmp_path, capsys):
    payload = load_json("suboptimal_code.json")
    payload["G"][0][0] = 7
    assert run(["verify", write_json(tmp_path, "oob.json", payload)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "edit, message",
    [
        ({(0, 0): -1}, "matrix entry -1 outside [0, 7)"),
        ({(0, 3): 10**30}, f"matrix entry {10**30} outside [0, 7)"),
        ({(1, 0): 9, (0, 7): -3}, "matrix entry -3 outside [0, 7)"),  # the first in row order
        ({(1, 2): True, (0, 1): 8}, "expected an integer, got True"),  # types before the range
        ({(2, 4): 2.0}, "expected an integer, got 2.0"),
    ],
    ids=["negative", "past-int64", "row-order", "bool-before-range", "float"],
)
def test_code_file_entries_checked_types_then_range(tmp_path, capsys, edit, message):
    payload = load_json("suboptimal_code.json")
    for (i, j), v in edit.items():
        payload["G"][i][j] = v
    assert run(["verify", write_json(tmp_path, "bad.json", payload)]) == 2
    assert capsys.readouterr().err == f"error=ValueError: {message}\n"


@pytest.mark.parametrize(
    "reshape, message",
    [
        (lambda G: G[:2] + [G[2][:-1]] + G[3:], "row 3 of 'G' has 9 entries, expected n=10"),
        (lambda G: G[:4] + [G[4] + [0]], "row 5 of 'G' has 11 entries, expected n=10"),
        (lambda G: [G[0], G[1][:4], G[2], G[3] + [1, 2], G[4]], "row 2 of 'G' has 4 entries, expected n=10"),
        (lambda G: [row[:-1] for row in G], "row 1 of 'G' has 9 entries, expected n=10"),
        (lambda G: [row + [0] for row in G[:4]], "row 1 of 'G' has 11 entries, expected n=10"),  # rows before count
        (lambda G: G[:4], "'G' has 4 rows, expected k=5"),
        (lambda G: [], "'G' has 0 rows, expected k=5"),
    ],
    ids=["short", "long", "ragged", "all-short", "long-and-few", "too-few", "empty"],
)
@pytest.mark.parametrize("command", [["verify"], ["encode", "--data", "1,2,3,4,5"]])
def test_code_file_rows_checked_against_the_structure(tmp_path, capsys, reshape, message, command):
    """The file's G is k rows of n entries; the first row that is not is named."""
    payload = load_json("suboptimal_code.json")
    payload["G"] = reshape(payload["G"])
    assert run([command[0], write_json(tmp_path, "bad.json", payload), *command[1:]]) == 2
    assert capsys.readouterr() == ("", f"error=ValueError: {message}\n")


def test_verify_past_budget_exits_3(tmp_path, capsys):
    # 101^5 > 10^7 picks the rank path, whose erasure patterns of n=30 exceed its
    # budget; forced exhaustive enumeration exceeds its q^k <= 10^9 budget too
    wide = write_json(tmp_path, "wide.json", {
        "structure": {"q": 101, "groups": [{"K": [1, 2, 3, 4, 5], "n": 30}]},
        "method": "random",
        "G": [[1 if i == j else 0 for j in range(30)] for i in range(5)],
        "claimed_distance": 1,
    })
    for extra in ([], ["--distance-method", "exhaustive"]):
        assert run(["verify", wide, *extra]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error=TooLarge: ")


def in_three_bases(shapes):
    """Each (q, n_g, k_g, t, d) as built, with row 1 scaled by 2, and with row k_g += 3 row 1, where R_1 = N_1 lies
    in R_(k_g), since k_g is shared; the code as built keeps the shape's own id."""
    return [
        pytest.param(*shape, basis, id="-".join(map(str, shape)) + ("" if basis == "built" else f"-{basis}"))
        for shape in shapes
        for basis in ("built", "scaled", "added")
    ]


def verify_size_ceiling(tmp_path, capsys, method, q, n_g, k_g, t, d, basis):
    """Construct the two-group code, rewrite its basis, and check that `ledc verify` proves it optimal within 1 s."""
    K = [list(range(1, k_g + 1)), list(range(k_g - t + 1, 2 * k_g - t + 1))]
    structure = write_json(tmp_path, "s.json", {"q": q, "groups": [{"K": Kg, "n": n_g} for Kg in K]})
    code = str(tmp_path / "code.json")
    assert run(["construct", structure, "--method", method, "--out", code]) == 0
    assert capsys.readouterr().out == f"wrote={code}\nclaimed_distance={d}\n"
    payload = json.loads(Path(code).read_text())
    G = payload["G"]
    if basis == "scaled":
        G[0] = [2 * v % q for v in G[0]]
    if basis == "added":
        G[k_g - 1] = [(v + 3 * u) % q for u, v in zip(G[0], G[k_g - 1])]
    code = write_json(tmp_path, "rewritten.json", payload)
    start = time.perf_counter()
    result = run_cli("verify", code)
    wall = time.perf_counter() - start
    assert (result.returncode, result.stderr) == (0, "")
    lines = ["support=ok", "local_mds_1=ok", "local_mds_2=ok", f"distance={d}", f"claimed={d}", f"dmax={d}", "optimal=true"]
    assert result.stdout.splitlines() == lines
    assert wall < 1.0, wall


@pytest.mark.parametrize(
    "q, n_g, k_g, t, d, basis", in_three_bases([(101, 30, 24, 3, 10), (101, 30, 20, 8, 19), (257, 50, 40, 5, 16)])
)
def test_verify_size_ceiling_cyclic_codes_by_their_roots(tmp_path, capsys, q, n_g, k_g, t, d, basis):
    """Codes whose distance levels, C(60,9), C(60,18) and C(100,15) patterns, are past the rank budget: the parity
    checks at their roots prove d = dmax and local MDS in each basis."""
    verify_size_ceiling(tmp_path, capsys, "cyclic", q, n_g, k_g, t, d, basis)


@pytest.mark.parametrize("q, n_g, k_g, t, d, basis", in_three_bases([(41, 40, 25, 5, 21), (61, 60, 40, 8, 29)]))
def test_verify_size_ceiling_nested_codes_by_their_vandermonde_blocks(tmp_path, capsys, q, n_g, k_g, t, d, basis):
    """Nested codes whose local MDS levels, C(40,15) and C(60,20) patterns, are past the rank budget: the parity
    checks at the points 1..n_g prove local MDS and d = dmax in each basis."""
    verify_size_ceiling(tmp_path, capsys, "nested", q, n_g, k_g, t, d, basis)


def test_verify_wide_code_with_omega_past_budget_exits_3(tmp_path):
    """A hint does not lift the budgets: the parity checks of a wide group, 2 x 20,000 over GF(65537) with
    delta - 1 = 19,998, would take past RANK_BUDGET products at the roots of its omega, or at the points 1..n of its
    twin without one, so the local walk refuses both at once, as with no hint."""
    n = 20_000
    G = [[1 + j % 7 for j in range(n)], [1 + 3 * j % 11 for j in range(n)]]
    structure = {"q": 65537, "groups": [{"K": [1, 2], "n": n}]}
    for name, hint in (("wide.json", {"method": "cyclic", "omega": 3}), ("twin.json", {"method": "nested"})):
        wide = write_json(tmp_path, name, {"structure": structure, **hint, "G": G, "claimed_distance": n - 1})
        start = time.perf_counter()
        result = run_cli("verify", wide)
        assert time.perf_counter() - start < 10
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr == "error=TooLarge: C(20000,19998) erasure patterns exceed the budget\n"


def test_verify_past_group_cap_exits_2(tmp_path):
    many = write_json(tmp_path, "many.json", {
        "structure": {"q": 7, "groups": [{"K": [i], "n": 1} for i in range(1, 22)]},
        "method": "random",
        "G": [[int(i == j) for j in range(21)] for i in range(21)],
        "claimed_distance": 1,
    })
    assert_clean_exit(run_cli("verify", many), 2, "TooManyGroups")


@pytest.mark.parametrize(
    "groups, q, method, distance",
    [
        ([(range(1, 16), 20), (range(14, 29), 20)], 43, "cyclic", 8),
        ([(range(1, 8), 11), (range(6, 13), 11), (range(11, 17), 11)], 65537, "random", 7),
    ],
    ids=["cyclic-40-28-gf43", "random-3-groups-gf65537"],
)
def test_construct_then_verify_certified_by_local_subcodes(tmp_path, capsys, groups, q, method, distance):
    """The [40,28] code's C(40,7) erasure patterns are past the walk's budget; its local subcodes prove d = dmax."""
    s = write_json(tmp_path, "s.json", {"q": q, "groups": [{"K": list(K), "n": n} for K, n in groups]})
    out = str(tmp_path / "code.json")
    assert run(["construct", s, "--method", method, "--out", out]) == 0
    assert f"claimed_distance={distance}" in capsys.readouterr().out
    assert run(["verify", out]) == 0
    printed = capsys.readouterr().out
    assert f"distance={distance}\nclaimed={distance}\ndmax={distance}\noptimal=true\n" in printed


def test_declared_sizes_past_the_cap_exit_2_fast(tmp_path, capsys):
    """Sizes are checked before any position is listed, so a declared n of 10^9 costs nothing."""
    huge = write_json(tmp_path, "huge.json", {"q": 13, "groups": [{"K": [1], "n": 10**9}]})
    start = time.perf_counter()
    assert run(["bound", huge]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error=ValueError: groups declare 1000000000 positions, past the cap of 100000\n"
    split = write_json(tmp_path, "split.json", {"q": 13, "groups": [{"K": [1], "n": 60000}, {"K": [1], "n": 40001}]})
    assert run(["bound", split]) == 2
    assert "groups declare 100001 positions" in capsys.readouterr().err
    at_cap = write_json(tmp_path, "cap.json", {"q": 13, "groups": [{"K": [1], "n": 10**5}]})
    assert run(["bound", at_cap]) == 0
    assert capsys.readouterr().out == "dmax=100000\nblocks=1\ndata=1\n"


# ---------- encode / decode ----------


def test_encode_zero_vector(capsys):
    assert run(["encode", SUBOPT, "--data", "0,0,0,0,0"]) == 0
    assert "codeword=0,0,0,0,0,0,0,0,0,0" in capsys.readouterr().out


def test_encode_input_errors(capsys):
    assert run(["encode", SUBOPT, "--data", "1,2,3"]) == 2
    assert run(["encode", SUBOPT, "--data", "1,2,3,4,9"]) == 2
    assert run(["encode", SUBOPT, "--data", "1,2,3,4,x"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--data", "--received", "--fail"])
def test_vector_integers_are_ascii_decimal(flag, capsys):
    """int() reads '1_1' as 11, the Arabic-Indic digit one as 1 and '+1' as 1; every vector flag refuses them."""
    command, length = {"--data": ("encode", 7), "--received": ("decode", 12), "--fail": ("demo", 2)}[flag]
    plain = ["2", "3"] if flag == "--fail" else ["0"] * length  # the zero word decodes to zero data
    assert run([command, CYC, flag, ",".join(plain)]) == 0
    for spelled in ("1_1", "\u0661", "+1", "0_0", "\u0660"):
        assert run([command, CYC, flag, ",".join([spelled] + plain[1:])]) == 2, spelled
        assert "error=ValueError: expected a decimal integer" in capsys.readouterr().err


def test_decode_round_trip(suboptimal_codefile, capsys):
    word = encode(suboptimal_codefile, [1, 2, 3, 4, 5])
    tokens = [str(v) for v in word]
    for j in (0, 4, 8):
        tokens[j] = "?"
    assert run(["decode", SUBOPT, "--received", ",".join(tokens)]) == 0
    assert "data=1,2,3,4,5" in capsys.readouterr().out


def test_decode_unrecoverable(suboptimal_codefile, capsys):
    word = encode(suboptimal_codefile, [1] * 5)
    bad = failing_erasure_pattern(suboptimal_codefile, 4)
    tokens = ["?" if j + 1 in bad else str(word[j]) for j in range(10)]
    assert run(["decode", SUBOPT, "--received", ",".join(tokens)]) == 5
    assert "error=UnrecoverableErasurePattern" in capsys.readouterr().err


def test_decode_non_codeword(capsys):
    received = ["0"] * 10
    received[3] = "1"
    assert run(["decode", SUBOPT, "--received", ",".join(received)]) == 5
    assert "error=Inconsistent" in capsys.readouterr().err


def test_decode_parse_errors(capsys):
    assert run(["decode", SUBOPT, "--received", "1,2,3"]) == 2
    assert run(["decode", SUBOPT, "--received", ",".join(["z"] + ["0"] * 9)]) == 2
    capsys.readouterr()


# ---------- demo ----------


def test_demo_local_failure_cooperative_rescue(capsys):
    assert run(["demo", CYC, "--fail", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "group1_local=fail" in out
    assert "group2_local=ok" in out
    assert "global=ok" in out
    assert "restored by cooperation" in out


def test_demo_no_failures(capsys):
    assert run(["demo", CYC]) == 0
    out = capsys.readouterr().out
    assert "no failures: every group decodes locally" in out
    assert "global=ok" in out


def test_demo_unrecoverable_pattern(cyclic_codefile, capsys):
    bad = failing_erasure_pattern(cyclic_codefile, 5)
    assert run(["demo", CYC, "--fail", ",".join(map(str, bad))]) == 0
    assert "global=fail" in capsys.readouterr().out


def test_demo_singular_local_minor_needs_cooperation(tmp_path, capsys):
    payload = load_json("cyclic_code.json")
    for row in payload["G"]:
        row[0] = 0  # position 1 carries nothing, so group 1 is not MDS
    broken = write_json(tmp_path, "broken.json", payload)
    assert run(["demo", broken, "--fail", "5"]) == 0
    out = capsys.readouterr().out
    assert "group1_local=fail" in out
    assert "group2_local=ok" in out


def test_demo_off_support_group_fails_locally(tmp_path, capsys):
    """Position 3 carries data symbol 3, outside K_2. The demo data has x_3 = 0, so decoding
    group 2 would look right by luck; local recovery is refused instead."""
    payload = {
        "structure": {"q": 3, "groups": [{"K": [1, 3], "n": 2, "N": [1, 2]}, {"K": [2], "n": 2, "N": [3, 4]}]},
        "method": "random",
        "G": [[1, 0, 0, 0], [0, 0, 1, 1], [0, 1, 1, 0]],
        "claimed_distance": 1,
    }
    assert run(["demo", write_json(tmp_path, "off.json", payload)]) == 0
    out = capsys.readouterr().out
    assert "data symbols: 1,2,0" in out
    assert "group1_local=ok" in out
    assert "group2_local=fail" in out
    assert "every group decodes locally" not in out


def test_demo_input_errors(capsys):
    assert run(["demo", CYC, "--fail", "0"]) == 2
    assert run(["demo", CYC, "--fail", "13"]) == 2
    assert run(["demo", CYC, "--fail", "3,3"]) == 2
    capsys.readouterr()


# ---------- file formats ----------


def test_code_file_round_trip_is_identity():
    code = code_from_dict(load_json("cyclic_code_descending.json"))
    once = code_to_dict(code)
    assert code_to_dict(code_from_dict(once)) == once
    assert once["G"] == load_json("cyclic_code_descending.json")["G"]
    assert once["omega"] == 2
    assert "seed" not in once


@pytest.mark.parametrize(
    "method", [5, None, True, [1], {"a": 1}], ids=["int", "null", "bool", "list", "object"]
)
def test_code_file_method_must_be_a_string(tmp_path, capsys, method):
    """Checked after G and before omega, seed and claimed_distance, which are wrong here too."""
    payload = {**CYC_JSON, "method": method, "omega": "2", "seed": 1.5, "claimed_distance": None}
    assert run(["verify", write_json(tmp_path, "bad.json", payload)]) == 2
    assert capsys.readouterr().err == f"error=ValueError: 'method' must be a string, got {method!r}\n"


@pytest.mark.parametrize(
    "build, method, keys",
    [
        (lambda: construct_nested(*load_structure("unequal_r_structure.json")), "nested", ()),
        (lambda: construct_cyclic(*load_structure("equal_r_structure.json"))[0], "cyclic", ("omega",)),
        (lambda: construct_cyclic(*structure_from_dict(T0))[0], "cyclic", ("omega",)),
        (
            lambda: construct_random(load_structure("unequal_r_structure.json")[0], make_field(101), 5, 20),
            "random",
            ("seed",),
        ),
    ],
    ids=["nested", "cyclic", "cyclic-no-shared", "random"],
)
def test_built_codes_round_trip_through_code_files(build, method, keys):
    """A built code comes back with its G, structure, field and the meta keys a code file carries, and no others."""
    code = build()
    back = code_from_dict(json.loads(json.dumps(code_to_dict(code))))
    assert back.G.to_rows() == code.G.to_rows()
    assert (back.structure, back.field) == (code.structure, code.field)
    assert back.meta == {key: code.meta[key] for key in ("method", *keys, "claimed_distance")}
    assert back.meta["method"] == method


@st.composite
def code_files(draw):
    """A code file on a random structure over GF(q), q up to 2^31 - 1: any residues in G, any method, omega, seed
    and claimed distance."""
    f = make_field(draw(st.sampled_from((2, 13, 257, 65537, 2**31 - 1))))
    s = random_structure(random.Random(draw(st.integers(0, 2**32))), max_k=6, max_m=3)
    row = st.lists(st.integers(0, f.q - 1), min_size=s.n, max_size=s.n)
    rows = draw(st.lists(row, min_size=s.k, max_size=s.k))
    meta = {
        "method": draw(st.sampled_from(("nested", "cyclic", "random"))),
        "omega": draw(st.none() | st.integers(0, f.q - 1)),
        "seed": draw(st.none() | st.integers(0, 2**64 - 1)),
        "claimed_distance": draw(st.integers(0, 40)),
    }
    return LedcCode(s, MatrixGF(f, rows), {key: v for key, v in meta.items() if v is not None})


@settings(derandomize=True, max_examples=200, deadline=None)
@given(code_files())
def test_code_file_json_round_trip_fuzz(cf):
    """Through JSON text and back: the same G of plain ints, structure, field, method, omega, seed and claim."""
    payload = code_to_dict(cf)
    assert all(type(v) is int for row in payload["G"] for v in row)
    back = code_from_dict(json.loads(json.dumps(payload)))
    assert back.G.to_rows() == cf.G.to_rows() == payload["G"]
    assert (back.structure, back.field) == (cf.structure, cf.field)
    assert back.meta == cf.meta
    assert back == cf


JSON_TEXT = st.text() | st.text(st.sampled_from('"\\\n\t/aé€😀\x00'), max_size=6)
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.sampled_from((2**63, 2**64 + 1, -(2**63) - 1)) | st.floats() | JSON_TEXT
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.integers(), max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_format_json_matches_the_encoder(v):
    """The construct formatter writes json.dumps(v, indent=2) byte for byte, empty containers included."""
    assert _format_json(v) == json.dumps(v, indent=2)


def test_explicit_position_layout(tmp_path, capsys):
    payload = {
        "q": 7,
        "groups": [
            {"K": [1, 2], "n": 2, "N": [5, 6]},
            {"K": [2, 3], "n": 4, "N": [1, 2, 3, 4]},
        ],
    }
    s = write_json(tmp_path, "layout.json", payload)
    assert run(["bound", s]) == 0
    assert "dmax=2" in capsys.readouterr().out
    out = str(tmp_path / "layout_code.json")
    assert run(["construct", s, "--method", "nested", "--out", out]) == 0
    written = json.loads((tmp_path / "layout_code.json").read_text())
    assert written["structure"]["groups"][0]["N"] == [5, 6]
    row1 = written["G"][0]
    assert all(v == 0 for j, v in enumerate(row1) if j not in (4, 5))
    assert run(["verify", out]) == 0
    capsys.readouterr()


def test_partial_position_lists_rejected(tmp_path, capsys):
    payload = {
        "q": 7,
        "groups": [{"K": [1, 2], "n": 3, "N": [1, 2, 3]}, {"K": [2, 3], "n": 3}],
    }
    assert run(["bound", write_json(tmp_path, "partial.json", payload)]) == 2
    capsys.readouterr()


def test_argparse_failures_use_input_exit(capsys):
    assert run([]) == 2
    assert run(["bound"]) == 2
    assert run(["bound", UNEQUAL_R, "--nope"]) == 2
    assert run(["construct", UNEQUAL_R]) == 2  # --method is required
    assert run(["--help"]) == 0
    capsys.readouterr()


# ---------- contract fuzz ----------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 40), st.floats(-3, 3), st.text(max_size=3),
    st.lists(st.sampled_from((-1, 0, 1, 2, 5, 14, 10**9)), max_size=5),  # 10^9: checked by counting
)


@st.composite
def cli_files(draw, code):
    """A structure or code file (n <= 12, q <= 31), often mutated past validity, or raw text.

    Half the structures are admissible two-group shapes, which every construction method
    accepts: equal redundancy r, 0 <= t < min(k1, k2), t <= r + 1 and q > n. Such a structure
    file is left unmutated, so construct gets past validation; code files are mutated alike.
    """
    if draw(st.sampled_from((False,) * 9 + (True,))):
        return draw(st.text(max_size=30))
    admissible = not draw(st.booleans())
    if admissible:
        k1, k2, r = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 2))
        t = draw(st.integers(0, min(k1 - 1, k2 - 1, r + 1)))
        label = draw(st.permutations(range(1, k1 + k2 - t + 1)))
        K = [sorted(label[:k1]), sorted(label[k1 - t :])]
        sizes = [k1 + r, k2 + r]
        q = draw(st.sampled_from([p for p in PRIMES if p > sum(sizes)]))
    else:
        m = draw(st.integers(1, 3))
        k = draw(st.integers(1, 12 // m - 2))  # so that n <= 12
        K = [draw(st.sets(st.integers(1, k), min_size=1)) for _ in range(m)]
        for i in set(range(1, k + 1)).difference(*K):
            K[draw(st.integers(0, m - 1))].add(i)
        K = [sorted(Kg) for Kg in K]
        sizes = [len(Kg) + draw(st.integers(0, 2)) for Kg in K]
        q = draw(st.sampled_from(PRIMES))
    structure = {"q": q, "groups": [{"K": Kg, "n": n} for Kg, n in zip(K, sizes)]}
    if draw(st.booleans()):
        N = draw(st.permutations(range(1, sum(sizes) + 1)))
        for g, n in zip(structure["groups"], sizes):
            g["N"], N = list(N[:n]), N[n:]
    payload = structure
    if code:
        k, n, q = max(max(Kg) for Kg in K), sum(sizes), structure["q"]
        G = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), min_size=k, max_size=k))
        payload = {"structure": structure, "method": "random", "G": G, "claimed_distance": draw(st.integers(0, 13))}
    for _ in range(0 if admissible and not code else draw(st.integers(0, 2))):
        group = draw(st.sampled_from(structure["groups"]))
        where, key = draw(st.sampled_from([(structure, "q"), (group, "K"), (group, "n"), (group, "N"), (payload, "G")]))
        if key == "n":
            where[key] = draw(st.integers(-1, 40))  # a declared n of 10^9 lists 10^9 positions
        elif draw(st.booleans()):
            where.pop(key, None)
        else:
            where[key] = draw(JUNK)
    return payload


def vector_text(draw, length):
    """Comma-separated symbols, erasures and positions, or tokens that are none of these."""
    clean = st.sampled_from(("0", "1", "2", "3", "?"))
    junk = st.sampled_from(("12", "31", "-1", "", " 3", "x", "1.5"))
    length = min(max(length, 0), 64)  # declared sizes may be negative, and K may name 10^9
    size = draw(st.sampled_from((length, length, draw(st.integers(0, 14)))))
    return ",".join(draw(st.lists(draw(st.sampled_from((clean, clean, junk))), min_size=size, max_size=size)))


OUT = "out.json"  # construct's --out, placed in the test's temporary directory


@st.composite
def cli_argvs(draw):
    """A file and the arguments of one command on it; vectors are often, not always, of the right length."""
    command = draw(st.sampled_from(("construct", "verify", "encode", "decode", "demo", "bound")))
    payload = draw(cli_files(code=command != "construct" and (command != "bound" or draw(st.booleans()))))
    structure = payload.get("structure", payload) if isinstance(payload, dict) else None
    groups = structure.get("groups") if isinstance(structure, dict) else None
    groups = [g for g in groups if isinstance(g, dict)] if isinstance(groups, list) else []
    k = max((max(g["K"], default=0) for g in groups if isinstance(g.get("K"), list)), default=0)
    n = sum(g["n"] for g in groups if isinstance(g.get("n"), int))
    options = []
    if command == "construct":
        method = draw(st.sampled_from(("nested", "cyclic", "random")))
        options = ["--method", method]
        if method == "random":  # each method's own flags: test_construct_refuses_options_of_other_methods pins the rest
            options += ["--max-attempts", str(draw(st.sampled_from((1, 2, 3, 0, -1))))]
        flags = {"nested": (), "cyclic": (("--omega", st.integers(-1, 31)),), "random": (("--seed", st.integers(-5, 2**64)),)}
        for flag, values in (("--q", st.integers(-1, 31)), *flags[method]):
            if draw(st.booleans()):
                options += [flag, str(draw(values))]
        if draw(st.booleans()):
            options += ["--out", OUT]
    elif command == "verify":
        options = ["--distance-method", draw(st.sampled_from(("auto", "exhaustive", "rank", "both")))]
    elif command != "bound":
        flag, length = {"encode": ("--data", k), "decode": ("--received", n), "demo": ("--fail", 2)}[command]
        options = [flag, vector_text(draw, length)]
    return payload, [command, *options]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cli_argvs())
def test_cli_contract_fuzz(case):
    """Every fuzzed file and argument string ends in a documented exit code, never an exception."""
    payload, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload if isinstance(payload, str) else json.dumps(payload))
        argv = [os.path.join(tmp, a) if a == OUT else a for a in argv]
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            assert run([argv[0], path, *argv[1:]]) in (0, 2, 3, 4, 5)
