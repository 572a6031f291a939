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

from conftest import FIXTURES, cap_structure, load_json, random_structure

import ledc
from ledc.cli import CodeFile, code_from_dict, code_to_dict, run
from ledc.code import ERASED, LedcCode, encode, erasure_decode
from ledc.errors import UnrecoverableErasurePattern
from ledc.field import make_field
from ledc.linalg import make_matrix
from ledc.locality import LocalityStructure

UNEQUAL_R = str(FIXTURES / "unequal_r_structure.json")
EQUAL_R = str(FIXTURES / "equal_r_structure.json")
SUBOPT = str(FIXTURES / "suboptimal_code.json")
CYC_DESC = str(FIXTURES / "cyclic_code_descending.json")
CYC = str(FIXTURES / "cyclic_code.json")
CYC_JSON = load_json("cyclic_code.json")


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
        received = [ERASED if j in erased else word[j] for j in range(code.structure.n)]
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
    ],
    ids=[
        "G-int", "G-row-int", "structure-int", "bound-structure-int", "group-int", "group-without-K",
        "no-structure", "top-list", "bound-top-list", "top-string", "bound-top-string",
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
    cf = code_from_dict(payload)
    assert cf.claimed_distance == 4
    assert code_to_dict(cf) == payload


def test_construct_cyclic_matches_fixture(tmp_path, capsys):
    out = str(tmp_path / "cyclic.json")
    assert run(["construct", EQUAL_R, "--method", "cyclic", "--out", out]) == 0
    written = json.loads((tmp_path / "cyclic.json").read_text())
    assert written["omega"] == 2
    assert written["G"] == load_json("cyclic_code.json")["G"]


def test_construct_precondition_exit(tmp_path, capsys):
    s = write_json(
        tmp_path,
        "tight.json",
        {"q": 7, "groups": [{"K": [1, 2, 3, 4], "n": 5}, {"K": [2, 3, 4, 5], "n": 5}]},
    )
    assert run(["construct", s, "--method", "nested"]) == 3
    assert "error=PreconditionViolated" in capsys.readouterr().err
    assert run(["construct", UNEQUAL_R, "--method", "cyclic"]) == 3


def test_construct_field_override(tmp_path, capsys):
    out = str(tmp_path / "f11.json")
    assert run(["construct", UNEQUAL_R, "--method", "nested", "--q", "11", "--out", out]) == 0
    assert json.loads((tmp_path / "f11.json").read_text())["structure"]["q"] == 11
    assert run(["construct", UNEQUAL_R, "--method", "nested", "--q", "6"]) == 2


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


def test_verify_past_group_cap_exits_2(tmp_path):
    many = write_json(tmp_path, "many.json", {
        "structure": {"q": 7, "groups": [{"K": [i], "n": 1} for i in range(1, 22)]},
        "method": "random",
        "G": [[int(i == j) for j in range(21)] for i in range(21)],
        "claimed_distance": 1,
    })
    assert_clean_exit(run_cli("verify", many), 2, "TooManyGroups")


# ---------- encode / decode ----------


def test_encode_zero_vector(capsys):
    assert run(["encode", SUBOPT, "--data", "0,0,0,0,0"]) == 0
    assert "codeword=0,0,0,0,0,0,0,0,0,0" in capsys.readouterr().out


def test_encode_input_errors(capsys):
    assert run(["encode", SUBOPT, "--data", "1,2,3"]) == 2
    assert run(["encode", SUBOPT, "--data", "1,2,3,4,9"]) == 2
    assert run(["encode", SUBOPT, "--data", "1,2,3,4,x"]) == 2
    capsys.readouterr()


def test_decode_round_trip(suboptimal_codefile, capsys):
    word = encode(suboptimal_codefile.code, [1, 2, 3, 4, 5])
    tokens = [str(v) for v in word]
    for j in (0, 4, 8):
        tokens[j] = "?"
    assert run(["decode", SUBOPT, "--received", ",".join(tokens)]) == 0
    assert "data=1,2,3,4,5" in capsys.readouterr().out


def test_decode_unrecoverable(suboptimal_codefile, capsys):
    word = encode(suboptimal_codefile.code, [1] * 5)
    bad = failing_erasure_pattern(suboptimal_codefile.code, 4)
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
    bad = failing_erasure_pattern(cyclic_codefile.code, 5)
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
    cf = code_from_dict(load_json("cyclic_code_descending.json"))
    once = code_to_dict(cf)
    assert code_to_dict(code_from_dict(once)) == once
    assert once["G"] == load_json("cyclic_code_descending.json")["G"]
    assert once["omega"] == 2
    assert "seed" not in once


@st.composite
def code_files(draw):
    """A code file on a random structure over GF(q), q up to 2^31 - 1: any residues in G, any method, omega, seed
    and claimed distance."""
    f = make_field(draw(st.sampled_from((2, 13, 257, 65537, 2**31 - 1))))
    s = random_structure(random.Random(draw(st.integers(0, 2**32))), max_k=6, max_m=3)
    row = st.lists(st.integers(0, f.q - 1), min_size=s.n, max_size=s.n)
    rows = draw(st.lists(row, min_size=s.k, max_size=s.k))
    return CodeFile(
        code=LedcCode(s, f, make_matrix(f, rows)),
        method=draw(st.sampled_from(("nested", "cyclic", "random"))),
        omega=draw(st.none() | st.integers(0, f.q - 1)),
        seed=draw(st.none() | st.integers(0, 2**64 - 1)),
        claimed_distance=draw(st.integers(0, 40)),
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(code_files())
def test_code_file_json_round_trip_fuzz(cf):
    """Through JSON text and back: the same G of plain ints, structure, field, method, omega, seed and claim."""
    payload = code_to_dict(cf)
    assert all(type(v) is int for row in payload["G"] for v in row)
    back = code_from_dict(json.loads(json.dumps(payload)))
    assert back.code.G.to_rows() == cf.code.G.to_rows() == payload["G"]
    assert (back.code.structure, back.code.field) == (cf.code.structure, cf.code.field)
    assert (back.method, back.omega, back.seed, back.claimed_distance) == (
        cf.method, cf.omega, cf.seed, cf.claimed_distance
    )
    assert back == cf


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
    """A structure or code file (n <= 12, q <= 31), often mutated past validity, or raw text."""
    if draw(st.sampled_from((False,) * 9 + (True,))):
        return draw(st.text(max_size=30))
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 12 // m - 2))  # so that n <= 12
    K = [draw(st.sets(st.integers(1, k), min_size=1)) for _ in range(m)]
    for i in set(range(1, k + 1)).difference(*K):
        K[draw(st.integers(0, m - 1))].add(i)
    K = [sorted(Kg) for Kg in K]
    sizes = [len(Kg) + draw(st.integers(0, 2)) for Kg in K]
    structure = {"q": draw(st.sampled_from(PRIMES)), "groups": [{"K": Kg, "n": n} for Kg, n in zip(K, sizes)]}
    if draw(st.booleans()):
        N = draw(st.permutations(range(1, sum(sizes) + 1)))
        for g, n in zip(structure["groups"], sizes):
            g["N"], N = list(N[:n]), N[n:]
    payload = structure
    if code:
        k, n, q = max(max(Kg) for Kg in K), sum(sizes), structure["q"]
        G = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), min_size=k, max_size=k))
        payload = {"structure": structure, "method": "random", "G": G, "claimed_distance": draw(st.integers(0, 13))}
    for _ in range(draw(st.integers(0, 2))):
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
    size = draw(st.sampled_from((length, length, draw(st.integers(0, 14)))))
    return ",".join(draw(st.lists(draw(st.sampled_from((clean, clean, junk))), min_size=size, max_size=size)))


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
        options = ["--method", draw(st.sampled_from(("nested", "cyclic", "random")))]
        options += ["--max-attempts", str(draw(st.sampled_from((1, 2, 3, 0, -1))))]
        for flag, values in (("--q", st.integers(-1, 31)), ("--omega", st.integers(-1, 31)), ("--seed", st.integers(-5, 2**64))):
            if draw(st.booleans()):
                options += [flag, str(draw(values))]
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
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            assert run([argv[0], path, *argv[1:]]) in (0, 2, 3, 4, 5)
