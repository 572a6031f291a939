"""Command-line front end and JSON file formats.

Structure files describe a locality structure:

    {"q": 13, "groups": [{"K": [1,2,3,4], "n": 5},
                         {"K": [2,3,4,5,6,7], "n": 7}]}

Positions N may be given per group; when omitted everywhere, group 1
takes positions 1..n1, group 2 the next n2, and so on. Code files add a
generator matrix to a structure:

    {"structure": {...}, "method": "cyclic", "omega": 2,
     "G": [[...], ...], "claimed_distance": 5}

A code file is a LedcCode: code_from_dict puts its method,
claimed_distance, and omega or seed when given into code.meta, where
the constructions put them, and code_to_dict writes those keys back.

Exit codes are a stable contract: 0 success, 2 input or validation
error, 3 construction precondition failure or a computation past its
budget, 4 verification failure, 5 unrecoverable decode.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from typing import Sequence

import numpy as np

from .code import LedcCode, encode, erasure_decode, local_decode, verify_ledc
from .construct import construct_cyclic, construct_nested, construct_random
from .errors import (
    ExhaustedAttempts,
    FieldTooSmall,
    Inconsistent,
    LedcError,
    NotEnoughSymbols,
    NotPrimitive,
    PreconditionViolated,
    SingularSubmatrix,
    SupportViolation,
    TooLarge,
    UnrecoverableErasurePattern,
)
from .field import PrimeField, make_field, non_integers
from .linalg import MatrixGF
from .locality import LocalityStructure, blocks_for_sizes, dmax_witness, make_structure

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY = 4
EXIT_DECODE = 5

# Coded positions a structure file may declare, over all its groups. The
# distance searches give up far below it; `bound` stays well under a second.
MAX_POSITIONS = 10**5

# Entries k*n of the k x n generator `construct` may build; the paper's two
# families at n = 4,000 have k*n near 1.5e7. At 1.9e7 cells `construct`
# peaked at 0.83 GB RSS (cyclic) and 1.25 GB (nested).
MAX_CELLS = 2 * 10**7

# Exception types to exit codes; the first row that matches wins.
EXIT_CODES = (
    ((UnrecoverableErasurePattern, Inconsistent), EXIT_DECODE),
    ((PreconditionViolated, FieldTooSmall, NotPrimitive, ExhaustedAttempts, TooLarge), EXIT_PRECONDITION),
    ((LedcError, ValueError, KeyError, TypeError, OSError), EXIT_INPUT),
)

# ---------- file formats ----------


def _integers(vs, where: str) -> list[int]:
    """A JSON list of integers; floats (even integral ones), booleans and strings are input errors."""
    if not isinstance(vs, list):
        raise ValueError(f"{where} must be a list of integers, got {vs!r}")
    if bad := non_integers(vs):  # one pass over the types; the error names the first entry that is not one
        raise ValueError(f"expected an integer, got {bad[0]!r}")
    return vs


def _integer(v) -> int:
    return _integers([v], "a value")[0]


def _member(obj, key: str, where: str):
    """obj[key] of a JSON object; a non-object or a missing key is an input error naming the field."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{where} has no {key!r}")
    return obj[key]


def structure_from_dict(d: dict) -> tuple[LocalityStructure, PrimeField]:
    f = make_field(_integer(_member(d, "q", "structure")))
    groups = _member(d, "groups", "structure")
    if not isinstance(groups, list) or not groups:
        raise ValueError("'groups' must be a nonempty list")
    K = [_integers(_member(g, "K", f"group {i}"), f"'K' of group {i}") for i, g in enumerate(groups, start=1)]
    sizes = [_integer(_member(g, "n", f"group {i}")) for i, g in enumerate(groups, start=1)]
    declared = sum(n for n in sizes if n > 0)
    if declared > MAX_POSITIONS:  # before any position is listed
        raise ValueError(f"groups declare {declared} positions, past the cap of {MAX_POSITIONS}")
    listed = [g for g in groups if "N" in g]
    if not listed:
        N = blocks_for_sizes(sizes)
    elif len(listed) == len(groups):
        N = [_integers(g["N"], f"'N' of group {i}") for i, g in enumerate(groups, start=1)]
        for ng, n in zip(N, sizes):
            if len(ng) != n:
                raise ValueError(f"group declares n={n} but lists {len(ng)} positions")
    else:
        raise ValueError("either every group or no group may list N explicitly")
    return make_structure(K, N), f


def structure_to_dict(s: LocalityStructure, f: PrimeField) -> dict:
    return {
        "q": f.q,
        "groups": [
            {"K": list(Kg), "n": len(Ng), "N": list(Ng)}
            for Kg, Ng in zip(s.K, s.N)
        ],
    }


def code_from_dict(d: dict) -> LedcCode:
    s, f = structure_from_dict(_member(d, "structure", "code file"))
    G = _member(d, "G", "code file")
    if not isinstance(G, list):
        raise ValueError(f"'G' must be a list of rows, got {G!r}")
    for i, row in enumerate(G, start=1):  # types and lengths in one pass, then the count and range once
        if not isinstance(row, list) or non_integers(row):
            _integers(row, f"row {i} of 'G'")  # names the first entry that is not an integer
        if len(row) != s.n:
            raise ValueError(f"row {i} of 'G' has {len(row)} entries, expected n={s.n}")
    if len(G) != s.k:
        raise ValueError(f"'G' has {len(G)} rows, expected k={s.k}")
    if min(map(min, G)) < 0 or max(map(max, G)) >= f.q:  # k, n >= 1, so no row is empty
        v = next(v for row in G for v in row if not 0 <= v < f.q)
        raise ValueError(f"matrix entry {v} outside [0, {f.q})")
    code = LedcCode(s, MatrixGF(f, np.array(G, dtype=np.int64)))
    method = _member(d, "method", "code file")
    if not isinstance(method, str):
        raise ValueError(f"'method' must be a string, got {method!r}")
    code.meta["method"] = method
    for key in ("omega", "seed"):  # a null counts as absent
        if d.get(key) is not None:
            code.meta[key] = _integer(d[key])
    code.meta["claimed_distance"] = _integer(_member(d, "claimed_distance", "code file"))
    return code


def code_to_dict(code: LedcCode) -> dict:
    out = {
        "structure": structure_to_dict(code.structure, code.field),
        "method": code.meta["method"],
        "G": code.G.to_rows(),
        "claimed_distance": code.meta["claimed_distance"],
    }
    out.update((key, code.meta[key]) for key in ("omega", "seed") if code.meta.get(key) is not None)
    return out


def _format_json(v, indent: str = "\n") -> str:
    """json.dumps(v, indent=2) for string-keyed data, byte for byte, without the pure-Python encoder
    that `indent` selects: an int is str(v), a list of ints one join, other scalars go through json.dumps."""
    if type(v) is int:
        return str(v)
    inner = indent + "  "
    if isinstance(v, dict) and v:
        items = [f"{inner}{json.dumps(k)}: {_format_json(x, inner)}" for k, x in v.items()]
        return "{" + ",".join(items) + indent + "}"
    if isinstance(v, (list, tuple)) and v:
        if all(type(x) is int for x in v):
            return "[" + inner + f",{inner}".join(map(str, v)) + indent + "]"
        return "[" + ",".join([inner + _format_json(x, inner) for x in v]) + indent + "]"
    return json.dumps(v)


def _write_in_place(path: str, text: str) -> None:
    """Write text over path without O_TRUNC, so an existing file keeps its inode, links and mode and ext4
    (auto_da_alloc) starts no writeback on close; a regular file is then cut to length, a device or pipe is not."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


# ---------- vector parsing ----------


def _decimal(tok: str) -> int:
    """A token of ASCII decimal digits; int() alone also reads '+1', '1_0' and non-ASCII digits."""
    tok = tok.strip()
    if not (tok.isascii() and tok.isdigit()):
        raise ValueError(f"expected a decimal integer, got {tok!r}")
    return int(tok)


def decimal(tok: str) -> int:
    """An integer option, _decimal after an optional '-'; argparse reports others as "invalid decimal value"."""
    return -_decimal(tok[1:]) if tok.startswith("-") else _decimal(tok)


def _parse_vector(text: str, q: int, expected: int, allow_erasure: bool) -> list:
    tokens = [tok.strip() for tok in text.split(",")] if text.strip() else []
    if len(tokens) != expected:
        raise ValueError(f"expected {expected} comma-separated values, got {len(tokens)}")
    out = []
    for tok in tokens:
        if allow_erasure and tok == "?":
            out.append(None)
            continue
        v = _decimal(tok)
        if not 0 <= v < q:
            raise ValueError(f"value {v} outside [0, {q})")
        out.append(v)
    return out


# ---------- commands ----------


def cmd_bound(args: argparse.Namespace) -> int:
    d = _load_json(args.structure_file)
    if isinstance(d, dict) and "structure" in d:
        d = d["structure"]  # a code file
    s, _ = structure_from_dict(d)
    witness = dmax_witness(s)
    print(f"dmax={witness.dmax}")
    print(f"blocks={','.join(map(str, witness.blocks))}")
    print(f"data={','.join(map(str, witness.data))}")
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    for flag, method in (("omega", "cyclic"), ("seed", "random"), ("max_attempts", "random")):
        if getattr(args, flag) is not None and args.method != method:
            raise ValueError(f"--{flag.replace('_', '-')} belongs to --method {method}, not {args.method}")
    s, f = structure_from_dict(_load_json(args.structure_file))
    if args.q is not None:
        f = make_field(args.q)
    if s.k * s.n > MAX_CELLS:  # before any k x n array is made
        raise TooLarge(f"k*n = {s.k}*{s.n} = {s.k * s.n} cells exceed the budget of {MAX_CELLS}")
    if args.method == "nested":
        code = construct_nested(s, f)
    elif args.method == "cyclic":
        code, _ = construct_cyclic(s, f, args.omega)
    else:
        code = construct_random(s, f, args.seed or 0, 20 if args.max_attempts is None else args.max_attempts)
    payload = _format_json(code_to_dict(code))
    if args.out == "-":
        print(payload)
    else:
        _write_in_place(args.out, payload + "\n")
        print(f"wrote={args.out}")
        print(f"claimed_distance={code.meta['claimed_distance']}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    code = code_from_dict(_load_json(args.code_file))
    report = verify_ledc(code, distance_method=args.distance_method)
    print(f"support={'ok' if report.support_ok else 'FAIL'}")
    for g, ok in enumerate(report.local_mds, start=1):
        print(f"local_mds_{g}={'ok' if ok else 'FAIL'}")
    print(f"distance={report.distance}")
    print(f"claimed={code.meta['claimed_distance']}")
    print(f"dmax={report.dmax}")
    print(f"optimal={'true' if report.optimal else 'false'}")
    passed = report.all_ok and report.distance == code.meta["claimed_distance"]
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_encode(args: argparse.Namespace) -> int:
    code = code_from_dict(_load_json(args.code_file))
    x = _parse_vector(args.data, code.field.q, code.structure.k, False)
    word = encode(code, x)
    print(f"codeword={','.join(map(str, word))}")
    return EXIT_OK


def cmd_decode(args: argparse.Namespace) -> int:
    code = code_from_dict(_load_json(args.code_file))
    received = _parse_vector(args.received, code.field.q, code.structure.n, True)
    x = erasure_decode(code, received)
    print(f"data={','.join(map(str, x))}")
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    """Walk one failure scenario: local-only repair, then cooperation."""
    code = code_from_dict(_load_json(args.code_file))
    s, f = code.structure, code.field
    failed: list[int] = []
    if args.fail.strip():
        failed = [_decimal(tok) for tok in args.fail.split(",")]
    for p in failed:
        if not 1 <= p <= s.n:
            raise ValueError(f"position {p} outside 1..{s.n}")
    if len(set(failed)) != len(failed):
        raise ValueError("failed positions must be distinct")

    failed_set = set(failed)
    x = [(i % f.q) for i in range(1, s.k + 1)]
    word = encode(code, x)
    print(f"data symbols: {','.join(map(str, x))}")
    print(f"failed positions: {','.join(map(str, failed)) if failed else 'none'}")
    all_local = True
    for g, (Kg, Ng) in enumerate(zip(s.K, s.N), start=1):
        surviving = [p for p in Ng if p not in failed_set]
        lost = len(Ng) - len(surviving)
        try:
            recovered = local_decode(code, g, [(p, word[p - 1]) for p in surviving])
            ok = all(recovered[i] == x[i - 1] for i in Kg)
        except (NotEnoughSymbols, SingularSubmatrix, SupportViolation):
            ok = False
        print(
            f"group {g}: lost {lost} of {len(Ng)} positions; "
            f"local recovery {'succeeds' if ok else 'FAILS, needs cooperation'}"
        )
        print(f"group{g}_local={'ok' if ok else 'fail'}")
        all_local = all_local and ok
    received = [None if (j + 1) in failed_set else word[j] for j in range(s.n)]
    try:
        recovered_x = erasure_decode(code, received)
        global_ok = recovered_x == x
    except UnrecoverableErasurePattern:
        global_ok = False
    print(
        "global recovery "
        + ("succeeds: all data restored by cooperation" if global_ok else "FAILS: too many erasures")
    )
    print(f"global={'ok' if global_ok else 'fail'}")
    if not failed and all_local:
        print("no failures: every group decodes locally")
    return EXIT_OK


# ---------- argument parsing ----------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ledc",
        description="Distance bounds, constructions and verification for "
        "codes with locally encodable and decodable groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="optimal distance bound for a structure")
    p.add_argument("structure_file")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("construct", help="build a generator matrix")
    p.add_argument("structure_file")
    p.add_argument("--method", required=True, choices=["nested", "cyclic", "random"])
    p.add_argument("--q", type=decimal, help="override the field order")
    p.add_argument("--omega", type=decimal, help="primitive element (cyclic)")
    p.add_argument("--seed", type=decimal, help="random stream seed (random; default 0)")
    p.add_argument("--max-attempts", type=decimal, help="attempts (random; default 20)")
    p.add_argument("--out", default="-", help="output path, - for stdout")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="re-check a code file end to end")
    p.add_argument("code_file")
    p.add_argument(
        "--distance-method",
        choices=["auto", "exhaustive", "rank", "both"],
        default="auto",
        help="auto: exhaustive for small q^k, rank beyond it",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("encode", help="encode a data vector")
    p.add_argument("code_file")
    p.add_argument("--data", required=True, help="comma-separated data symbols")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a word with erasures")
    p.add_argument("code_file")
    p.add_argument("--received", required=True, help="comma-separated, ? = erased")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("demo", help="show local vs cooperative recovery")
    p.add_argument("code_file")
    p.add_argument("--fail", default="", help="comma-separated failed positions")
    p.set_defaults(func=cmd_demo)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except Exception as exc:
        code = next((code for types, code in EXIT_CODES if isinstance(exc, types)), None)
        if code is None:
            raise
        print(f"error={type(exc).__name__}: {exc}", file=sys.stderr)
        return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
