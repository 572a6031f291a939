"""Command-line front end and JSON file formats.

Structure files describe a locality structure:

    {"q": 13, "groups": [{"K": [1,2,3,4], "n": 5},
                         {"K": [2,3,4,5,6,7], "n": 7}]}

Positions N may be given per group; when omitted everywhere, group 1
takes positions 1..n1, group 2 the next n2, and so on. Code files add a
generator matrix to a structure:

    {"structure": {...}, "method": "cyclic", "omega": 2,
     "G": [[...], ...], "claimed_distance": 5}

Exit codes are a stable contract: 0 success, 2 input or validation
error, 3 construction precondition failure or a computation past its
budget, 4 verification failure, 5 unrecoverable decode.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

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
from .field import PrimeField, make_field
from .linalg import make_matrix
from .locality import LocalityStructure, blocks_for_sizes, dmax_witness, make_structure

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY = 4
EXIT_DECODE = 5

# Exception types to exit codes; the first row that matches wins.
EXIT_CODES = (
    ((UnrecoverableErasurePattern, Inconsistent), EXIT_DECODE),
    ((PreconditionViolated, FieldTooSmall, NotPrimitive, ExhaustedAttempts, TooLarge), EXIT_PRECONDITION),
    ((LedcError, ValueError, KeyError, TypeError, OSError), EXIT_INPUT),
)

# ---------- file formats ----------


@dataclass(frozen=True)
class CodeFile:
    """A deserialized code file."""

    code: LedcCode
    method: str
    omega: Optional[int]
    seed: Optional[int]
    claimed_distance: int


def _integer(v) -> int:
    """A JSON integer; floats (even integral ones), booleans and strings are input errors."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def _integers(vs, where: str) -> list[int]:
    if not isinstance(vs, list):
        raise ValueError(f"{where} must be a list of integers, got {vs!r}")
    return [_integer(v) for v in vs]


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


def code_from_dict(d: dict) -> CodeFile:
    s, f = structure_from_dict(_member(d, "structure", "code file"))
    G = _member(d, "G", "code file")
    if not isinstance(G, list):
        raise ValueError(f"'G' must be a list of rows, got {G!r}")
    rows = [_integers(row, f"row {i} of 'G'") for i, row in enumerate(G, start=1)]
    for row in rows:
        for v in row:
            if not 0 <= v < f.q:
                raise ValueError(f"matrix entry {v} outside [0, {f.q})")
    code = LedcCode(s, f, make_matrix(f, rows))
    omega = d.get("omega")
    seed = d.get("seed")
    return CodeFile(
        code=code,
        method=str(_member(d, "method", "code file")),
        omega=None if omega is None else _integer(omega),
        seed=None if seed is None else _integer(seed),
        claimed_distance=_integer(_member(d, "claimed_distance", "code file")),
    )


def code_to_dict(cf: CodeFile) -> dict:
    out = {
        "structure": structure_to_dict(cf.code.structure, cf.code.field),
        "method": cf.method,
        "G": cf.code.G.to_rows(),
        "claimed_distance": cf.claimed_distance,
    }
    if cf.omega is not None:
        out["omega"] = cf.omega
    if cf.seed is not None:
        out["seed"] = cf.seed
    return out


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


# ---------- vector parsing ----------


def _parse_vector(text: str, q: int, expected: int, allow_erasure: bool) -> list:
    tokens = [tok.strip() for tok in text.split(",")] if text.strip() else []
    if len(tokens) != expected:
        raise ValueError(f"expected {expected} comma-separated values, got {len(tokens)}")
    out = []
    for tok in tokens:
        if allow_erasure and tok == "?":
            out.append(None)
            continue
        v = int(tok)
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
    s, f = structure_from_dict(_load_json(args.structure_file))
    if args.q is not None:
        f = make_field(args.q)
    omega = None
    seed = None
    if args.method == "nested":
        code = construct_nested(s, f)
    elif args.method == "cyclic":
        code, ingredients = construct_cyclic(s, f, args.omega)
        if ingredients is not None:
            omega = ingredients.omega
    else:
        seed = args.seed if args.seed is not None else 0
        code = construct_random(s, f, seed, args.max_attempts)
    cf = CodeFile(
        code=code,
        method=args.method,
        omega=omega,
        seed=seed,
        claimed_distance=code.meta["claimed_distance"],
    )
    payload = json.dumps(code_to_dict(cf), indent=2)
    if args.out == "-":
        print(payload)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        print(f"wrote={args.out}")
        print(f"claimed_distance={cf.claimed_distance}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    cf = code_from_dict(_load_json(args.code_file))
    report = verify_ledc(cf.code, distance_method=args.distance_method)
    print(f"support={'ok' if report.support_ok else 'FAIL'}")
    for g, ok in enumerate(report.local_mds, start=1):
        print(f"local_mds_{g}={'ok' if ok else 'FAIL'}")
    print(f"distance={report.distance}")
    print(f"claimed={cf.claimed_distance}")
    print(f"dmax={report.dmax}")
    print(f"optimal={'true' if report.optimal else 'false'}")
    passed = (
        report.support_ok
        and report.local_mds_ok
        and report.distance == cf.claimed_distance
        and report.optimal
    )
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_encode(args: argparse.Namespace) -> int:
    cf = code_from_dict(_load_json(args.code_file))
    x = _parse_vector(args.data, cf.code.field.q, cf.code.structure.k, False)
    word = encode(cf.code, x)
    print(f"codeword={','.join(map(str, word))}")
    return EXIT_OK


def cmd_decode(args: argparse.Namespace) -> int:
    cf = code_from_dict(_load_json(args.code_file))
    received = _parse_vector(args.received, cf.code.field.q, cf.code.structure.n, True)
    x = erasure_decode(cf.code, received)
    print(f"data={','.join(map(str, x))}")
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    """Walk one failure scenario: local-only repair, then cooperation."""
    code = code_from_dict(_load_json(args.code_file)).code
    s, f = code.structure, code.field
    failed: list[int] = []
    if args.fail.strip():
        failed = [int(tok) for tok in args.fail.split(",")]
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
    for g in range(1, s.m + 1):
        Ng = s.N[g - 1]
        Kg = s.K[g - 1]
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
    p.add_argument("--q", type=int, default=None, help="override the field order")
    p.add_argument("--omega", type=int, default=None, help="primitive element (cyclic)")
    p.add_argument("--seed", type=int, default=None, help="random stream seed")
    p.add_argument("--max-attempts", type=int, default=20)
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
