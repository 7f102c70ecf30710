"""Command-line front door: parse problem JSON, dispatch, emit one report.

Every invocation writes a single JSON document (sorted keys) embedding the
tool version, the command, the seed, and a config echo, so identical inputs
produce byte-identical reports.  Exit codes: 0 verdict computed (including
negative verdicts), 1 invariant violation (a verified statement failed on
concrete data), 2 bad input, 3 budget exhausted or inconclusive.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import Optional

from . import __version__
from .algebra import (AmbientError, NotInvertibleError, _window_json,
                      subspace_from_json)
from .criteria import is_coset_free, prop_1_4_condition
from .groups import (CyclicGroup, GroupTooLargeError, GroupValidationError,
                     Homomorphism, InfiniteClosureError, Subgroup,
                     group_from_json)
from .linear import (InvariantViolationError, MatchBasisInconclusiveError,
                     OrderedBasis, StrongMatchingRequiredError,
                     UnityInTargetError, find_acyclic_linear_matching,
                     find_scaling, match_basis, strong_matching_report)
from .matching import (DEFAULT_ENUMERATION_CAP, Matching, MatchingExistsError,
                       PairValidationError, SizeCapError, SubsetPair,
                       _match_or_violator, compatibility_graph,
                       enumerate_matchings, find_acyclic_matching)
from .primes import (DEFAULT_ENUMERATION_BUDGET, PrimePreconditionError,
                     acyclic_property_scan, family_table, lemma_2_1_audit)
from .relative import (MultiplicityMismatchError, RelativeMatching,
                       TupleOfElements, _validated_graph, push_forward,
                       verify_hom_transfer)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_INCONCLUSIVE = 3

_INPUT_ERRORS = (GroupValidationError, GroupTooLargeError, InfiniteClosureError,
                 PairValidationError, SizeCapError, MatchingExistsError,
                 MultiplicityMismatchError, PrimePreconditionError,
                 AmbientError, NotInvertibleError, UnityInTargetError,
                 StrongMatchingRequiredError, ValueError, KeyError, OSError)


class BadInputError(ValueError):
    """Unreadable or malformed input."""


def _read_json(path: str) -> dict:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise BadInputError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadInputError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise BadInputError("expected a JSON object at the top level")
    return doc


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise BadInputError(f"expected a comma-separated integer list, got {text!r}") from exc


def _encode_element(el) -> dict:
    doc = _window_json(el.ambient, [el], "coeffs")
    return {**doc, "coeffs": doc["coeffs"][0]}


# --- handlers (each returns a result document and an exit code) ------------


def _run_match_find(args) -> tuple[dict, int]:
    pair = SubsetPair.from_json(_read_json(args.pair))
    m, violator = _match_or_violator(compatibility_graph(pair), partial(Matching, pair))
    if m is not None:
        return {"matching": m.to_json(), "hall_violator": None}, EXIT_OK
    g = pair.group
    return {"matching": None,
            "hall_violator": [g.element_to_json(pair.A[i]) for i in violator]}, EXIT_OK


def _run_match_enumerate(args) -> tuple[dict, int]:
    pair = SubsetPair.from_json(_read_json(args.pair))
    enum = enumerate_matchings(pair, args.cap)
    result = {"count": len(enum.matchings), "truncated": enum.truncated,
              "matchings": [m.to_json() for m in enum.matchings]}
    return result, EXIT_INCONCLUSIVE if enum.truncated else EXIT_OK


def _run_match_acyclic(args) -> tuple[dict, int]:
    pair = SubsetPair.from_json(_read_json(args.pair))
    search = find_acyclic_matching(pair, args.cap)
    result = {"status": search.status,
              "matching": search.matching.to_json() if search.matching else None,
              "matchings_examined": search.matchings_examined,
              "total_matchings": search.total_matchings,
              "acyclic_count": search.acyclic_count}
    return result, EXIT_INCONCLUSIVE if search.status == "inconclusive" else EXIT_OK


def _run_criteria_check(args) -> tuple[dict, int]:
    doc = _read_json(args.pair)
    group = group_from_json(doc.get("group", {}))
    if "A" not in doc:
        raise BadInputError("criteria check requires a set A")
    A = [group.canon(v) for v in doc["A"]]
    free, witness = is_coset_free(group, A)
    result = {"coset_free": free,
              "witness": witness.to_json() if witness else None,
              "prop14": None, "prop14_witness": None}
    B = doc.get("B")
    if B is not None and group.is_abelian and group.is_finite:
        holds, w14 = prop_1_4_condition(group, A, [group.canon(v) for v in B])
        result["prop14"] = holds
        result["prop14_witness"] = w14.to_json(group) if w14 else None
    return result, EXIT_OK


def _run_relative_find(args) -> tuple[dict, int]:
    doc = _read_json(args.input)
    group = group_from_json(doc.get("group", {}))
    a = TupleOfElements(group, [group.canon(v) for v in doc.get("a", [])])
    b = TupleOfElements(group, [group.canon(v) for v in doc.get("b", [])])
    subgroup = Subgroup(group, [group.canon(v) for v in doc.get("subgroup", [])])
    rm, violator = _match_or_violator(_validated_graph(a, b, subgroup),
                                      partial(RelativeMatching, a, b, subgroup))
    if rm is not None:
        return {"matching": {"sigma": list(rm.sigma)}, "hall_violator": None}, EXIT_OK
    return {"matching": None, "hall_violator": list(violator)}, EXIT_OK


def _run_relative_transfer(args) -> tuple[dict, int]:
    doc = _read_json(args.input)
    hom = Homomorphism.from_json(doc.get("hom", {}))
    a = TupleOfElements(hom.source, [hom.source.canon(v) for v in doc.get("a", [])])
    b = TupleOfElements(hom.source, [hom.source.canon(v) for v in doc.get("b", [])])
    verified = verify_hom_transfer(hom, a, b)
    image_a = push_forward(hom, a)
    result = {"transfer_verified": verified,
              "kernel": [hom.source.element_to_json(k) for k in hom.kernel().members],
              "image_a": [hom.target.element_to_json(x) for x in image_a.entries]}
    return result, EXIT_OK if verified else EXIT_VIOLATION


def _run_primes_family(args) -> tuple[dict, int]:
    rows = family_table(args.prop, args.upto, enumeration_cap=args.cap)
    result = {"family": args.prop, "upto": args.upto,
              "primes": [row.p for row in rows],
              "verdicts": [row.to_json() for row in rows]}
    return result, EXIT_OK


def _run_primes_scan(args) -> tuple[dict, int]:
    report = acyclic_property_scan(args.p, args.size_cap, args.budget,
                                   seed=args.seed, log_path=args.log)
    code = EXIT_OK
    if report.budget_exhausted and report.failure is None:
        code = EXIT_INCONCLUSIVE
    return report.to_json(), code


def _run_primes_audit(args) -> tuple[dict, int]:
    group = CyclicGroup(args.n)
    members = _parse_int_list(args.set)
    holds = lemma_2_1_audit(group, members, enumeration_cap=args.cap)
    result = {"group": group.to_json(), "set": members,
              "fixed_point_property": holds}
    return result, EXIT_OK if holds else EXIT_VIOLATION


def _load_subspace_pair(path: str):
    doc = _read_json(path)
    if "A" not in doc or "B" not in doc:
        raise BadInputError("expected a document with subspaces A and B")
    a_space = subspace_from_json(doc["A"])
    b_space = subspace_from_json(doc["B"])
    if not a_space.ambient.compatible(b_space.ambient):
        raise BadInputError("A and B live in incompatible ambients")
    return a_space, b_space


def _run_linear_match(args) -> tuple[dict, int]:
    a_space, b_space = _load_subspace_pair(args.pair)
    abasis = OrderedBasis.canonical(a_space)
    outcome = match_basis(abasis, b_space, retries=args.retries, seed=args.seed)
    basis = outcome.basis
    result = {"matched_basis": (_window_json(a_space.ambient, basis.elements, "vectors")
                                if basis else None),
              "violator": list(outcome.violator) if outcome.violator else None,
              "attempts": outcome.attempts}
    return result, EXIT_OK


def _run_linear_strong(args) -> tuple[dict, int]:
    a_space, b_space = _load_subspace_pair(args.pair)
    report = strong_matching_report(a_space, b_space)
    witness = None
    if report.witness is not None:
        witness = {"a": _encode_element(report.witness.a),
                   "b": _encode_element(report.witness.b),
                   "product": _encode_element(report.witness.product)}
    result = {"exists": report.exists, "certificate": report.certificate,
              "decisive": report.decisive, "witness": witness}
    return result, EXIT_OK


def _run_linear_scaling(args) -> tuple[dict, int]:
    a_space, b_space = _load_subspace_pair(args.pair)
    alpha = find_scaling(a_space, b_space)
    return {"alpha": _encode_element(alpha) if alpha is not None else None}, EXIT_OK


def _run_linear_acyclic(args) -> tuple[dict, int]:
    a_space, b_space = _load_subspace_pair(args.pair)
    outcome = find_acyclic_linear_matching(a_space, b_space)
    result = {"certificate": outcome.certificate,
              "alpha": (_encode_element(outcome.alpha)
                        if outcome.alpha is not None else None),
              "iso": outcome.iso.to_json(),
              "domain_basis": _window_json(a_space.ambient, outcome.iso.domain.elements,
                                           "vectors"),
              "codomain_basis": _window_json(b_space.ambient, outcome.iso.codomain.elements,
                                             "vectors"),
              "acyclicity_claimed": outcome.acyclicity_claimed}
    return result, EXIT_OK


_HANDLERS = {
    ("match", "find"): _run_match_find,
    ("match", "enumerate"): _run_match_enumerate,
    ("match", "acyclic"): _run_match_acyclic,
    ("criteria", "check"): _run_criteria_check,
    ("relative", "find"): _run_relative_find,
    ("relative", "transfer"): _run_relative_transfer,
    ("primes", "family"): _run_primes_family,
    ("primes", "scan"): _run_primes_scan,
    ("primes", "audit"): _run_primes_audit,
    ("linear", "match"): _run_linear_match,
    ("linear", "strong"): _run_linear_strong,
    ("linear", "scaling"): _run_linear_scaling,
    ("linear", "acyclic"): _run_linear_acyclic,
}

_CONFIG_KEYS = ("pair", "input", "cap", "budget", "size_cap", "retries",
                "prop", "upto", "p", "n", "set", "log", "output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchkit",
        description="Matchings in groups and matched bases in algebras.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, help="write the report here instead of stdout")

    pair_arg = argparse.ArgumentParser(add_help=False)
    pair_arg.add_argument("--pair", required=True, help="pair JSON file, or - for stdin")

    match_p = sub.add_parser("match", help="matchings between subsets of a group")
    match_sub = match_p.add_subparsers(dest="action", required=True)
    match_sub.add_parser("find", parents=[common, pair_arg])
    p = match_sub.add_parser("enumerate", parents=[common, pair_arg])
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    p = match_sub.add_parser("acyclic", parents=[common, pair_arg])
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)

    criteria_p = sub.add_parser("criteria", help="matchability criteria and witnesses")
    criteria_sub = criteria_p.add_subparsers(dest="action", required=True)
    criteria_sub.add_parser("check", parents=[common, pair_arg])

    relative_p = sub.add_parser("relative", help="tuple matchings relative to a normal subgroup")
    relative_sub = relative_p.add_subparsers(dest="action", required=True)
    p = relative_sub.add_parser("find", parents=[common])
    p.add_argument("--input", required=True, help="instance JSON file, or - for stdin")
    p = relative_sub.add_parser("transfer", parents=[common])
    p.add_argument("--input", required=True, help="instance JSON file, or - for stdin")

    primes_p = sub.add_parser("primes", help="prime families without acyclic matchings")
    primes_sub = primes_p.add_subparsers(dest="action", required=True)
    p = primes_sub.add_parser("family", parents=[common])
    p.add_argument("--prop", required=True, choices=["22", "23"])
    p.add_argument("--upto", type=int, required=True)
    p.add_argument("--cap", type=int, default=0,
                   help="enumeration budget per prime; 0 skips exhaustion")
    p = primes_sub.add_parser("scan", parents=[common])
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--size-cap", dest="size_cap", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_ENUMERATION_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log", default=None, help="append JSONL pair records here")
    p = primes_sub.add_parser("audit", parents=[common])
    p.add_argument("--n", type=int, required=True, help="audit inside Z/n")
    p.add_argument("--set", required=True, help="comma-separated members of A")
    p.add_argument("--cap", type=int, default=1_000_000)

    linear_p = sub.add_parser("linear", help="matched bases and strong matchings")
    linear_sub = linear_p.add_subparsers(dest="action", required=True)
    p = linear_sub.add_parser("match", parents=[common, pair_arg])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--retries", type=int, default=200)
    linear_sub.add_parser("strong", parents=[common, pair_arg])
    linear_sub.add_parser("scaling", parents=[common, pair_arg])
    linear_sub.add_parser("acyclic", parents=[common, pair_arg])
    return parser


def _config_echo(args) -> dict:
    return {key: getattr(args, key) for key in _CONFIG_KEYS
            if getattr(args, key, None) is not None}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = f"{args.command} {args.action}"
    try:
        result, code = _HANDLERS[(args.command, args.action)](args)
    except BadInputError as exc:
        print(f"matchkit: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MatchBasisInconclusiveError as exc:
        print(f"matchkit: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (InvariantViolationError, AssertionError) as exc:
        print(f"matchkit: invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except _INPUT_ERRORS as exc:
        print(f"matchkit: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    doc = {"tool": "matchkit", "version": __version__, "command": command,
           "seed": getattr(args, "seed", 0), "config": _config_echo(args),
           "result": result}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
