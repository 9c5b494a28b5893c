"""Command-line front end.

Subcommands:
  describe  — summarize a ring built from a construction expression
  ideals    — list the two-sided ideal lattice of a ring
  check     — run one predicate on (ring, ideal[, subset])
  verify    — run the law registry over a corpus and emit a report
  reproduce — re-run the five worked examples with pinned verdicts

Exit codes: 0 success, 1 check returned false, 2 usage error,
3 capacity exceeded, 4 verification violations.
"""

import argparse
import json
import sys

from . import harness
from .errors import CapacityExceeded, InvalidParameter, RinglabError
from .exprs import (
    IntLit,
    build_ideal,
    build_ring,
    build_subset,
    parse_ideal_spec,
    parse_ring_expr,
    parse_subset_spec,
)
from .ideals import IdealSet, enumerate_ideals, ideal_generate
from .predicates import (
    is_J_ideal,
    is_S_J_ideal,
    is_S_n_ideal,
    is_S_prime,
    is_n_ideal,
    is_right_S_J_ideal,
    is_right_S_prime,
)
from .radicals import jacobson_radical, prime_radical
from .subsets import SubsetS

MODES = {"fixed": "fixed-s", "per-pair": "per-pair-s"}
PREDICATES = ("j", "n", "s-prime", "s-n", "s-j", "right-s-prime",
              "right-s-j")


def _raw_indices(ring, nodes, what):
    out = []
    for node in nodes:
        if not isinstance(node, IntLit):
            raise InvalidParameter(
                "--raw takes integer element indices", got=type(node).__name__)
        if not 0 <= node.value < ring.size:
            raise InvalidParameter("%s index out of range" % what,
                                   index=node.value, size=ring.size)
        out.append(node.value)
    return out


def _resolve_ideal_arg(ring, text, raw):
    spec = parse_ideal_spec(text)
    if raw:
        idxs = _raw_indices(ring, spec.elems, "ideal generator")
        return IdealSet(ring, ideal_generate(ring, idxs), label=text)
    return build_ideal(ring, spec)


def _resolve_subset_arg(ring, text, raw):
    spec = parse_subset_spec(text)
    if raw:
        idxs = _raw_indices(ring, spec.elems, "subset element")
        if spec.kind == "gen_s":
            from .subsets import generated_subset
            return generated_subset(ring, idxs, label=text)
        return SubsetS(ring, idxs, label=text)
    return build_subset(ring, spec)


def _emit_json(path, payload):
    if path:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _label(ring, obj, raw):
    if raw:
        return obj if obj is None else _plain_nested(obj)
    return harness.label_indices(ring, obj)


def _plain_nested(obj):
    if isinstance(obj, (tuple, list)):
        return [_plain_nested(x) for x in obj]
    return int(obj) if hasattr(obj, "__int__") else obj


def cmd_describe(args):
    ring = build_ring(parse_ring_expr(args.expr))
    lattice = enumerate_ideals(ring)
    jac = jacobson_radical(ring, lattice)
    info = {
        "ring_expr": ring.label,
        "size": ring.size,
        "commutative": bool(ring.commutative),
        "identity": None if ring.one is None
        else ring.element_label(ring.one),
        "ideal_count": len(lattice),
        "maximal_ideal_count": len(lattice.maximal_indices()),
        "prime_ideal_count": len(lattice.prime_indices()),
        "radical": harness.gens_label(ring, jac),
        "radical_size": jac.size,
    }
    if ring.commutative and ring.one is not None:
        beta, degenerate = prime_radical(ring, lattice)
        info["nilradical"] = harness.gens_label(ring, beta)
        info["nilradical_size"] = beta.size
        if degenerate:
            info["nilradical_note"] = "no proper prime ideals"
    for key, val in info.items():
        print("%s: %s" % (key, val))
    _emit_json(args.json, info)
    return 0


def cmd_ideals(args):
    ring = build_ring(parse_ring_expr(args.expr))
    lattice = enumerate_ideals(ring)
    rows = []
    for i, idl in enumerate(lattice.ideals):
        rows.append({
            "gens": harness.gens_label(ring, idl),
            "size": idl.size,
            "maximal": bool(lattice.is_maximal_idx(i)),
            "prime": bool(lattice.is_prime_idx(i)),
            "nilpotent": bool(lattice.is_nilpotent_idx(i)),
        })
    width = max(len(r["gens"]) for r in rows)
    print("%-*s  %6s  %-7s  %-5s  %s" % (width, "gens", "size", "maximal",
                                         "prime", "nilpotent"))
    for r in rows:
        print("%-*s  %6d  %-7s  %-5s  %s" % (
            width, r["gens"], r["size"],
            "yes" if r["maximal"] else "no",
            "yes" if r["prime"] else "no",
            "yes" if r["nilpotent"] else "no"))
    _emit_json(args.json, {"ring_expr": ring.label, "ideals": rows})
    return 0


def cmd_check(args):
    ring = build_ring(parse_ring_expr(args.expr))
    mode = MODES[args.mode]
    ideal = _resolve_ideal_arg(ring, args.ideal, args.raw)
    needs_subset = args.predicate not in ("j", "n")
    subset = None
    if args.subset is not None:
        subset = _resolve_subset_arg(ring, args.subset, args.raw)
    elif needs_subset:
        raise InvalidParameter("--subset is required for this predicate",
                               predicate=args.predicate)
    if args.predicate == "j":
        res = is_J_ideal(ring, ideal)
    elif args.predicate == "n":
        res = is_n_ideal(ring, ideal)
    elif args.predicate == "s-prime":
        res = is_S_prime(ring, ideal, subset, mode=mode)
    elif args.predicate == "s-n":
        res = is_S_n_ideal(ring, ideal, subset, mode=mode)
    elif args.predicate == "s-j":
        res = is_S_J_ideal(ring, ideal, subset, mode=mode)
    elif args.predicate == "right-s-prime":
        res = is_right_S_prime(ring, ideal, subset, mode=mode)
    else:
        res = is_right_S_J_ideal(ring, ideal, subset, mode=mode,
                                 method=args.method)
    payload = {
        "ring_expr": ring.label,
        "predicate": args.predicate,
        "ideal": args.ideal,
        "subset": args.subset,
        "verdict": bool(res.verdict),
        "witness_s": _label(ring, res.witness_s, args.raw),
        "counterexample": _label(ring, res.counterexample, args.raw),
        "quantifier_mode": res.quantifier_mode,
        "method": res.method,
    }
    print("ring: %s (size %d)" % (ring.label, ring.size))
    print("predicate: %s" % args.predicate)
    print("ideal: %s (size %d)" % (args.ideal, ideal.size))
    if subset is not None:
        print("subset: %s (size %d)" % (args.subset, subset.size))
    print("verdict: %s" % ("true" if res.verdict else "false"))
    if res.witness_s is not None:
        print("witness_s: %s" % payload["witness_s"])
    if res.counterexample is not None:
        print("counterexample: %s" % json.dumps(payload["counterexample"]))
    print("mode: %s" % res.quantifier_mode)
    print("method: %s" % res.method)
    _emit_json(args.json, payload)
    return 0 if res.verdict else 1


def cmd_verify(args):
    ids = None
    if args.properties:
        ids = [p.strip() for p in args.properties.split(",") if p.strip()]
    config = None
    if args.max_size is not None:
        config = {"max_size": args.max_size}
    corpus = harness.build_corpus(config)
    print("corpus: %d rings, %d instances" % (corpus.ring_count,
                                              corpus.instance_count))
    for entry in corpus.skipped:
        print("skipped %s: %s" % (entry["ring_expr"], entry["reason"]))
    reports = harness.verify_properties(corpus=corpus, ids=ids)
    print("%-4s  %-38s %7s %8s %7s %9s" % (
        "id", "citation", "tested", "vacuous", "passed", "violated"))
    for r in reports:
        print("%-4s  %-38s %7d %8d %7d %9d" % (
            r["property_id"], r["citation"], r["tested"], r["vacuous"],
            r["passed"], r["violated"]))
        for v in r["violations"]:
            print("      violation: %s" % json.dumps(v, sort_keys=True))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(harness.report_json(reports))
    ok = harness.gate_passed(reports)
    total = sum(r["violated"] for r in reports)
    print("violations: %d%s" % (
        total, "" if ok else "  (gating laws violated)"))
    return 0 if ok else 4


def cmd_reproduce(args):
    result = harness.run_worked_examples()
    for ex in result["examples"]:
        print("%s %s  %s" % (ex["id"],
                             "PASS" if ex["passed"] else "FAIL",
                             ex["description"]))
    _emit_json(args.json, result)
    return 0 if result["passed"] else 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ringlab",
        description="Exact checks on finite rings: ideal lattices, "
                    "radicals, and multiplicative-subset-relative laws.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="summarize a ring")
    p.add_argument("expr")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("ideals", help="list the ideal lattice")
    p.add_argument("expr")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_ideals)

    p = sub.add_parser("check", help="run one predicate")
    p.add_argument("expr")
    p.add_argument("--ideal", required=True, metavar="SPEC",
                   help="ideal generators, e.g. gen(4)")
    p.add_argument("--subset", metavar="SPEC",
                   help="subset spec, e.g. mulclosed(1,3,9,27) or gen_s(3)")
    p.add_argument("--predicate", required=True, choices=PREDICATES)
    p.add_argument("--mode", choices=sorted(MODES), default="fixed")
    p.add_argument("--method", choices=("lattice", "elementwise"),
                   default="lattice",
                   help="evaluation strategy for right-s-j")
    p.add_argument("--raw", action="store_true",
                   help="treat element literals as raw element indices")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="run the law registry over a corpus")
    p.add_argument("--properties", metavar="IDS",
                   help="comma-separated law ids, e.g. P1,P24")
    p.add_argument("--max-size", type=int, metavar="N",
                   help="drop rings larger than N (also drops matrix rings)")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce", help="re-run the worked examples")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityExceeded as err:
        print("capacity exceeded: %s %s" % (err.message, err.details or ""),
              file=sys.stderr)
        return 3
    except RinglabError as err:
        detail = " %s" % err.details if err.details else ""
        print("error: %s%s" % (err.message, detail), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
