"""Write perfbench/pins.json: the verify parts and every pinned digest.

Run from the root of a ringlab checkout, at the commit whose outputs are
taken as correct:

    python3 perfbench/pin.py

The verify parts are kept once written; delete pins.json to split the
corpus again.  The parts split ``harness.default_ring_exprs()`` into
PARTS groups.  Each family is dealt round-robin over the parts, then
rings of the same family are swapped between parts until every part
costs about the same verify time and law instances per second, so that
the seed, which picks the part, changes little but the inputs.  The
largest ring, M(2, Z6), is in every part; the union of the parts is the
full default corpus.

Pinned: the sha256 of the verify report of each part; a digest of the
stdout of every describe expression the generator can draw; a digest of
``CheckResult.to_json()`` for every query the check generator can draw.
The full corpus is also verified once in process and once through a
``ringlab verify --json`` subprocess, and the two reports must match.
"""

import argparse
import collections
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins.json")
PARTS = 8


def ring_costs(harness):
    """Verify seconds (default thread count) and law instances of every
    default ring."""
    out = []
    for expr, family in harness.default_ring_exprs():
        ctx = harness.build_context(expr, family)
        t0 = time.perf_counter()
        reports = harness.verify_properties(harness.Corpus(contexts=[ctx]))
        dt = time.perf_counter() - t0
        ops = sum(r["tested"] + r["vacuous"] for r in reports)
        out.append((expr, family, dt, ops, ctx.ring.size))
        print("cost %-40s %.3f s %d ops" % (expr, dt, ops), flush=True)
    return out


def split(costs, parts, iters=40000):
    """Family-stratified parts of equal time and equal ops per second.

    The largest ring joins every part: it sets the peak memory of a
    verify run, which would otherwise depend on the part.
    """
    largest = max(costs, key=lambda r: r[4])
    costs = [r for r in costs if r is not largest]
    by_family = collections.OrderedDict()
    for row in costs:
        by_family.setdefault(row[1], []).append(row)
    where = {}
    k = 0
    for rows in by_family.values():
        for row in sorted(rows, key=lambda r: -r[2]):
            where[row[0]] = k % parts
            k += 1
    info = {row[0]: row for row in costs}

    def spread(assign):
        t = [0.0] * parts
        ops = [0] * parts
        for expr, p in assign.items():
            t[p] += info[expr][2]
            ops[p] += info[expr][3]
        rate = [o / s for o, s in zip(ops, t)]
        mt, mr = sum(t) / parts, sum(rate) / parts
        return (max(abs(x - mt) for x in t) / mt
                + max(abs(x - mr) for x in rate) / mr)

    rng = random.Random(0)
    exprs = list(where)
    best = spread(where)
    for _ in range(iters):
        a, b = rng.sample(exprs, 2)
        if info[a][1] != info[b][1] or where[a] == where[b]:
            continue
        where[a], where[b] = where[b], where[a]
        s = spread(where)
        if s <= best:
            best = s
        else:
            where[a], where[b] = where[b], where[a]
    print("part spread score %.4f" % best, flush=True)
    return [[[e, f] for e, f, _, _, _ in costs if where[e] == p]
            + [list(largest[:2])] for p in range(parts)]


def main(argv=None):
    argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawTextHelpFormatter).parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    os.environ.pop("RINGLAB_THREADS", None)
    from ringlab import harness
    import workloads as w

    old = {}
    if os.path.exists(PINS):
        with open(PINS) as fh:
            old = json.load(fh)
    if "verify" not in old:
        parts = split(ring_costs(harness), PARTS)
    else:
        parts = old["verify"]["parts"]

    shas = []
    for k, entries in enumerate(parts):
        corpus = w.verify_setup([tuple(e) for e in entries])
        text, ops, gate = w.verify_pass(corpus)
        if not gate:
            raise SystemExit("part %d violates a gating law" % k)
        shas.append(hashlib.sha256(text.encode()).hexdigest())
        print("verify part %d: %d rings, %d ops" % (k, len(entries), ops),
              flush=True)

    # the full corpus, in process and through the command line
    full_text, full_ops, _ = w.verify_pass(harness.build_corpus())
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        path = os.path.join(tmp, "report.json")
        env = dict(os.environ, PYTHONPATH="src")
        subprocess.run([sys.executable, "-m", "ringlab.cli", "verify",
                        "--json", path], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        with open(path) as fh:
            cli_text = fh.read()
    if cli_text != full_text:
        raise SystemExit("in-process report differs from `ringlab verify`")
    print("full corpus: %d ops; CLI report identical" % full_ops, flush=True)

    describe = {}
    for expr in w.describe_catalog():
        rc, text = w.describe_op(expr)
        if rc != 0:
            raise SystemExit("describe %s exited %d" % (expr, rc))
        describe[expr] = w.digest(text)
    print("describe: %d expressions" % len(describe), flush=True)

    pool = w.build_pool()
    check = {}
    for r, q in w.check_universe(pool):
        check[w.query_key(pool, r, q)] = w.digest(w.check_op(pool, r, q))
    print("check: %d queries" % len(check), flush=True)

    pins = {
        "verify": {
            "parts": parts,
            "report_sha256": shas,
            "full_corpus_report_sha256": hashlib.sha256(
                full_text.encode()).hexdigest(),
            "full_corpus_ops": full_ops,
        },
        "describe": describe,
        "check": check,
    }
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
