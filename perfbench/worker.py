"""One benchmark run, in a fresh process started by run.py.

Prints a detail line and then the result line, both JSON.  With tracing
off it measures the end-to-end metrics; with tracing on it runs a fixed
prefix of the workload twice, untraced and then traced, and reports the
per-module metrics of the traced copy.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins.json")

# operations in the traced prefix of each stream workload
TRACE_OPS = {"describe": 18, "check": 580}
# set-ups timed per run for the setup_s median; the stream then runs on
# the last one (verify times one set-up per pass)
SETUP_REPEATS = 3
MIN_PASSES = 3


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); percentile is None when
    there are too few samples for any such percentile.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], None, n
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n, n


def environment(root):
    import numpy
    import scipy
    from ringlab import harness
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "verify_threads": harness.default_threads(),
        "git_commit": commit,
    }


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, ok, what, count=1):
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.errors) < 5:
                self.errors.append(what)


def trace_twice(run, tracer_cls):
    """Time ``run()`` untraced, then traced; return (tracer, ratio)."""
    plain = run()
    tracer = tracer_cls()
    tracer.install()
    try:
        traced = run()
    finally:
        tracer.remove()
    return tracer, traced / plain


def timed_setup(build):
    gc.collect()
    t0 = time.perf_counter()
    state = build()
    return state, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def run_verify(w, pins, args, tally, tracer_cls):
    part, entries = w.verify_part(pins, args.seed)
    expected = pins["verify"]["report_sha256"][part]
    out = {"part": part, "rings": len(entries), "setups": [], "passes": [],
           "ops": None}

    def one_pass():
        corpus, setup = timed_setup(lambda: w.verify_setup(entries))
        t0 = time.perf_counter()
        text, ops, gate = w.verify_pass(corpus)
        dt = time.perf_counter() - t0
        ok = gate and hashlib.sha256(text.encode()).hexdigest() == expected
        tally.op(ok, "verify part %d: report or gate mismatch" % part, ops)
        out["ops"] = ops
        return setup, dt

    if tracer_cls is None:
        while True:
            setup, dt = one_pass()
            out["setups"].append(setup)
            out["passes"].append(dt)
            if (len(out["passes"]) >= MIN_PASSES
                    and sum(out["passes"]) >= args.seconds):
                return out
    out["tracer"], out["overhead"] = trace_twice(lambda: one_pass()[1],
                                                 tracer_cls)
    return out


def run_stream(name, ops, do_op, args, tally, tracer_cls, setup=None):
    """Drive a stream workload; ``ops(state)`` returns a fresh op stream."""
    out = {"setups": [], "lat": [], "elapsed": None}
    if tracer_cls is None:
        state = None
        for _ in range(SETUP_REPEATS if setup else 0):
            state = None
            state, dt = timed_setup(setup)
            out["setups"].append(dt)
        lat = out["lat"]
        t_start = time.perf_counter()
        for op in ops(state):
            t0 = time.perf_counter()
            ok, what = do_op(state, op)
            t1 = time.perf_counter()
            lat.append(t1 - t0)
            tally.op(ok, what)
            if t1 - t_start >= args.seconds:
                break
        out["elapsed"] = time.perf_counter() - t_start
        return out

    def prefix():
        state = setup() if setup else None
        t_start = time.perf_counter()
        for k, op in enumerate(ops(state)):
            if k == TRACE_OPS[name]:
                break
            ok, what = do_op(state, op)
            tally.op(ok, what)
        return time.perf_counter() - t_start

    out["tracer"], out["overhead"] = trace_twice(prefix, tracer_cls)
    return out


def run_describe(w, pins, args, tally, tracer_cls):
    expected = pins["describe"]

    def do_op(_, expr):
        try:
            rc, text = w.describe_op(expr)
        except Exception as err:  # a failed operation, counted and named
            return False, "describe %s raised %r" % (expr, err)
        ok = rc == 0 and expected.get(expr) == w.digest(text)
        return ok, "describe %s: exit %s or digest mismatch" % (expr, rc)

    return run_stream("describe", lambda _: w.describe_stream(args.seed),
                      do_op, args, tally, tracer_cls)


def run_check(w, pins, args, tally, tracer_cls):
    expected = pins["check"]

    def do_op(pool, rq):
        r, q = rq
        key = w.query_key(pool, r, q)
        try:
            text = w.check_op(pool, r, q)
        except Exception as err:  # a failed operation, counted and named
            return False, "check %s raised %r" % (key, err)
        return expected.get(key) == w.digest(text), \
            "check %s: digest mismatch" % key

    return run_stream("check", lambda pool: w.check_stream(args.seed, pool),
                      do_op, args, tally, tracer_cls, setup=w.build_pool)


RUNNERS = {"verify": run_verify, "describe": run_describe,
           "check": run_check}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(workload, out, import_s):
    med = statistics.median
    setup_s = med(import_s) + (med(out["setups"]) if out["setups"] else 0.0)
    if workload == "verify":
        # one operation of a user's verify is the whole pass
        lat = out["passes"]
        ops_per_s = med(out["ops"] / p for p in out["passes"])
        wall_s = setup_s + med(lat)
    else:
        lat = out["lat"]
        ops_per_s = len(lat) / out["elapsed"]
        wall_s = setup_s + med(lat)
    tail_s, pct, n = tail(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (1000 * med(lat), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"op_tail_percentile": pct, "op_samples": n}
    return metrics, detail


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() when run.py started this process")
    p.add_argument("--import-s", type=float, nargs="*", default=[],
                   help="import times measured in probe processes")
    args = p.parse_args(argv)

    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import ringlab  # noqa: F401  (timed: part of set-up)
    import ringlab.cli  # noqa: F401
    import_s = args.import_s + [time.monotonic() - args.spawned_at]
    import tracer
    import workloads

    with open(PINS) as fh:
        pins = json.load(fh)
    tally = Tally()
    out = RUNNERS[args.workload](workloads, pins, args, tally,
                                 tracer.Tracer if args.trace else None)
    if args.trace:
        metrics = out["tracer"].metrics(out["overhead"])
        detail = {}
    else:
        metrics, detail = end_to_end(args.workload, out, import_s)
    detail.update({
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "env": environment(root),
        "fail_frac": tally.failed / max(1, tally.attempted),
        "errors": tally.errors, "import_s": import_s,
        "setups_s": out["setups"] if not args.trace else None,
    })
    if args.workload == "verify":
        detail.update({"part": out["part"], "rings": out["rings"],
                       "ops_per_pass": out["ops"],
                       "passes_s": out["passes"] or None})
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
