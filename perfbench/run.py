"""ringlab benchmark driver.

Run from the root of a ringlab checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each run executes in a fresh Python process (worker.py) that imports
ringlab from ``src/`` of the current directory.  Four short probe processes
time the import as well, so that ``setup_s`` uses the median of five
import times.  ``RINGLAB_THREADS`` is cleared, so ``verify`` uses its
default thread count.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the details (environment, sample counts, tail
percentile, failures).  ``--workload all`` runs every workload with
tracing off and on and prints each metric by name and unit.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("verify", "describe", "check")
RUN_TIMEOUT_S = 170
IMPORT_PROBES = 4
PROBE = ("import sys, time; sys.path.insert(0, 'src'); "
         "import ringlab, ringlab.cli; print(time.monotonic())")


def child_env():
    env = dict(os.environ)
    env.pop("RINGLAB_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def probe_import(env):
    t0 = time.monotonic()
    res = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True)
    return float(res.stdout.strip().splitlines()[-1]) - t0


def run_once(workload, seed, seconds, trace):
    """One run; returns (detail, result) or raises RuntimeError."""
    env = child_env()
    imports = [probe_import(env) for _ in range(IMPORT_PROBES)]
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spawned-at", repr(t0), "--import-s"] + [repr(x) for x in imports]
    try:
        res = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker exceeded %d s" % RUN_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError("worker exited %d:\n%s" % (res.returncode,
                                                      res.stderr[-4000:]))
    lines = res.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "ringlab", "__init__.py")):
        print("run.py: no src/ringlab here; run from a ringlab checkout",
              file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            detail, result = run_once(args.workload, args.seed,
                                      args.seconds, args.trace)
            print(json.dumps({"detail": detail}, sort_keys=True))
            print(json.dumps(result))
            return 0
        correct = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                detail, result = run_once(workload, args.seed, args.seconds,
                                          trace)
                correct &= result["correct"]
                print("== %s trace=%d correct=%s attempted=%d failed=%d "
                      "fail_frac=%g" % (
                          workload, trace, result["correct"],
                          result["attempted"], result["failed"],
                          detail["fail_frac"]))
                for name, m in result["metrics"].items():
                    print("%-48s %14.6g %s" % (name, m["value"], m["unit"]))
        return 0 if correct else 1
    except RuntimeError as err:
        print("run.py: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
