#!/usr/bin/env python3
"""Repository benchmark: simulator cost and modelled MPI time.

Run from the repository root:

    python3 perfbench/run.py --workload pt2pt_paper --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 1
    python3 perfbench/run.py --selftest

Builds perfbench/ (and the simulator sources it compiles) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
measuring program, checks that its result line names exactly the metrics of
BENCHMARK.json with their units, and prints that line last.  Workloads,
metrics and the paper reference values are described in perfbench/record.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures once, then builds; compiler output goes to stderr."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "perfbench")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def check_result(line, trace):
    """The result line must carry exactly BENCHMARK.json's metrics for the mode."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON: %r" % line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys: %s" % sorted(result))
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra or mis-united %s"
             % (sorted(set(want) - set(got)),
                sorted(k for k in got if want.get(k) != got[k])))


def note_digest(exe, bdir, workload, seed, digest):
    """Remembers each (workload, seed) digest across processes of one build
    and reports a mismatch as a finding (simulated statistics that depend on
    the process, e.g. on host memory layout), without failing the run."""
    path = os.path.join(bdir, "digests.json")
    st = os.stat(exe)
    build_id = "%d:%d" % (st.st_mtime_ns, st.st_size)
    seen = {}
    if os.path.exists(path):
        try:
            with open(path) as f:
                seen = json.load(f)
        except (OSError, ValueError):
            seen = {}
    if seen.get("build") != build_id:
        seen = {"build": build_id, "digests": {}}
    key = "%s:%d" % (workload, seed)
    prev = seen["digests"].setdefault(key, [])
    if prev and digest not in prev:
        print("finding: digest %s of %s differs from earlier process(es) %s"
              % (digest, key, ",".join(prev)))
    if digest not in prev:
        prev.append(digest)
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)


def measure(exe, bdir, record, workload, seed, seconds, trace):
    """Runs one workload; prints the program's lines and returns its result line."""
    ref = record["paper_reference"]
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--paper-ref", "%s,%s,%s,%s" % (ref["uni_bw_orig_mbs"], ref["uni_bw_epc_mbs"],
                                           ref["bi_bw_epc_mbs"], ref["latency_gain_pct"])]
    if trace:
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(bdir, "traces", workload + ".json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("measuring program exited with %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
        if line.startswith("digest "):
            note_digest(exe, bdir, workload, seed, line.split()[1])
    check_result(lines[-1], trace)
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="a workload of BENCHMARK.json, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check that two in-process pt2pt_paper runs give equal digests")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    record = load_json(os.path.join(HERE, "record.json"))
    bdir = build_dir()
    exe = build(bdir)

    if args.selftest:
        sys.exit(subprocess.run([exe, "--selftest", "--seed", str(args.seed)],
                                timeout=RUN_TIMEOUT_S).returncode)
    if args.workload != "all":
        print(measure(exe, bdir, record, args.workload, args.seed, args.seconds, args.trace),
              flush=True)
        return
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    incorrect = []
    for w in spec["workloads"]:
        print("== " + w["name"], flush=True)
        line = measure(exe, bdir, record, w["name"], args.seed, args.seconds, args.trace)
        print(line, flush=True)
        if not json.loads(line)["correct"]:
            incorrect.append(w["name"])
    if incorrect:
        fail("incorrect results on " + ", ".join(incorrect))


if __name__ == "__main__":
    main()
