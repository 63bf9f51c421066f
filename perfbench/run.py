#!/usr/bin/env python3
"""Build and run one benchmark workload; print its result as the last line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload oltp|investigate|fleet \
        --seed N --seconds S --trace 0|1

The driver (perfbench/*.cc) is built from the checkout's sources into
$CARGO_TARGET_DIR (default .bench_build). Each run gets a private
directory under .bench_run/ that is removed on every exit path; the
traced run leaves its spans in .bench_run/spans-<workload>.tsv. The run
is killed if it exceeds its time cap. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oltp", "investigate", "fleet")
BUILD_CAP_S = 850
RUN_CAP_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, d))


def build():
    """Configure once, then bring the driver up to date. Returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "connection.h")):
        fail("engine sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cmds = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmds.append(["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
        cmds.append(["cmake", "--build", out, "--target", "perfbench",
                     "-j", str(min(4, os.cpu_count() or 1))])
        # The compiler's temporary files stay inside the build directory.
        tmp = os.path.join(out, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)
        for cmd in cmds:
            try:
                r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                   env=env, timeout=BUILD_CAP_S)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if r.returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def declared(workload, trace):
    """Metric name -> unit from BENCHMARK.json; None for a workload it
    does not list (oltp, kept runnable while its oracle fails)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if workload not in {w["name"] for w in spec["workloads"]}:
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def host_info():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model}


def source_version():
    """Git sha when the checkout is a repository, plus a digest of the
    engine and driver sources (a plain checkout has no .git)."""
    sha = "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            sha = r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cc", ".h")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return sha, h.hexdigest()[:16]


def check_result(line, units):
    """The result line must be exactly the contract's object, with finite
    values and, when `units` is given, exactly those metrics and units."""
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected keys %s" % sorted(res))
    if not isinstance(res["correct"], bool):
        raise ValueError("correct is not a bool")
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or res[k] < 0:
            raise ValueError(k + " is not a count")
    if res["attempted"] < 1:
        raise ValueError("nothing attempted")
    if not res["metrics"]:
        raise ValueError("no metrics")
    if units is not None and set(res["metrics"]) != set(units):
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "undeclared %s" % (sorted(set(units) - set(res["metrics"])),
                                            sorted(set(res["metrics"]) - set(units))))
    for name, m in res["metrics"].items():
        if units is not None and units[name] != m.get("unit"):
            raise ValueError("unit of %s is %s, declared %s"
                             % (name, m.get("unit"), units[name]))
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError("bad value for " + name)
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    binary = build()
    run_root = os.path.join(ROOT, ".bench_run")
    os.makedirs(run_root, exist_ok=True)
    run_dir = os.path.join(run_root, "%s-%d-%d" % (args.workload, args.seed,
                                                   os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir]
    if args.trace:
        cmd += ["--spans",
                os.path.join(run_root, "spans-%s.tsv" % args.workload)]
    # The driver clears every REWINDDB_* variable itself (engine defaults).
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_CAP_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_CAP_S, 3)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("driver printed nothing (exit %d)" % proc.returncode, 1)
    sha, digest = source_version()
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "git_sha": sha,
            "source_digest": digest, "host": host_info()}
    for l in lines[:-1]:
        print(l)
    print("meta " + json.dumps(meta, sort_keys=True))
    try:
        res = check_result(lines[-1], declared(args.workload, args.trace))
    except (ValueError, json.JSONDecodeError) as e:
        fail("bad result line (%s): %.300s" % (e, lines[-1]), 1)
    print(json.dumps(res))
    if proc.returncode != 0 or not res["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
