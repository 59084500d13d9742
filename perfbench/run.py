#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/bpbench.exe with dune,
makes sure the reference-engine results for the workload and seed exist
(computed in a separate process, outside the measured run, and cached
under perfbench/_out/cache), then runs the measurement. The last line
of standard output is the result as one JSON object. perfbench/README.md
explains the metrics.
"""

import argparse
import hashlib
import os
import resource
import subprocess
import sys

HERE = "perfbench"
EXE = os.path.join("_build", "default", HERE, "bpbench.exe")
OUT = os.path.join(HERE, "_out")
# The large workload's reference costs minutes per request, so its
# results are committed (see README.md) instead of computed per run.
KNOWN = {"large": os.path.join(HERE, "known", "large.tsv")}
# observed runs the stream requests, so it shares their reference.
REFERENCE_SET = {"stream": "stream", "observed": "stream", "suite": "suite", "large": "large"}


def fail(msg, code):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


def source_digest():
    h = hashlib.sha256()
    for top in ("lib", HERE):
        for d, dirs, files in sorted(os.walk(top)):
            dirs[:] = sorted(x for x in dirs if not x.startswith("_"))
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune")):
                    p = os.path.join(d, name)
                    h.update(p.encode())
                    h.update(open(p, "rb").read())
    return h.hexdigest()[:16]


def event_ring_log2():
    """The largest GC event ring, as log2 of its words per domain (10 to
    20), whose file takes at most half the file-size limit. The runtime
    sizes that file for 128 domains plus about 1 MiB of metadata, so a
    2^20-word ring, which holds a whole sweep's events, makes a 1 GiB
    file; a process that writes past the limit is killed by SIGXFSZ."""
    limit, _ = resource.getrlimit(resource.RLIMIT_FSIZE)
    for e in range(20, 10, -1):
        size = (1 << 20) + 128 * 8 * (1 << e)
        if limit == resource.RLIM_INFINITY or size <= limit // 2:
            return e
    return 10


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        lines = r.stdout.split()
        # Only this checkout's own repository counts, not an enclosing one.
        if r.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath("."):
            return lines[1]
        return "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(REFERENCE_SET))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    for need in ("dune-project", "lib", os.path.join(HERE, "dune")):
        if not os.path.exists(need):
            fail("%s not found: run from the repository root" % need, 2)

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./" + HERE + "/bpbench.exe"], timeout=850)
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed", 3)

    os.makedirs(os.path.join(OUT, "cache"), exist_ok=True)
    reference = KNOWN.get(a.workload)
    if reference is None:
        reference = os.path.join(
            OUT, "cache", "%s-seed%d-%s.tsv"
            % (REFERENCE_SET[a.workload], a.seed, file_digest(EXE)))
        if not os.path.exists(reference):
            tmp = reference + ".tmp"
            r = subprocess.run([EXE, "reference", "--workload", a.workload,
                                "--seed", str(a.seed), "--out", tmp], timeout=150)
            if r.returncode != 0:
                fail("reference run failed", 4)
            os.replace(tmp, reference)

    env = dict(os.environ)
    env["OCAML_RUNTIME_EVENTS_DIR"] = OUT
    env["OCAMLRUNPARAM"] = "e=%d" % event_ring_log2()
    env["BENCH_COMMIT"] = commit()
    env["BENCH_SOURCE_DIGEST"] = source_digest()
    r = subprocess.run(
        [EXE, "run", "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace),
         "--reference", reference, "--out", OUT], env=env, timeout=170)
    if r.returncode < 0:
        fail("measurement killed by signal %d" % -r.returncode, 6)
    sys.exit(r.returncode)


if __name__ == "__main__":
    try:
        main()
    except subprocess.TimeoutExpired as e:
        fail("timed out: %s" % " ".join(e.cmd), 5)
