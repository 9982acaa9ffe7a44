#!/usr/bin/env python3
"""Build msgbench and run one workload of the msgsim host benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload fabric --seed 1 --seconds 20 \\
        --trace 0 [--record runs.jsonl] [--violate oracle|fatal]

The first run configures and builds perfbench/ (and the msgsim
libraries it links) into $CARGO_TARGET_DIR, or .bench_build when that
is unset; later runs rebuild only what changed.  The build log goes to
stderr.  stdout carries msgbench's report, and its last line is the
result object.  With --trace 1 the spans are written to
<build>/spans/<workload>-<seed>.json.  --record appends one JSON line
per run (fingerprint, digest, raw host figures, result) for
perfbench/compare.py.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no msgsim sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = ["cmake", "-S", str(BENCH), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "--target", "msgbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "msgbench"


def source_rev():
    """The git commit, or a hash of the sources when not in a repo."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def tagged(lines, tag):
    """Parse the JSON after 'perfbench <tag> ' on a report line."""
    prefix = f"perfbench {tag} "
    for line in lines:
        if line.startswith(prefix):
            return json.loads(line[len(prefix):])
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", help="append this run to a JSONL file")
    ap.add_argument("--violate", default="none",
                    choices=("none", "oracle", "fatal"),
                    help="self-test: break the first operation of "
                         "every job")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not 1 <= args.seconds <= 120:
        fail("--seconds must be 1..120")

    out = build_dir()
    exe = build(out)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", source_rev(), "--violate", args.violate]
    if args.trace:
        spans = out / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out",
                str(spans / f"{args.workload}-{args.seed}.json")]
    try:
        # A hang inside msgsim must not hold the caller past its limit.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("msgbench did not finish in time")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"msgbench exited with {proc.returncode} and no result")
    result = json.loads(lines[-1])
    if args.record:
        rec = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace,
               "fingerprint": tagged(lines, "fingerprint"),
               "digest": tagged(lines, "digest"),
               "host": tagged(lines, "host"), "result": result}
        with open(args.record, "a") as f:
            f.write(json.dumps(rec) + "\n")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
