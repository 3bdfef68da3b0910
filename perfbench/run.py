#!/usr/bin/env python3
"""Build and run the replay benchmark (rationale in perfbench/WORKLOADS.md).

    python3 perfbench/run.py --workload push-steady --seed 1 --seconds 20 --trace 0

Run it from the root of the repository. The benchmark is its own Go module
(perfbench/go.mod) that uses the repository's packages through a local
replace, so it builds from the sources in this checkout. The Go build
cache, the binary and the traced spans all live under .bench_build/, and
the build runs offline.
"""

import argparse
import hashlib
import os
import subprocess
import sys

# A run measures for --seconds; set-up, the end-of-run oracle and the
# round in progress when the budget ends come on top. Past this the run
# is killed and fails.
RUN_TIMEOUT_S = 170


def source_revision(root):
    """The git revision when the checkout has one, else a digest of the
    Go sources, so every result names the code it measured."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, check=True)
            return "git:" + rev.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top, dirs, files in os.walk(root):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        for name in sorted(files):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(top, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal"))):
        sys.exit("perfbench: run from the repository root "
                 "(no go.mod and internal/ here to build against)")

    out = os.path.join(root, ".bench_build")
    for sub in ("gocache", "gopath", "tmp", "config", "spans"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOSUMDB="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--commit", source_revision(root),
           "--spans", os.path.join(out, "spans", args.workload + ".jsonl")]
    try:
        # run() kills the child on timeout and waits for it to end.
        res = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
