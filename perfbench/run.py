#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cart --seed 1 --seconds 15 --trace 0

Arguments pass through to the benchmark binary (see main.go). Everything
the build and the run leave behind stays under .bench_build: the Go
build cache, the binary, the nodes' scratch storage (removed after the
run), and the last report and span file of each workload under out/.
The last line of standard output is the result as one JSON object.
"""

import os
import shutil
import subprocess
import sys

# The benchmark must finish within 180 seconds; a hung run is killed
# before that, and then prints no result.
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(os.path.join(root, "peepul")):
        print("perfbench: run from the repository root (go.mod and peepul/ not found)", file=sys.stderr)
        return 1
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomod"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly",
        "GOWORK": "off",
    })
    for d in ("gocache", "gomod", "tmp", "out"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except OSError as err:
        print("perfbench: cannot run go: %s" % err, file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed:\n" + built.stdout, file=sys.stderr)
        return 1

    rev = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            if got.returncode == 0:
                rev = got.stdout.strip()
        except OSError:
            pass  # no git: the revision stays unknown

    work = os.path.join(build, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary] + sys.argv[1:] + ["--dir", work, "--out", os.path.join(build, "out"), "--rev", rev]
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
