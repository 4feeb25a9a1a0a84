#!/usr/bin/env python3
"""Builds the grid benchmark from source and runs one workload.

    python3 gridbench/run.py --workload <fleet|history|federated> \
        --seed <n> --seconds <n> --trace <0|1>

Run from the root of a checkout. The release build goes to
$CARGO_TARGET_DIR (default `.bench_build` in the checkout); cargo's
output goes to standard error, so the last line of standard output is
the benchmark's JSON result. A traced run also writes its span log to
`gridbench/out/spans-<workload>-<seed>.json` (Chrome-trace JSON).
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def flag(args, name):
    """Value following `name` in `args`, or None."""
    for i, arg in enumerate(args[:-1]):
        if arg == name:
            return args[i + 1]
    return None


def run(cmd, **kwargs):
    """Runs `cmd` to completion; a SIGTERM to this script stops it too."""
    child = subprocess.Popen(cmd, **kwargs)
    stopped = []

    # The handler only passes the signal on: it runs inside `child.wait()`,
    # which holds a lock that a second `wait()` here would deadlock on.
    def stop(signum, _frame):
        stopped.append(signum)
        child.terminate()

    previous = signal.signal(signal.SIGTERM, stop)
    try:
        code = child.wait()
    except BaseException:
        child.kill()
        child.wait()
        raise
    finally:
        signal.signal(signal.SIGTERM, previous)
    if stopped:
        sys.exit(128 + stopped[0])
    return code


def main():
    args = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(os.getcwd(), target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if run(build, env=env, stdout=sys.stderr) != 0:
        print("gridbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "gridbench")
    if flag(args, "--trace") == "1":
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        name = f"spans-{flag(args, '--workload')}-{flag(args, '--seed')}.json"
        args += ["--spans", os.path.join(out, name)]
    return run([binary] + args)


if __name__ == "__main__":
    sys.exit(main())
