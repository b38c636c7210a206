#!/usr/bin/env python3
"""Build and run the skydia serving benchmark.

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 15 --trace 0

Run from the root of a source tree. The first run configures and builds
perfbench/ (which builds the repository's libraries) into the build
directory: $CARGO_TARGET_DIR when set, else .bench_build. Each run then
measures one workload (see perfbench/README.md). The last stdout line is the
JSON result; the line before it stamps the seed and the measured source. A
copy of every result, with its stamp, is kept under <build>/results/ and the
traced run's Chrome trace under <build>/traces/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def source_stamp():
    """The git commit when the tree is a repository, else a digest of the
    sources the benchmark builds, so a result names the code it measured."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                    "--", "src", "perfbench", "CMakeLists.txt"],
                                   capture_output=True, text=True).stdout.strip()
            return "commit:" + got.stdout.strip() + ("+dirty" if dirty else "")
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("run.py: no skydia source tree at %s (CMakeLists.txt and "
                 "src/ are needed to build the benchmark)" % ROOT)
    # Build output goes to stderr: stdout carries only the benchmark's lines.
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", "4", "--target",
                    "skydia_perf"], stdout=sys.stderr, check=True)
    return os.path.join(out, "skydia_perf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["read_hot", "read_cold", "write_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small n and rates (the smoke test)")
    parser.add_argument("--corrupt-reply", action="store_true",
                        help="damage one sampled reply; the check must fail")
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except subprocess.CalledProcessError as e:
        sys.exit("run.py: build failed: %s" % e)

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    for sub in ("work", "results", "traces"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(out, "work")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(out, "traces", tag + ".json")]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_reply:
        cmd.append("--corrupt-reply")

    stamp = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "source": source_stamp()}
    # Pass lines through, holding back the last so the stamp precedes it.
    last = None
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        for line in proc.stdout:
            if last is not None:
                sys.stdout.write(last)
                sys.stdout.flush()
            last = line
    if proc.returncode != 0 or last is None:
        if last is not None:
            sys.stdout.write(last)
        sys.exit(proc.returncode or 1)
    try:
        result = json.loads(last)
    except ValueError:
        sys.stdout.write(last)
        sys.exit("run.py: the benchmark's last line is not a JSON result")
    print("# " + json.dumps(stamp))
    with open(os.path.join(out, "results", tag + ".json"), "w") as f:
        json.dump(dict(stamp, result=result), f)
        f.write("\n")
    sys.stdout.write(last)


if __name__ == "__main__":
    main()
