#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1] [--baseline RECORD_FILE]

Run from the repository root. Builds two binaries from source: the plain
one (default features, used for every end-to-end metric) and the traced
one (`--features telemetry`, used only by `--trace 1`). Both are built
on every call, so the first call builds everything and later calls only
check that the builds are fresh. Build output goes to `$CARGO_TARGET_DIR`
(default `perfbench/target`).

`--trace 0` prints the run record and then the end-to-end result line.
`--trace 1` first runs the plain binary for the same workload, seed and
length (its throughput is the base of `trace_overhead_ratio`), then the
traced binary, and prints the per-layer result line; the traced run's
spans are written to `<target>/perfbench-spans-<workload>-<seed>.tsv`.

`--baseline` names a file holding an earlier run's record line; the new
record is marked `"comparable": false` when its host fields differ.

The last line of standard output is always the JSON result; a failed
build or run prints no result and exits non-zero.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args(argv):
    args = {"--seed": str(DEFAULT_SEED), "--seconds": "10", "--trace": "0"}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace", "--baseline"):
            fail(f"unknown flag {flag}")
        value = next(it, None)
        if value is None:
            fail(f"{flag} needs a value")
        args[flag] = value
    if "--workload" not in args:
        fail("--workload is required")
    if args["--trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    return args


def build(target, features):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml"), "--target-dir", str(target)]
    if features:
        cmd += ["--features", features]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return target / "release" / "perfbench"


def revision():
    """The git commit when run in a clone, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # Only a clone rooted here: a checkout inside some other repository
        # must not report that repository's commit.
        if out.returncode == 0 and len(lines) == 2 and pathlib.Path(lines[0]) == ROOT:
            return "git:" + lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "shims", "programs", "perfbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file() and "target" not in p.relative_to(ROOT).parts)
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "tree:" + h.hexdigest()[:16]


def run(binary, args):
    try:
        out = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail(f"run failed with exit code {out.returncode}")
    return lines[:-1], json.loads(lines[-1])


def main():
    args = parse_args(sys.argv[1:])
    base = pathlib.Path(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", HERE / "target")))
    plain = build(base / "perfbench-plain", None)
    traced = build(base / "perfbench-traced", "telemetry")
    common = ["--workload", args["--workload"], "--seed", args["--seed"],
              "--seconds", args["--seconds"], "--commit", revision()]

    records, result = run(plain, common + ["--trace", "0"])
    if args["--trace"] == "1":
        throughput = result["metrics"]["throughput_per_s"]["value"]
        spans = base / f"perfbench-spans-{args['--workload']}-{args['--seed']}.tsv"
        plain_result = result
        records, result = run(traced, common + ["--trace", "1",
                                                "--untraced-throughput", str(throughput),
                                                "--spans-out", str(spans)])
        result["correct"] = result["correct"] and plain_result["correct"]
        result["attempted"] += plain_result["attempted"]
        result["failed"] += plain_result["failed"]

    for line in records:
        if "--baseline" in args and line.startswith('{"record"'):
            record = json.loads(line)["record"]
            baseline = json.loads(pathlib.Path(args["--baseline"]).read_text().strip().splitlines()[-1])
            baseline = baseline.get("record", baseline)
            record["comparable"] = record["host"] == baseline.get("host")
            if not record["comparable"]:
                print("perfbench: host differs from the baseline; not comparable", file=sys.stderr)
            line = json.dumps({"record": record})
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
