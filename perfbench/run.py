#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload serve-durable --seed 1 --seconds 20 --trace 0

The program is built from source with dune, then perfbench/main.exe runs
the workload.  Its report is passed through; the observer-effect lines of a
traced run become a table with PASS/FAIL against the bounds in
BENCHMARK.json.  The last line printed is one JSON object with the keys
correct, attempted, failed and metrics.  Any build failure, crash, or a
metric set that does not match BENCHMARK.json exits non-zero.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def source_digest():
    """sha256 over the program's sources, so a run names the code it measured
    even where the tree is not a git checkout."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "_build")
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", ".py")) or name in ("dune", "dune-project"):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def observer_table(observer, bounds):
    """Untraced vs traced, how much worse tracing made each metric (negative:
    better), and PASS when that is within the metric's own bound."""
    rows = ["| Metric | Untraced | Traced | Overhead | Bound | Status |",
            "|---|---|---|---|---|---|"]
    for row in observer["rows"]:
        name, base, traced = row["metric"], row["untraced"], row["traced"]
        spec = bounds[name]
        worse = (traced - base) / base
        if spec["better"] == "higher":
            worse = -worse
        status = "PASS" if worse <= spec["bound"] else "FAIL"
        rows.append(
            "| %s | %.2f | %.2f | %+.2f%% | %.0f%% | %s |"
            % (name, base, traced, 100 * worse, 100 * spec["bound"], status)
        )
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit("unknown workload %r" % args.workload)

    build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/main.exe"],
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("build failed")

    commit = git_commit() or source_digest()
    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--commit", commit],
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        print("\n".join(lines))
        sys.exit("benchmark exited with code %d" % run.returncode)

    result = json.loads(lines[-1])
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        sys.exit("metrics differ from BENCHMARK.json: missing %s, extra %s, unit %s"
                 % (missing, extra, units))

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for line in lines[:-1]:
        if line.startswith("observer: "):
            print("\n".join(observer_table(json.loads(line[len("observer: "):]), bounds)))
        else:
            print(line)
    print(lines[-1])


if __name__ == "__main__":
    main()
