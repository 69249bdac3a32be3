#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the simulator and the perfbench
program from source into .bench_build/ on first use (CMake, the
repository's default RelWithDebInfo build type), runs one workload,
prints every metric by name with its unit plus the host block, and
prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set. Exits non-zero, without a result line,
when the build or the run fails.

Extra options: --scale X (input-size scale, default 1), --pins FILE
(pinned digests, default perfbench/pins.json), --write-pins FILE
(record this run's op digests as pins), --fail-op KEY (make the op
named KEY throw, to test failure accounting).
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("paper-sweep", "llc-replay", "sliced-replay", "fault-tier")
# Paper headline values (EXPERIMENTS.md, base config: 14-bit map, 1/4
# data array) printed beside the simulated paper-sweep figures.
PAPER = {
    "norm_runtime": "; paper 1.023",
    "offchip_norm": "; paper 1.034",
    "app_error_pct": "; paper: nearly 10% or lower, exc. ferret/swaptions",
}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then let the build tool bring the binary up to
    date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/) not found next to perfbench/")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            die("build failed: " + " ".join(cmd))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision():
    """HEAD of the checkout, with "-dirty" when tracked files differ from
    it; "none" outside a git repository."""
    def git(*args):
        try:
            return subprocess.run(["git", "-C", ROOT] + list(args),
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
        except OSError:
            return None
    head = git("rev-parse", "HEAD")
    if head is None or head.returncode != 0:
        return "none"
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return head.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--pins", default=os.path.join(HERE, "pins.json"))
    ap.add_argument("--write-pins", default="")
    ap.add_argument("--fail-op", default="")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    out = os.path.join(BUILD, "result-%s-%d-%d-%d.json" %
                       (args.workload, args.seed, args.trace, os.getpid()))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale), "--out", out]
    if args.pins and os.path.isfile(args.pins):
        cmd += ["--pins", args.pins]
    if args.fail_op:
        cmd += ["--fail-op", args.fail_op]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    # The simulator reads DOPP_* knobs (slices, reference engines, stats
    # dumps) from the environment; the benchmark fixes all of them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DOPP_")}
    r = subprocess.run(cmd, env=env)
    if r.returncode != 0:
        die("perfbench exited with %d" % r.returncode)
    with open(out) as f:
        res = json.load(f)
    os.remove(out)

    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            die("perfbench did not report %s in %s" % (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    host = dict(res["host"])
    host.update(nproc=os.cpu_count(), cpu_model=cpu_model(),
                revision=git_revision(), seed=args.seed,
                scale=args.scale, seconds=args.seconds)
    print("workload %s  seed %d  trace %d" %
          (args.workload, args.seed, args.trace))
    for name, v in sorted(metrics.items()):
        print("  %-36s %.6g %s" % (name, v["value"], v["unit"]))
    for name, v in sorted(res["report"].items()):
        print("  %-36s %.6g %s  (report%s)" % (name, v["value"], v["unit"],
                                              PAPER.get(name, "")))
    print("host " + json.dumps(host, sort_keys=True))

    if args.write_pins:
        pins = {"seed": args.seed, "scale": args.scale, "digests": {}}
        if os.path.isfile(args.write_pins):
            with open(args.write_pins) as f:
                old = json.load(f)
            if (old["seed"], old["scale"]) == (args.seed, args.scale):
                pins = old
        pins["digests"].update(res["digests"])
        with open(args.write_pins, "w") as f:
            json.dump(pins, f, indent=1, sort_keys=True)
            f.write("\n")

    print(json.dumps({"correct": bool(res["correct"]),
                      "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
