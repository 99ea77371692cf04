#!/usr/bin/env python3
"""Run one workload of the repository's benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--record FILE]

Builds perfbench/workloads.exe from source (dune, release profile), runs
the workload in a child process and prints its result as the last line of
stdout: one JSON object with "correct", "attempted", "failed" and
"metrics". With --trace 0 the metrics are BENCHMARK.json's end_to_end
list, with --trace 1 its per_layer list; a result carrying any other set
is refused. --record appends {"workload", "seed", "seconds", "trace",
"result"} as one JSON line to FILE, for perfbench/compare.py.

Without --workload, runs every workload in turn and prints a table.
Exits non-zero, printing no result, when the build, the run or the
result check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "workloads.exe")
# Compilers and the runtime put their temporary files here, inside the
# checkout.
TMP = os.path.join(ROOT, "perfbench", "out", "tmp")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    # The dune cache lives outside the checkout; keep every build file in
    # _build.
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=TMP)
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release",
           "perfbench/workloads.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed with exit code %d" % done.returncode)


def run_child(args):
    """Run workloads.exe, waiting for it to end; returns its stdout."""
    # An 8 MiB minor heap for every domain (only OCAMLRUNPARAM reaches the
    # pool's domains; Gc.set in the program changes the main domain's
    # alone). Every minor collection stops all domains: at the default
    # 2 MiB the stops come 4 times as often, and whether a major cycle
    # ends inside a run flips peak memory between two values.
    env = dict(os.environ, OCAMLRUNPARAM="s=1M", TMPDIR=TMP)
    child = subprocess.Popen([EXE] + args, cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("%s did not finish within %d s" % (" ".join(args), RUN_TIMEOUT_S), 3)
    except BaseException:
        child.kill()
        child.wait()
        raise
    if child.returncode != 0:
        fail("workloads.exe exited with code %d" % child.returncode, 3)
    return out


def checked_result(out, expected):
    """The last stdout line as a result carrying exactly [expected]."""
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("no result printed", 4)
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        fail("result is not JSON: %s" % e, 4)
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys", 4)
    metrics = result["metrics"]
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(got.items()) ^ set(expected.items())), 4)
    for name, m in metrics.items():
        if not isinstance(m.get("value"), (int, float)) or isinstance(m["value"], bool):
            fail("metric %s has no numeric value" % name, 4)
    return result, lines[-1]


def run_workload(spec, name, seed, seconds, trace, record):
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[key]}
    out = run_child(["--workload", name, "--seed", str(seed), "--seconds",
                     str(seconds), "--trace", "1" if trace else "0"])
    result, line = checked_result(out, expected)
    if record:
        with open(record, "a") as f:
            f.write(json.dumps({"workload": name, "seed": seed, "seconds": seconds,
                                "trace": int(trace), "result": result}) + "\n")
    return result, line


def main():
    # A terminated run still kills and waits for its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", metavar="FILE")
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    os.makedirs(TMP, exist_ok=True)
    build()
    if a.workload:
        _, line = run_workload(spec, a.workload, a.seed, a.seconds, a.trace, a.record)
        print(line)
        return
    rows = []
    for name in names:
        result, _ = run_workload(spec, name, a.seed, a.seconds, a.trace, a.record)
        rows.append((name, result))
    metric_names = [m["name"] for m in spec["per_layer" if a.trace else "end_to_end"]]
    print("%-36s" % "metric" + "".join("%16s" % n for n, _ in rows))
    for m in metric_names:
        unit = rows[0][1]["metrics"][m]["unit"]
        print("%-36s" % ("%s [%s]" % (m, unit)) +
              "".join("%16.6g" % r["metrics"][m]["value"] for _, r in rows))
    print("%-36s" % "correct" + "".join("%16s" % r["correct"] for _, r in rows))
    print("%-36s" % "attempted / failed" +
          "".join("%16s" % ("%d / %d" % (r["attempted"], r["failed"])) for _, r in rows))


if __name__ == "__main__":
    main()
