"""Benchmark entry point.

    python3 perfbench/run.py --workload grid-any --seed 1 --seconds 14 --trace 0

Run from the repository root. It builds the program and the benchmark from
source (see build.py), runs the workload in fresh JVMs with a fixed heap and
garbage collector, relays their reports, and prints as its last line one JSON
object: the end-to-end metrics of BENCHMARK.json with `--trace 0`, the
per-layer metrics with `--trace 1`. It exits non-zero when the build fails,
when a run fails or times out, or when an output is wrong.

On a shared 4-vCPU host one JVM in three or four ran the same inputs about
1.5 times slower for its whole life. So an untraced run splits `--seconds`
over two JVMs of the single-threaded work in turn. A metric that is a
geometric mean over cells takes each cell's best value over the two; any
other metric takes the better of the two values.
"""

import argparse
import json
import math
import os
import pathlib
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import build  # noqa: E402

# The JVMs of an untraced run: (part, share of --seconds). JVMs of the same
# part are repeats: each metric comes from the repeat that did best on it.
PARTS = {
    "grid-any": [("all", 0.5), ("all", 0.5)],
    "grid-next": [("all", 0.5), ("all", 0.5)],
    "spark-segmented": [("spark", 0.5), ("spark", 0.5)],
}
# The parts of a traced run, each started once with an equal share of
# --seconds. For a metric that two parts report, the first part's value is
# kept.
TRACED_PARTS = {"grid-any": ["all"], "grid-next": ["all"], "spark-segmented": ["spark", "driver"]}
# Wall-time budget of all JVMs of one run, after the build.
JVMS_TIMEOUT_S = 165

# Fixed heap and collector, pre-touched pages, and the module opens Spark
# needs on JDK 17.
JVM_FLAGS = ["-Xms3g", "-Xmx3g", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch", "-Xss16m",
             "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false"] + [
    f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
        "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
        "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def run_jvm(classpath, a, part, seconds, tag, deadline_s):
    """Runs one JVM; relays its report lines and returns its result object."""
    logs = build.BUILD / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    log_path = logs / f"{tag}.log"
    cmd = ["java"] + JVM_FLAGS + ["-cp", classpath, "repro.perfbench.Main",
                                  "--workload", a.workload, "--part", part, "--seed", str(a.seed),
                                  "--seconds", str(seconds), "--trace", str(a.trace),
                                  "--trace-out", str(build.BUILD / "trace" / f"{tag}.jsonl")]
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(build.BUILD / "spark-local"))
    print(f"# part {part}")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, text=True, env=env,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=deadline_s)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail(f"run exceeded {deadline_s:.0f} s; JVM log in {log_path}")
    lines = out.rstrip("\n").split("\n") if out.strip() else []
    if proc.returncode != 0 or not lines:
        sys.stderr.write(log_path.read_text()[-4000:])
        fail(f"JVM exited with code {proc.returncode}; log in {log_path}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def best_per_cell(per_cell, pick):
    """Geometric mean over cells of each cell's best value over the repeats.
    The repeats run the same cells in the same order; a cell left out (null)
    in one is left out in all."""
    best = [pick(vs) if None not in vs else None for vs in zip(*per_cell)]
    logs = [math.log(v) for v in best if v is not None and v > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(PARTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    spec_file = build.ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        fail("BENCHMARK.json not found; run from the repository root")
    spec = json.loads(spec_file.read_text())
    try:
        classpath = build.build()
    except build.BuildError as e:
        fail(str(e))

    parts = PARTS[a.workload]
    if a.trace:
        names = TRACED_PARTS[a.workload]
        parts = [(n, 1.0 / len(names)) for n in names]
    deadline = time.monotonic() + JVMS_TIMEOUT_S
    results = [(part, run_jvm(classpath, a, part, a.seconds * share,
                              f"{a.workload}-{part}-{k}-seed{a.seed}-trace{a.trace}",
                              max(1.0, deadline - time.monotonic())))
               for k, (part, share) in enumerate(parts)]

    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = None
        pick = max if m["better"] == "higher" else min
        for part in dict.fromkeys(p for p, _ in results):
            reps = [r for p, r in results if p == part and m["name"] in r["metrics"]]
            if not reps:
                continue
            got = pick((r["metrics"][m["name"]] for r in reps), key=lambda g: g["value"])
            per_cell = [r["cells"].get(m["name"]) for r in reps]
            if len(reps) > 1 and all(per_cell):
                got = {"value": best_per_cell(per_cell, pick), "unit": got["unit"]}
            break
        if got is None and not a.trace:
            fail(f"end-to-end metric {m['name']} missing from the run")
        if got is None:
            print(f"# {m['name']}: layer not exercised by {a.workload}, reported as 0")
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(f"# seed={a.seed} seconds={a.seconds}")
    for name, v in metrics.items():
        print(f"{name:<28} {v['value']:16.4f} {v['unit']}")
    result = {"correct": all(r["correct"] for _, r in results),
              "attempted": sum(r["attempted"] for _, r in results),
              "failed": sum(r["failed"] for _, r in results),
              "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
