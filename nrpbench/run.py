#!/usr/bin/env python3
"""Run one NRP benchmark workload and print its metrics.

    python3 nrpbench/run.py --workload lp-wiki --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run builds the program and the
benchmark from source with sbt (nrpbench/build.sbt depends on the root
build) and caches a copy of the compiled classes under nrpbench/target,
keyed by a hash of the sources; later runs start the JVM directly. The last line of standard
output is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics of BENCHMARK.json, or with --trace 1 the per-layer
ones). The full record (environment, samples, spans) is written to
nrpbench/results/.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

import benchstats

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
TARGET = HERE / "target"
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170
SPARK_MASTER = "local[1]"
# A fixed heap and a two-thread stop-the-world collector keep GC work the
# same from run to run and leave cores to the program's own threads.
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:ParallelGCThreads=2"]
SBT_OFFLINE_OPTS = ("-Dsbt.override.build.repos=true -Dsbt.repository.config="
                    + str(pathlib.Path.home() / ".sbt" / "repositories")
                    + " -Dsbt.offline=true -Xmx2g")
# Spark on JDK 17 needs these opened when started from a plain JVM.
OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
         "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
         "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
         "sun.util.calendar"]
SOURCES = ["build.sbt", "project/build.properties", "src/main", "jobs",
           "nrpbench/build.sbt", "nrpbench/project/build.properties", "nrpbench/src"]


def fail(msg):
    print(f"nrpbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_hash():
    h = hashlib.sha256()
    for rel in SOURCES:
        path = ROOT / rel
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        # the ceiling keeps git from reporting a repository that encloses the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def cpu_jiffies():
    """(steal, total) jiffies over all CPUs from /proc/stat, or None."""
    try:
        fields = [int(x) for x in pathlib.Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def run_bounded(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the group on timeout and wait."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} exceeded {timeout} s and was stopped")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def classpath(tag):
    """Build once per source hash; return the runtime classpath.

    sbt compiles into class directories that every build shares, so the
    cache keeps its own copy of them in target/build-<tag>/: a cached
    classpath then always runs the sources it was built from, whichever
    build ran last.
    """
    cached = TARGET / f"classpath-{tag}.txt"
    if cached.exists():
        return cached.read_text().strip()
    TARGET.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("SBT_OPTS", SBT_OFFLINE_OPTS)
    env.setdefault("COURSIER_MODE", "offline")
    log = TARGET / "build.log"
    with open(log, "w") as out:
        # sbt keeps its global state inside the checkout; its launcher and the
        # offline dependency cache are only read
        code = run_bounded(["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
                            f"-Dsbt.global.base={TARGET / 'sbt-global'}", "export Runtime/fullClasspath"],
                           BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=out, stderr=subprocess.STDOUT)
    lines = [ln.strip() for ln in log.read_text().splitlines() if ln.strip()]
    if code != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write("\n".join(lines[-30:]) + "\n")
        fail(f"build failed (exit {code}); see {log}")
    build = TARGET / f"build-{tag}"
    shutil.rmtree(build, ignore_errors=True)
    entries = []
    for i, entry in enumerate(lines[-1].split(os.pathsep)):
        path = pathlib.Path(entry)
        if path.is_dir() and path.resolve().is_relative_to(ROOT):
            copy = build / f"{i}-{path.name}"
            shutil.copytree(path, copy)
            entry = str(copy)
        entries.append(entry)
    cp = os.pathsep.join(entries)
    # written last, so an interrupted copy is redone by the next run
    partial = cached.with_suffix(".partial")
    partial.write_text(cp)
    partial.replace(cached)
    return cp


def metrics_block(values, declared):
    missing = [m["name"] for m in declared if m["name"] not in values]
    block = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
             for m in declared if m["name"] in values}
    return block, missing


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no program sources at {ROOT}: run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    tag = source_hash()
    cp = classpath(tag)

    results = HERE / "results"
    tmp = TARGET / "tmp"
    for d in (results, tmp):
        d.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed if args.seed is not None else 'default'}-trace{args.trace}"
    raw = tmp / f"{stem}.raw.json"
    raw.unlink(missing_ok=True)
    cmd = (["java"] + JVM_OPTS + [f"-Djava.io.tmpdir={tmp}", f"-Dspark.local.dir={tmp}",
            "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
            f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}"]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
           + ["-cp", cp, "nrpbench.Main", "--workload", args.workload,
              "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(raw)]
           + (["--seed", str(args.seed)] if args.seed is not None else []))
    # Jobs.session runs Spark on SPARK_MASTER; one task thread leaves the
    # other cores to the driver, JIT and GC, so a host that takes some CPU
    # away slows the run less.
    env = dict(os.environ, SPARK_MASTER=SPARK_MASTER)
    started = time.monotonic()
    jiffies0 = cpu_jiffies()
    code = run_bounded(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env)
    jiffies1 = cpu_jiffies()
    if code != 0 or not raw.exists():
        fail(f"benchmark JVM exited with {code}")
    record = json.loads(raw.read_text())
    record["env"].update(git_sha=git_sha(), source_hash=tag,
                         wall_s=round(time.monotonic() - started, 3))
    if jiffies0 and jiffies1 and jiffies1[1] > jiffies0[1]:
        # share of CPU time the host took from this machine during the run
        record["env"]["steal_frac"] = round((jiffies1[0] - jiffies0[0]) / (jiffies1[1] - jiffies0[1]), 4)

    attempted = record["attempted"]
    failed = len(record["failures"])
    if args.trace:
        try:
            values = benchstats.per_layer(record)
        except (KeyError, ValueError, statistics.StatisticsError) as e:
            print(f"per-layer metrics incomplete: {e!r}")
            values = {}
        block, missing = metrics_block(values, spec["per_layer"])
        extra = {}
    else:
        values, samples, extra = benchstats.end_to_end(record)
        block, missing = metrics_block(values, spec["end_to_end"])
        record["samples"] = samples
    record["metrics"] = {**values, **extra}
    correct = failed == 0 and not missing and attempted >= 1
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))

    env_line = " ".join(f"{k}={v}" for k, v in record["env"].items())
    print(f"# {args.workload} seed={record['seed']} trace={args.trace}: {env_line}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in sorted(record["metrics"].items()):
        unit = units.get(name, units.get(name.rsplit("_p", 1)[0], ""))
        n = record.get("samples", {}).get(name)
        print(f"{name} = {value:.6g} {unit}" + (f" ({n} samples)" if n else ""))
    print(f"failed_frac = {failed}/{attempted} = {benchstats.failed_frac(failed, attempted):.4g}")
    for f in record["failures"]:
        print(f"failure: {f}")
    for name in missing:
        print(f"missing metric: {name}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": block}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
