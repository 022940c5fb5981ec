#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` (its own Cargo workspace, path dependencies on the
crates) in release mode into `$CARGO_TARGET_DIR` (default `.bench_build`),
runs it with the given arguments and relays its last stdout line: one JSON
object with `correct`, `attempted`, `failed` and `metrics`. The metric
names are checked against `BENCHMARK.json`. Spill segments and probe files
go to `.perfbench_tmp` in the checkout, removed afterwards. Exits non-zero,
without a result, if the build fails; exits 1 if a check fails.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# One run of a workload must end well within three minutes.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def expected_metrics(root, traced):
    """The metric names BENCHMARK.json promises for this kind of run."""
    path = root / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv):
    root = Path.cwd()
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        return fail("build failed")

    tmp = root / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    env["TMPDIR"] = str(tmp)
    try:
        bench = subprocess.Popen(
            [str(target / "release" / "perfbench"), *argv],
            env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, _ = bench.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(bench.pid, signal.SIGKILL)
            bench.wait()
            return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = out.strip().splitlines()
    if bench.returncode not in (0, 1) or not lines:
        return fail(f"run exited with {bench.returncode}")
    result = json.loads(lines[-1])
    wanted = expected_metrics(root, "--trace" in argv and argv[argv.index("--trace") + 1] == "1")
    if wanted is not None and set(result["metrics"]) != wanted:
        return fail(f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json")
    print(lines[-1])
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
