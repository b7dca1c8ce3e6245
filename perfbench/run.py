#!/usr/bin/env python3
"""Builds the benchmark and the release `rfsim-server` from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload tx_chain --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads: tx_chain, ber_waterfall, service_jobs, or all three. The last
line of standard output is the result object; build output goes to
standard error. Build products, checkpoints and trace files stay under
$CARGO_TARGET_DIR (default: .bench_build in the repository root).
"""

import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def fail(msg: str, code: int = 2) -> "None":
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def option(args: list, flag: str) -> str:
    if flag not in args or args.index(flag) + 1 >= len(args):
        fail(f"missing {flag}")
    return args[args.index(flag) + 1]


def build(root: Path, env: dict, extra: list) -> None:
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main() -> None:
    args = sys.argv[1:]
    workload = option(args, "--workload")
    seed = option(args, "--seed")
    trace = option(args, "--trace")
    option(args, "--seconds")

    bench = Path(__file__).resolve().parent
    root = bench.parent
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        fail(f"{root} holds no repository to build")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    build(root, env, ["--manifest-path", str(bench / "Cargo.toml")])
    build(root, env, ["--bin", "rfsim-server"])

    work = target / "perfbench-work" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [
        str(target / "release" / "ofdm-perfbench"),
        *args,
        "--work-dir", str(work),
        "--server-bin", str(target / "release" / "rfsim-server"),
    ]
    # Own process group, so a timeout also stops the server it spawned.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
