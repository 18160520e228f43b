"""The benchmark of record: prove, verify and serve TPC-H, every second
attributed to a layer.

Three ways in, one code path underneath::

    # one run of one workload, as the driver calls it (BENCHMARK.json);
    # the last line of output is the result object
    python3 benchmarks/e2e/run.py --workload q1_k7 --seed 1 --seconds 20 --trace 0

    # the whole suite: every workload untraced (end-to-end metrics),
    # then traced (per-layer metrics, stage x kernel matrix); prints
    # every metric by name and writes results/latest.json
    python3 -m benchmarks.e2e.run [--seed N] [--repeat N] [--smoke] [--out FILE]

    # two results files side by side, one verdict per metric
    python3 -m benchmarks.e2e.run compare A.json B.json

Each workload runs in a child process (``child.py``) with ``REPRO_*``
scrubbed and BLAS pinned to one thread; see README.md for what the
workloads and metrics mean.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(HERE) not in sys.path:  # ``python -m benchmarks.e2e.run`` starts elsewhere
    sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from stats import iqr_frac, median, summary  # noqa: E402
from workloads import BY_NAME, RECORD  # noqa: E402

RESULTS = HERE / "results"
# The driver allows a run 180 s; leave room to report.
RUN_LIMIT_SECONDS = 170.0
SETUP_SAMPLES = 3  # the child's own set-up plus fresh-process repeats


class ChildFailed(RuntimeError):
    """The child ended without a result object."""


def child_env() -> dict[str, str]:
    """The parent's environment without any ``REPRO_*`` switch, one
    BLAS thread, a fixed hash seed, and the repo's sources importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def run_child(args: list[str], timeout: float) -> tuple[dict[str, Any], int]:
    """Start ``child.py``, wait for it, parse its last line."""
    command = [
        sys.executable, str(HERE / "child.py"), *args,
        "--spawned-at", repr(time.time()),
    ]
    try:
        done = subprocess.run(
            command, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise ChildFailed(f"child exceeded {timeout:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), done.returncode
    except (IndexError, json.JSONDecodeError) as exc:
        raise ChildFailed(
            f"child exited {done.returncode} without a result"
        ) from exc


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> dict[str, Any]:
    """One run of one workload in a fresh work directory.  Untraced
    runs repeat the set-up in fresh processes and report the median."""
    if not (ROOT / "src" / "repro").is_dir():
        raise ChildFailed(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    started = time.monotonic()
    work = HERE / ".work" / uuid.uuid4().hex
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        common.append("--smoke")
    try:
        args = common + ["--trace", str(int(trace)), "--work-dir", str(work / "main")]
        if trace:
            RESULTS.mkdir(exist_ok=True)
            args += ["--trace-file", str(RESULTS / f"trace-{name}.jsonl")]
        result, code = run_child(args, RUN_LIMIT_SECONDS)
        if not trace:
            setups = [result["metrics"]["setup_s"]["value"]]
            for i in range(1, SETUP_SAMPLES):
                left = RUN_LIMIT_SECONDS - (time.monotonic() - started)
                if left < 20.0:
                    break
                probe, _ = run_child(
                    common + ["--setup-only", "--work-dir", str(work / f"setup{i}")],
                    left,
                )
                setups.append(probe["setup_s"])
            result["metrics"]["setup_s"]["value"] = median(setups)
            result["samples"]["setup_s"] = summary(setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # unless another run is using it
        except OSError:
            pass
    result["exit_code"] = code
    result["wall_s"] = time.monotonic() - started
    return result


# -- the driver's entry ---------------------------------------------------------


def driver_run(args: argparse.Namespace) -> int:
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return result["exit_code"]


# -- the whole suite --------------------------------------------------------------


def provenance() -> dict[str, Any]:
    """Where and on what the numbers were taken."""
    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = ""
    return {
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        # Results files of this very benchmark do not make the tree dirty.
        "git_dirty": bool(git("status", "--porcelain", "--", ".", ":!benchmarks/e2e/results")),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
    }


def suite(args: argparse.Namespace) -> int:
    names = args.workloads.split(",") if args.workloads else [w.name for w in RECORD]
    seconds = 1.0 if args.smoke else args.seconds
    seeds = [args.seed + i for i in range(args.repeat)]
    report: dict[str, Any] = {
        "provenance": provenance(), "seeds": seeds, "seconds": seconds,
        "smoke": args.smoke, "workloads": {},
    }
    ok = True
    for name in names:
        runs = [
            run_workload(name, seed, seconds, trace=False, smoke=args.smoke)
            for seed in seeds
        ]
        traced = run_workload(name, seeds[0], seconds, trace=True, smoke=args.smoke)
        every = runs + [traced]
        attempted = sum(r["attempted"] for r in every)
        failed = sum(r["failed"] for r in every)
        ok = ok and all(r["correct"] for r in every)
        end_to_end = {}
        for metric, entry in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            end_to_end[metric] = {
                "value": median(values), "unit": entry["unit"], "runs": values,
                "run_iqr_frac": iqr_frac(values),
                # the first run's own samples (sample count, IQR / median)
                "samples": runs[0]["samples"].get(metric, {"n": 1, "iqr_frac": 0.0}),
            }
        report["workloads"][name] = {
            "why": BY_NAME[name].why,
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "matrix": traced["matrix"],
            "targets_missing": traced["targets_missing"],
            "ops_failed_frac": failed / attempted,
            "attempted": attempted,
            "failed": failed,
            "failures": [f for r in every for f in r["failures"]],
            "field_backend": traced["field_backend"],
            "host_speed_factor": [r["host_speed_factor"] for r in runs],
            "repetitions": {
                "untraced": runs[0]["repetitions"], "traced": traced["repetitions"],
            },
            "wall_s": {"untraced": [r["wall_s"] for r in runs], "traced": traced["wall_s"]},
        }
        print_workload(name, report["workloads"][name])
    report["provenance"]["loadavg_end"] = os.getloadavg()
    out = Path(args.out) if args.out else RESULTS / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {out}")
    return 0 if ok else 1


def print_workload(name: str, entry: dict[str, Any]) -> None:
    print(f"\n== {name}: {entry['why']}")
    print(f"   ops_failed_frac = {entry['ops_failed_frac']:g} "
          f"({entry['failed']} of {entry['attempted']})")
    for failure in entry["failures"]:
        print(f"   FAILED: {failure}")
    print("   end to end, tracing off: median over runs [run IQR/median]; "
          "first run's samples (n, IQR/median)")
    for metric, e in entry["end_to_end"].items():
        print(f"     {metric:28s} {e['value']:14.6g} {e['unit']:6s} "
              f"runs={len(e['runs']):<2d} [{e['run_iqr_frac']:.3f}]  "
              f"n={e['samples']['n']:<3d} iqr={e['samples']['iqr_frac']:.3f}")
    print("   per layer (one traced pass)")
    for metric, e in entry["per_layer"].items():
        print(f"     {metric:34s} {e['value']:14.6g} {e['unit']}")
    print("   stage x kernel matrix, seconds")
    columns = sorted({c for row in entry["matrix"].values() for c in row})
    print("     " + " " * 20 + "".join(f"{c:>18s}" for c in columns))
    for row, cells in entry["matrix"].items():
        print(f"     {row:20s}" + "".join(
            f"{cells.get(c, 0.0):18.4f}" for c in columns
        ))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="run this one workload once and print the result object")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=record_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="suite at k=6 with one job per client (~80 s)")
    parser.add_argument("--workloads", help="suite: comma-separated names")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite: untraced runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--out", help="suite: results file (default results/latest.json)")
    args = parser.parse_args(argv)
    try:
        return driver_run(args) if args.workload else suite(args)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


def record_seconds() -> float:
    """``run_seconds`` of the record, the suite's default."""
    try:
        return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 20.0


if __name__ == "__main__":
    sys.exit(main())
