"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload composite-filter --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload once untraced and once with per-layer spans and prints every
per-layer metric.  The host (CPU model, cores, load, Python and numpy
versions, source revision) is printed before the metrics.  The last line
of standard output is one JSON object::

    {"correct": true, "attempted": 7, "failed": 0,
     "metrics": {"campaign_s": {"value": 1.62, "unit": "s"}, ...}}

The exit status is 1 when any operation failed (raised, ended early, or
gave a wrong or uncertified result), after that line is printed.

The program is imported from ``src/`` next to this directory, so the
benchmark needs no installed package.  Scratch files (memmap stores,
service state directories, cached reference digests) live under
``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")


def _read_first(path: str, prefix: str) -> Optional[str]:
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r",
                  encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """sha256 over every file under ``src/``, for checkouts without git."""
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, SRC).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def host_info() -> Dict[str, object]:
    """What a number needs next to it to be compared with a later one."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "cpu_model": _read_first("/proc/cpuinfo", "model name") or
        platform.processor() or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
    }


def parse_args(workloads: List[str],
               argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one workload of the benchmark and print metrics.")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the measured loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics instead")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the benchmark's tests")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program sources at %s" % SRC, file=sys.stderr)
        return 2
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS, References, run_workload

    args = parse_args(list(WORKLOADS), argv)
    host = host_info()
    print("host " + json.dumps(host, sort_keys=True), flush=True)
    os.makedirs(STATE_DIR, exist_ok=True)
    references = References(os.path.join(STATE_DIR, "references"))
    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.size, STATE_DIR, references)

    print("workload %s seed %d trace %d size %s"
          % (args.workload, args.seed, args.trace, args.size))
    for note in report.notes:
        print("  " + note)
    for name, (value, unit) in report.metrics.items():
        print("  %-30s %14.6f %s" % (name, value, unit))
    print("  %-30s %14.6f ratio (%d of %d operations)"
          % ("failed_frac", report.failed / max(1, report.attempted),
             report.failed, report.attempted))
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    }, sort_keys=True))
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
