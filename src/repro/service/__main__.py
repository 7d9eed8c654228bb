"""CLI for the campaign service: ``python -m repro.service``.

Loads one graph, submits a batch of jobs from a JSON file, serves them on
a worker pool with graceful SIGTERM/SIGINT drain, and writes one sorted
JSON report of every job's outcome.  A killed run can be restarted with
the same ``--state-dir`` and resumes its backlog from checkpoints (and
serves finished jobs from the persisted result cache).

Engine-family jobs run against one shared substrate per ``(α, β)``
(the default; disable with ``--no-batching`` to run every job cold).
Jobs dispatch in priority-then-FIFO order either way.  Batching never
changes result bytes or the exit-code contract, which is:

* ``0`` — every job reached a clean terminal state;
* ``2`` — a :class:`~repro.exceptions.ReproError` (bad arguments, bad
  jobs file, graph/state-dir mismatch) stopped the run;
* ``3`` — the run finished but at least one job was quarantined.

Jobs file format — a JSON list of job specs::

    [{"alpha": 2, "beta": 2, "b1": 3, "b2": 3,
      "method": "filver++", "priority": 1},
     {"alpha": 3, "beta": 2, "b1": 2, "b2": 2}]

Example::

    python -m repro.service --input graph.txt --jobs jobs.json \
        --workers 2 --state-dir /tmp/svc --json report.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.exceptions import QuarantinedJobError, ReproError, ServiceError
from repro.experiments.export import canonical_result_dict
from repro.service.jobs import JobSpec, JobState
from repro.service.server import CampaignService
from repro.__main__ import _add_graph_source, _load_graph


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve reinforcement jobs against one loaded graph")
    _add_graph_source(parser)
    parser.add_argument("--jobs", required=True, metavar="PATH",
                        help="JSON file: list of job specs (alpha, beta, "
                             "b1, b2, and optional method/t/seed/priority/"
                             "deadline/workers/shards/time_limit)")
    parser.add_argument("--workers", type=int, default=1,
                        help="service worker threads (0 = run jobs inline "
                             "on the main thread)")
    parser.add_argument("--memory-budget", type=int, default=None,
                        metavar="BYTES",
                        help="admission-control byte budget (default: "
                             "unlimited); over-budget throttles dispatch, "
                             "never kills running jobs")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="attempts per job beyond the first before "
                             "quarantine")
    parser.add_argument("--max-pending", type=int, default=64,
                        help="pending-queue admission limit")
    parser.add_argument("--state-dir", default=None, metavar="DIR",
                        help="directory for checkpoints, quarantine "
                             "records, and the persisted queue; reuse it "
                             "to resume a killed service")
    parser.add_argument("--supervise-interval", type=float, default=1.0,
                        help="seconds between supervision sweeps")
    parser.add_argument("--no-batching", action="store_true",
                        help="run every job cold instead of on a shared "
                             "per-(alpha,beta) context; results are "
                             "byte-identical either way")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the per-job report as JSON")
    return parser


def _load_specs(path: str) -> List[JobSpec]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            entries = json.load(handle)
    except OSError as error:
        raise ServiceError("cannot read jobs file %s: %s"
                           % (path, error)) from error
    except json.JSONDecodeError as error:
        raise ServiceError("jobs file %s is not valid JSON: %s"
                           % (path, error)) from error
    if not isinstance(entries, list):
        raise ServiceError("jobs file %s must hold a JSON list" % path)
    return [JobSpec.from_payload(entry) for entry in entries]


def _job_report(service: CampaignService) -> List[dict]:
    rows = []
    for job_id in service.job_ids():
        handle = service.handle(job_id)
        row: dict = {
            "job_id": job_id,
            "state": handle.state,
            "failures": [record.to_payload()
                         for record in handle.failures],
            "result": None,
        }
        if handle.state == JobState.COMPLETED:
            try:
                row["result"] = canonical_result_dict(handle.result(0))
            except (QuarantinedJobError, ServiceError, TimeoutError):
                row["result"] = None
        rows.append(row)
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; 0 = clean, 2 = ``ReproError``, 3 = quarantined job(s)."""
    args = _parser().parse_args(argv)
    try:
        specs = _load_specs(args.jobs)
        graph = _load_graph(args)
        # Leaving the block shuts the service down — also when a job is
        # refused — which restores the signal handlers installed here.
        with CampaignService(
                graph, workers=args.workers,
                budget_bytes=args.memory_budget,
                max_pending=args.max_pending,
                max_retries=args.max_retries,
                state_dir=args.state_dir,
                supervise_interval=(args.supervise_interval
                                    if args.workers else None),
                batching=not args.no_batching) as service:
            installed = service.install_signal_handlers()
            if installed:
                print("drain on SIGTERM/SIGINT: enabled")
            handles = [service.submit(spec) for spec in specs]
            print("submitted %d job(s); %d restored from state dir"
                  % (len(handles), len(service.job_ids()) - len(handles)))
            if args.workers == 0:
                while service.run_until_idle():
                    pass
            else:
                remaining = list(service.job_ids())
                while remaining and not service.draining:
                    remaining = [job_id for job_id in remaining
                                 if not service.handle(job_id).wait(0.1)]
            report = _job_report(service)
        states = {}
        for row in report:
            states[row["state"]] = states.get(row["state"], 0) + 1
        print("jobs:", json.dumps(states, sort_keys=True))
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print("wrote report to", args.json)
        if states.get(JobState.QUARANTINED):
            return 3
        return 0
    except ReproError as error:
        print("error:", error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
