"""The SIGKILL victim of ``tests/test_chaos.py::TestSigkillRecovery``.

``python -m tests.chaos_victim JOURNAL`` opens a journaled
single-worker service, submits the chaos workload, prints ``READY``
with the job ids once the journal on disk shows the first job
mid-prove with the rest queued, then waits to be killed.  (The
in-memory state turns RUNNING before the ``running`` record is
appended; a kill in between would leave a journal that never saw the
job start.)
"""

import json
import sys
import time

from repro.config import ServiceConfig
from repro.service.journal import replay
from tests.chaos import CHAOS_QUERIES, build_session


def main(journal: str) -> int:
    session = build_session()
    service = session.serve(ServiceConfig(workers=1), journal_path=journal)
    job_ids = [
        service.submit(sql, rng_seed=seed) for sql, seed in CHAOS_QUERIES
    ]
    deadline = time.time() + 60
    while time.time() < deadline:
        folded = replay(journal).jobs
        states = [folded[j].state if j in folded else None for j in job_ids]
        if states[0] == "running" and all(s == "submitted" for s in states[1:]):
            break
        if any(service.status(j).state.finished for j in job_ids):
            break  # pragma: no cover - timing
        time.sleep(0.005)
    print("READY " + json.dumps({"jobs": job_ids}), flush=True)
    time.sleep(120)  # killed long before this returns
    return 1  # pragma: no cover - only reached if the parent forgot us


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
