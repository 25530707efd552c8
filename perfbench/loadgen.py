"""Load generator of ``service_mixed``: the client side of both phases.

Runs as its own process, so the client never competes with the
service's threads for one interpreter lock the way a real client never
does.  Talks to its caller in JSON lines: the first line on standard
input names the service (``host``, ``port``, ``spec``, ``traces_per_job``,
``chunk_size``); then each line is one command and gets one line back.

``{"burst": [request, ...]}``
    Submits the requests one after another as fast as the service
    answers and replies with the job documents; the caller times the
    drain itself.
``{"open": {"rate_per_s": r, "requests": [request, ...]}}``
    The open loop: sends every request at its due time from one thread
    over one connection at a time, on a schedule fixed by the rate and
    never adapted to how the service keeps up.  Replies per request with
    the job document fields the caller needs, the due time on the wall
    clock, how late the send was, and when the answer came, in seconds
    after the due time; then exits.

A request is ``{"tenant": ..., "seed": ..., "resubmitted": ...}``.  End
of input also ends the process.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.pipeline import spec_from_dict  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

#: Lead time between reading the open-loop command and the first due time.
START_DELAY_S = 0.05


class Generator:
    def __init__(self, target: dict) -> None:
        self.client = ServiceClient(target["host"], target["port"])
        self.spec = spec_from_dict(target["spec"])
        self.traces = target["traces_per_job"]
        self.chunk_size = target["chunk_size"]

    def submit(self, request: dict) -> dict:
        doc = self.client.submit(
            self.spec, self.traces, chunk_size=self.chunk_size,
            seed=request["seed"], tenant=request["tenant"],
        )
        return {
            "job_id": doc["job_id"],
            "tenant": doc["tenant"],
            "requested_seed": doc["requested_seed"],
            "cached": doc["cached"],
            "state": doc["state"],
            "resubmitted": request["resubmitted"],
        }

    def burst(self, requests: list) -> list:
        return [self.submit(request) for request in requests]

    def open_loop(self, rate_per_s: float, requests: list) -> list:
        anchor_perf, anchor_wall = time.perf_counter(), time.time()
        first_due = anchor_perf + START_DELAY_S
        sent = []
        for i, request in enumerate(requests):
            due = first_due + i / rate_per_s
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            send = time.perf_counter()
            doc = self.submit(request)
            doc.update(
                due_wall=anchor_wall + (due - anchor_perf),
                late=send - due,
                answered=time.perf_counter() - due,
            )
            sent.append(doc)
        return sent


def reply(value) -> None:
    sys.stdout.write(json.dumps(value) + "\n")
    sys.stdout.flush()


def main() -> int:
    generator = Generator(json.loads(sys.stdin.readline()))
    for line in sys.stdin:
        command = json.loads(line)
        if "burst" in command:
            reply(generator.burst(command["burst"]))
        else:
            reply(generator.open_loop(**command["open"]))
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
