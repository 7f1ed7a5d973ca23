#!/usr/bin/env python
"""CI smoke test for the detection-as-a-service front end.

Boots ``repro-das serve`` as a subprocess on an ephemeral port, runs
three concurrent synthetic clients against it — one of them injecting
a corrupt (all-NaN) frame — and asserts the serving contract:

* every session receives exactly its own frames, in order;
* ``frames_failed == 1`` for the faulty session and 0 for the others
  (per-frame fault isolation);
* ``/metrics`` is scrapeable Prometheus text exposition with coherent
  ``serve.*`` counters;
* SIGINT produces a clean drain and exit code 0.

The whole contract is exercised three times: once with the default
one-task-per-frame, one-request-per-connection configuration on worker
threads; once with ``--max-batch 4 --batch-window-ms 5 --keep-alive``
— where the metrics must additionally prove that at least one
multi-frame batch was coalesced and that connections were reused
(fewer connections than requests); and once with ``--backend process``,
the shared-memory worker processes.  Batching, keep-alive and the
backend are transport choices; everything the first scenario asserts
must hold identically in the others.

Run from the repo root: ``PYTHONPATH=src python scripts/serve_smoke.py``
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from repro.serve.client import ServeClient  # noqa: E402

FRAMES_PER_CLIENT = 6
FAULTY_CLIENT = 1
CORRUPT_INDEX = 3
STARTUP_TIMEOUT_S = 180.0

SCENARIOS = (
    ("default", []),
    ("batched+keep-alive",
     ["--max-batch", "4", "--batch-window-ms", "5", "--keep-alive"]),
    ("process", ["--backend", "process"]),
)


def start_server(extra_args: list[str]) -> tuple[
    subprocess.Popen, int, list[str]
]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", "0", "--workers", "2", "--scales", "1.0",
         "--max-pending", "16", *extra_args],
        cwd=REPO, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    stderr_lines: list[str] = []
    port_holder: list[int] = []
    ready = threading.Event()

    def pump() -> None:
        assert process.stderr is not None
        for line in process.stderr:
            stderr_lines.append(line.rstrip("\n"))
            match = re.search(r"serving on http://[^:]+:(\d+)", line)
            if match:
                port_holder.append(int(match.group(1)))
                ready.set()
        ready.set()  # EOF: unblock the waiter even on startup failure

    thread = threading.Thread(target=pump, daemon=True)
    thread.start()
    if not ready.wait(STARTUP_TIMEOUT_S) or not port_holder:
        process.kill()
        raise SystemExit(
            "server never announced its port; stderr was:\n"
            + "\n".join(stderr_lines)
        )
    return process, port_holder[0], stderr_lines


def run_client(port: int, client_index: int,
               outcomes: dict[int, list[dict]]) -> None:
    client = ServeClient(port=port)
    try:
        session = client.open_session()
        rng = np.random.default_rng(client_index)
        for i in range(FRAMES_PER_CLIENT):
            if client_index == FAULTY_CLIENT and i == CORRUPT_INDEX:
                frame = np.full((160, 96), np.nan)
            else:
                frame = rng.random((160, 96))
            ticket = client.submit_frame(session, frame)
            assert ticket["accepted"], f"client {client_index}: {ticket}"
        results = client.collect(session, FRAMES_PER_CLIENT)
        report = client.close_session(session)
        outcomes[client_index] = [results, report]
    finally:
        client.close()


def run_scenario(name: str, extra_args: list[str]) -> None:
    print(f"--- scenario: {name} "
          f"({' '.join(extra_args) or 'default flags'}) ---")
    process, port, stderr_lines = start_server(extra_args)
    batched = "--max-batch" in extra_args
    keep_alive = "--keep-alive" in extra_args
    try:
        client = ServeClient(port=port)
        assert client.health(), "/healthz not OK"
        assert client.ready(), "/readyz not ready"

        outcomes: dict[int, list] = {}
        threads = [
            threading.Thread(target=run_client,
                             args=(port, i, outcomes))
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert len(outcomes) == 3, f"only {sorted(outcomes)} finished"

        for client_index, (results, report) in sorted(outcomes.items()):
            seqs = [r["index"] for r in results]
            assert seqs == list(range(FRAMES_PER_CLIENT)), (
                f"client {client_index}: out-of-order results {seqs}"
            )
            failed = [r for r in results if r["status"] == "failed"]
            expected_failed = (
                1 if client_index == FAULTY_CLIENT else 0
            )
            assert len(failed) == expected_failed, (
                f"client {client_index}: {len(failed)} failed frames, "
                f"expected {expected_failed}: {failed}"
            )
            if failed:
                assert failed[0]["index"] == CORRUPT_INDEX, failed
            assert report["failed"] == expected_failed, report
            assert report["ok"] == (
                FRAMES_PER_CLIENT - expected_failed
            ), report
            print(f"client {client_index}: {report['ok']} ok, "
                  f"{report['failed']} failed, in order — OK")

        metrics = client.metrics()  # raises if not scrapeable
        samples = metrics["samples"]
        submitted = samples[("repro_serve_frames_submitted", ())]
        failed_total = samples[("repro_serve_frames_failed", ())]
        assert submitted == 3 * FRAMES_PER_CLIENT, submitted
        assert failed_total == 1, failed_total
        assert metrics["types"]["repro_serve_latency_ms"] == "summary"
        assert ("repro_serve_latency_ms_bucket", ()) not in samples
        print(f"/metrics scrapeable: {len(samples)} samples, "
              f"submitted={submitted:g} failed={failed_total:g} — OK")

        if batched:
            multi = samples.get(
                ("repro_serve_batch_multi_frame", ()), 0
            )
            assert multi >= 1, (
                "three concurrent clients never coalesced a "
                "multi-frame batch"
            )
            print(f"micro-batching: {multi:g} multi-frame "
                  f"batch(es) — OK")
        if keep_alive:
            connections = samples[("repro_serve_http_connections", ())]
            requests = samples[("repro_serve_http_requests", ())]
            assert connections < requests, (
                f"keep-alive reused nothing: {connections:g} "
                f"connections for {requests:g} requests"
            )
            print(f"keep-alive: {connections:g} connections served "
                  f"{requests:g} requests — OK")
        client.close()
    except BaseException:
        process.kill()
        process.wait()
        print("server stderr:\n" + "\n".join(stderr_lines),
              file=sys.stderr)
        raise

    process.send_signal(signal.SIGINT)
    returncode = process.wait(timeout=60)
    time.sleep(0.2)  # let the stderr pump drain
    drained = [line for line in stderr_lines
               if line.startswith("drained")]
    assert returncode == 0, (
        f"server exited {returncode}; stderr:\n"
        + "\n".join(stderr_lines)
    )
    assert drained and "clean" in drained[0], stderr_lines
    print(f"clean drain on SIGINT ({drained[0]!r}) — OK")


def main() -> int:
    for name, extra_args in SCENARIOS:
        run_scenario(name, extra_args)
    print("serve smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
