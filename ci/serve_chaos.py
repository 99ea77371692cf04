#!/usr/bin/env python3
"""Chaos client for the bindlock serve socket daemon.

Hammers a daemon (expected to be running with a small --store-cap and
a --max-inflight cap) with concurrent sessions mixing valid, malformed
and oversized NDJSON requests, plus one client that hangs up
mid-request and one that hangs up before reading its answer. The
contract under test:

- every session is answered on its first connection: every non-blank
  request line gets exactly one rb-result/1 line back, in request
  order, whatever the request's quality;
- a client that hangs up before reading its answer kills only its own
  handler: a fresh connection is answered;
- an oversized line answers one invalid-request error and does not
  poison the lines after it;
- a client dying mid-request costs nobody else anything.

Exits non-zero (assertion or SystemExit) on any violation.
"""

import json
import socket
import sys
import threading

PATH = sys.argv[1]


def session(lines):
    """One connection: send all lines, half-close, read to EOF, and
    check that every line was answered with one rb-result/1 line."""
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        s.connect(PATH)
        s.sendall("".join(l + "\n" for l in lines).encode())
        s.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
    finally:
        s.close()
    got = [l for l in data.decode().splitlines() if l]
    assert len(got) == len(lines), f"{len(got)} answers to {len(lines)} lines"
    for line in got:
        r = json.loads(line)
        assert r.get("schema") == "rb-result/1", f"not an rb-result/1: {line}"
    return got


VALID = [
    '{"schema":"rb-job/1","id":0,"op":"list"}',
    '{"schema":"rb-job/1","id":1,"op":"show","benchmark":"dct"}',
    '{"schema":"rb-job/1","id":2,"op":"bind","benchmark":"dct"}',
    '{"schema":"rb-job/1","id":3,"op":"export-cnf","scheme":"pf","strength":2}',
    '{"schema":"rb-job/1","id":4,"op":"list","deadline_ms":60000}',
]
MALFORMED = [
    "not json at all",
    '{"schema":"rb-job/2","id":5,"op":"list"}',
    '{"schema":"rb-job/1","id":6,"op":"show","benchmark":"nope"}',
    '{"schema":"rb-job/1","id":7,"op":"list","deadline_ms":-1}',
]


def mixed_client(i, failures):
    try:
        # rotate the mix per client so sessions are not identical
        lines = VALID[i % len(VALID) :] + MALFORMED + VALID[: i % len(VALID)]
        got = session(lines)
        oks = sum(1 for l in got if '"ok"' in l)
        errs = sum(1 for l in got if '"error"' in l)
        assert oks + errs == len(lines), f"client {i}: {oks} ok + {errs} err"
        assert errs >= len(MALFORMED), f"client {i}: malformed lines not rejected"
    except BaseException as e:  # noqa: BLE001 - report into the main thread
        failures.append(f"client {i}: {e!r}")


def main():
    # One client hangs up mid-request before anyone else starts.
    k = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    k.connect(PATH)
    k.sendall(b'{"schema":"rb-job/1","id":99,"op":"bi')
    k.close()

    failures = []
    threads = [
        threading.Thread(target=mixed_client, args=(i, failures)) for i in range(8)
    ]
    for t in threads:
        t.start()

    # Meanwhile: an oversized line (beyond the 16 MiB cap) answers one
    # invalid-request error and the next line still runs.
    big = (
        '{"schema":"rb-job/1","id":9,"op":"list","pad":"'
        + "x" * (17 * 1024 * 1024)
        + '"}'
    )
    got = session([big, '{"schema":"rb-job/1","id":10,"op":"list"}'])
    assert "request line exceeds" in got[0], f"oversized answer: {got[0]}"
    assert '"ok"' in got[1], f"line after oversized did not run: {got[1]}"

    for t in threads:
        t.join()
    if failures:
        raise SystemExit("\n".join(failures))

    # A client sends a whole request and hangs up before reading the
    # answer: its handler's write fails, and only that handler dies.
    q = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    q.connect(PATH)
    q.sendall(b'{"schema":"rb-job/1","id":11,"op":"bind","benchmark":"dct"}\n')
    q.close()
    got = session(['{"schema":"rb-job/1","id":12,"op":"list"}'])
    assert '"ok"' in got[0], f"fresh connection after a hang-up: {got[0]}"
    print("serve chaos: all sessions answered line-for-line")


if __name__ == "__main__":
    main()
