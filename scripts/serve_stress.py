#!/usr/bin/env python
"""Stress the serve daemon the way the chaos suite does, end to end.

Boots ``repro serve`` with a pinned fault plan (worker kills), throws a
concurrent mix of compile and experiment clients at it, and asserts the
daemon's contracts:

* every response is a 200 despite the injected worker kills,
* an identical concurrent burst coalesces to one pipeline run,
* a warm re-run of the whole mix is served from cache — zero new
  pipeline stages, zero new simulations — and answered at the daemon's
  door: no pool job, one ``serve.door.hits`` per request,
* no job runs into its deadline (a respawned worker never hangs),
* SIGTERM drains and the daemon exits 0.

Writes the final ``GET /stats`` body to ``--out-stats`` (CI uploads it
together with the run ledger).  Exits non-zero on any violation.

Usage:
    python scripts/serve_stress.py --out-stats /tmp/serve-stats.json \
        --ledger /tmp/serve-ledger.jsonl [--faults SPEC] [--seed N]
"""

import argparse
import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SPEC = json.loads((REPO / "examples" / "specs" / "relax3.json").read_text())

EXPERIMENTS = [
    {"code": "stencil5", "version": "ov", "sizes": {"T": 6, "L": 24}},
    {"code": "stencil5", "version": "natural", "sizes": {"T": 6, "L": 24}},
]


def request(port, method, path, body=None, timeout=180):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def fan_out(port, jobs):
    """POST every (path, body) concurrently; returns results in order."""
    results = [None] * len(jobs)

    def hit(i, path, body):
        try:
            results[i] = request(port, "POST", path, body)
        except Exception as exc:  # noqa: BLE001 - reported by the caller
            results[i] = exc

    threads = [
        threading.Thread(target=hit, args=(i, path, body))
        for i, (path, body) in enumerate(jobs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    for r in results:
        if isinstance(r, Exception):
            raise r
        if r is None:
            raise RuntimeError("a client thread never completed")
    return results


def require(condition, message):
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-stats", required=True)
    parser.add_argument("--ledger", default=None)
    parser.add_argument(
        "--faults", default="serve.worker:kill:times=2,match=compile"
    )
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    scratch = Path(tempfile.mkdtemp(prefix="serve-stress-"))
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_FAULTS"] = args.faults
    env["REPRO_FAULTS_SEED"] = str(args.seed)
    env["REPRO_FAULTS_DIR"] = str(scratch / "faults")
    if args.ledger:
        env["REPRO_LEDGER"] = args.ledger

    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--workers",
            str(args.workers),
            "--cache-dir",
            str(scratch / "cache.sqlite"),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    port = None
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        print(line, end="")
        if "repro-serve listening on http://" in line:
            port = int(line.rsplit(":", 1)[1])
            break
    require(port is not None, "daemon booted and announced its port")

    try:
        mix = [("/compile", {"spec": SPEC, "seed": i}) for i in range(4)]
        mix += [("/experiment", body) for body in EXPERIMENTS]

        cold = fan_out(port, mix)
        require(
            all(status == 200 for status, _ in cold),
            f"cold mixed fan-out of {len(mix)}: all 200 under "
            f"injected faults ({args.faults})",
        )

        burst_body = {"spec": SPEC, "seed": 999}
        burst = fan_out(port, [("/compile", burst_body)] * 5)
        require(all(status == 200 for status, _ in burst), "burst: all 200")
        leaders = [b for _, b in burst if not b["coalesced"]]
        hashes = {b["result"]["outputs_sha256"] for _, b in burst}
        require(
            len(leaders) <= 2 and len(hashes) == 1,
            f"identical burst of 5 coalesced ({len(burst) - len(leaders)} "
            "followers, one output hash)",
        )

        status, before = request(port, "GET", "/stats")
        require(status == 200, "GET /stats answers")
        rerun = mix + [("/compile", burst_body)]
        warm = fan_out(port, rerun)
        require(
            all(status == 200 for status, _ in warm), "warm re-run: all 200"
        )
        require(
            all(body["result"]["cached"] for _, body in warm),
            "warm re-run served entirely from cache "
            "(zero new stages, zero new simulations)",
        )

        status, stats = request(port, "GET", "/stats")
        require(status == 200, "GET /stats answers")
        require(
            stats["pool"]["completed"] == before["pool"]["completed"],
            "warm re-run reached no worker (pool.completed stayed at "
            f"{before['pool']['completed']}, now "
            f"{stats['pool']['completed']})",
        )
        hits = [
            body["counters"].get("serve.door.hits", 0)
            for body in (before, stats)
        ]
        require(
            hits[1] - hits[0] == len(rerun),
            f"the door answered all {len(rerun)} warm requests "
            f"(serve.door.hits {hits[0]} -> {hits[1]})",
        )
        require(
            stats["pool"]["timeouts"] == 0,
            "no job ran into its deadline (respawned workers never hang; "
            f"saw {stats['pool']['timeouts']} timeouts)",
        )
        require(
            stats["pool"]["restarts"] >= 1,
            f"injected kills forced worker restarts "
            f"(saw {stats['pool']['restarts']})",
        )
        require(
            stats["counters"].get("serve.coalesced", 0) >= 3,
            "the coalesced burst is visible in serve.coalesced",
        )
        Path(args.out_stats).write_text(json.dumps(stats, indent=2))
        print(f"wrote {args.out_stats}")
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                code = proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait(timeout=10)
        else:
            code = proc.returncode
        print(proc.stdout.read(), end="")

    require(code == 0, f"SIGTERM drain exited 0 (got {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
