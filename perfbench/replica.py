"""A freshly spawned ``python -m repro serve`` replica and its HTTP client.

Everything here goes through the replica's public routes: ``POST
/v1/check``, ``GET /metrics`` and ``GET /v1/trace/<id>``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
from typing import Any, Dict, List, Optional, Tuple

_READY_LINE = re.compile(r"on http://([0-9.]+):(\d+)")

#: Environment knobs that would change what the replica runs (worker
#: pools, persistent caches, a shared CAS); the benchmark fixes them.
_ENV_DROP = ("REPRO_WORKERS", "REPRO_CACHE_DIR", "REPRO_CAS_ADDR",
             "REPRO_SERVE_TRACE", "REPRO_SERVE_PORT", "REPRO_SERVE_HOST",
             "REPRO_SERVE_MAX_BATCH", "REPRO_SERVE_MAX_WAIT_MS",
             "REPRO_SERVE_MAX_QUEUE", "REPRO_OBS_LOG",
             "REPRO_COMPILE_CACHE_SIZE")

REQUEST_TIMEOUT_S = 120.0
_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


class ReplicaError(RuntimeError):
    pass


class Replica:
    """One serve subprocess on an ephemeral port, serial engine."""

    def __init__(self, artifact: str, src_dir: str, log_path: str,
                 trace: bool):
        self.artifact = artifact
        self.src_dir = src_dir
        self.log_path = log_path
        self.trace = trace
        self.port: Optional[int] = None
        self.peak_rss_mb = 0.0
        self._proc: Optional[subprocess.Popen] = None
        self._reader: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._log = None

    def start(self) -> None:
        env = {k: v for k, v in os.environ.items() if k not in _ENV_DROP}
        env["PYTHONPATH"] = self.src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        cmd = [sys.executable, "-m", "repro", "serve", self.artifact,
               "--host", "127.0.0.1", "--port", "0", "--workers", "0"]
        # Tracing on keeps every request's spans for /v1/trace/<id>; the
        # ring must outlast a whole check phase.
        cmd += ["--trace-ring", "16384"] if self.trace else ["--no-trace"]
        self._log = open(self.log_path, "w", encoding="utf-8")
        self._proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                      stderr=self._log, text=True)
        self._reader = threading.Thread(target=self._read_stdout,
                                        name="replica-stdout", daemon=True)
        self._reader.start()

    def _read_stdout(self) -> None:
        for line in self._proc.stdout:
            match = _READY_LINE.search(line)
            if match and self.port is None:
                self.port = int(match.group(2))
                self._ready.set()
        self._ready.set()              # EOF: the replica exited

    def wait_listening(self, timeout: float = 120.0) -> None:
        if not self._ready.wait(timeout) or self.port is None:
            raise ReplicaError(
                f"replica did not start listening (see {self.log_path})")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)

    def get_json(self, path: str) -> Dict[str, Any]:
        conn = self.connect()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
            if resp.status != 200:
                raise ReplicaError(f"GET {path}: HTTP {resp.status}")
            return json.loads(body)
        finally:
            conn.close()

    def cpu_s(self) -> float:
        """CPU seconds the replica has used so far, all its threads
        included (Linux ``/proc``, in clock ticks; 0 elsewhere)."""
        try:
            with open(f"/proc/{self._proc.pid}/stat", encoding="utf-8") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except OSError:
            return 0.0
        # utime and stime are fields 14 and 15; the split starts at 3.
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def stop(self) -> None:
        """Record the replica's peak RSS, then SIGINT it and wait."""
        proc = self._proc
        if proc is None:
            return
        if proc.poll() is None:
            self.peak_rss_mb = _peak_rss_mb(proc.pid)
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
        if self._reader is not None:
            self._reader.join(timeout=30)
        if proc.stdout is not None:
            proc.stdout.close()
        if self._log is not None:
            self._log.close()
        self._proc = None


def _peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``; Linux only, 0
    elsewhere)."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def post_check(conn: http.client.HTTPConnection, name: str, source: str,
               ) -> Tuple[int, Optional[str], str]:
    """One single-source ``POST /v1/check``: (status, label, trace id)."""
    body = json.dumps({"name": name, "source": source}).encode("utf-8")
    conn.request("POST", "/v1/check", body=body,
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    payload = resp.read()
    trace_id = resp.getheader("X-Repro-Trace", "")
    label = None
    if resp.status == 200:
        results: List[Dict[str, Any]] = json.loads(payload)["results"]
        label = results[0].get("label")
    return resp.status, label, trace_id


def metric_series(metrics: Dict[str, Any], family: str) -> Dict[str, Any]:
    """The unlabelled series of one telemetry family in ``GET /metrics``
    (zeros when the family has not been observed yet)."""
    fam = metrics.get("telemetry", {}).get(family)
    if not fam or not fam["series"]:
        return {"count": 0, "sum": 0.0, "p50": 0.0, "value": 0.0}
    return fam["series"][0]
