"""Spawn, time and stop ``repro serve`` subprocesses."""

from __future__ import annotations

import http.client
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

#: how often the start-up probe retries ``/healthz`` (s)
HEALTH_RETRY_S = 0.002
#: a server that is not healthy after this long is a failed start (s)
START_TIMEOUT_S = 60.0
#: how long a drained shutdown may take before the process is killed (s)
STOP_TIMEOUT_S = 30.0


def dir_bytes(path: Path) -> int:
    """Apparent size of every regular file under ``path``."""
    total = 0
    for dirpath, _, filenames in os.walk(path):
        for name in filenames:
            try:
                total += os.lstat(os.path.join(dirpath, name)).st_size
            except FileNotFoundError:
                pass  # a writer's temp file renamed away mid-walk
    return total


class Server:
    """One ``repro serve`` process on a cache directory.

    The server runs with its default flags except ``--port 0`` (an
    ephemeral port, read back from its start-up line) and
    ``--cache-dir``.  :meth:`start` returns the set-up time: from the
    spawn until the first successful ``/healthz``.
    """

    def __init__(self, root: Path, cache_dir: Path, log_path: Path):
        self.root = root
        self.cache_dir = cache_dir
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None
        self._log = None

    def start(self) -> float:
        from repro.service import ServiceClient
        from repro.errors import ServiceError

        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # the start-up line names the ephemeral port; it must not sit in
        # a pipe buffer
        env["PYTHONUNBUFFERED"] = "1"
        self._log = open(self.log_path, "a", encoding="utf-8")
        t0 = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(self.cache_dir)],
            cwd=self.root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        line = self.process.stdout.readline()
        match = re.search(r"(http://[\w.\-]+:\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(
                f"repro serve did not report its address (got {line!r}); "
                f"see {self.log_path}"
            )
        self.url = match.group(1)
        client = ServiceClient(self.url, timeout=5.0)
        deadline = t0 + START_TIMEOUT_S
        while True:
            try:
                client.health()
                break
            except (ServiceError, OSError, http.client.HTTPException):
                # refused or dropped while the server is still binding
                if time.perf_counter() > deadline or self.process.poll() is not None:
                    self.stop()
                    raise RuntimeError(
                        f"repro serve never became healthy; see {self.log_path}"
                    )
                time.sleep(HEALTH_RETRY_S)
        return time.perf_counter() - t0

    def peak_rss_mb(self) -> float:
        """Peak resident memory (``VmHWM``) of the server process."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Drain and stop the server, killing it if it will not exit."""
        process = self.process
        if process is None:
            return
        if process.poll() is None and self.url is not None:
            from repro.service import ServiceClient
            from repro.errors import ServiceError

            try:
                ServiceClient(self.url, timeout=5.0).shutdown()
            except (ServiceError, OSError, http.client.HTTPException):
                pass  # already going down; the wait below decides
        try:
            process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        if process.stdout is not None:
            process.stdout.close()
        if self._log is not None:
            self._log.close()
        self.process = None
        self.url = None
