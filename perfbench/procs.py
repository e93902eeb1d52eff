"""Process plumbing: environment, spawning, reaping, host readings."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"

#: Variables that would point the program at shared state or change
#: its kernel tier; children never inherit them.
SCRUBBED_ENV = (
    "REPRO_RESULT_STORE",
    "REPRO_WAREHOUSE",
    "REPRO_RESULT_STORE_MAX",
    "REPRO_NATIVE",
    "REPRO_PIPELINE",
)


def child_env() -> dict[str, str]:
    """The environment every program process runs with."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_NATIVE_CACHE"] = str(WORK / "native-cache")
    # A private bytecode cache, warmed before any timing (run.warm_caches),
    # so imports never depend on __pycache__ files other processes left.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    # The compiler and any tempfile user write here, inside the checkout.
    scratch = WORK / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(scratch)
    return env


def python_cmd(*args: str) -> list[str]:
    return [sys.executable, *args]


def bench_script(name: str, *args: str) -> list[str]:
    return python_cmd(str(BENCH / name), *args)


@dataclass
class Reaped:
    """How a child ended."""

    returncode: int
    peak_rss_mb: float


class Child:
    """A started program process with a hard deadline.

    The watchdog kills the process at the deadline, so nothing the
    benchmark waits on can hang it.
    """

    def __init__(
        self,
        cmd: list[str],
        deadline_s: float,
        stdout: Any = subprocess.DEVNULL,
        stderr_path: Path | None = None,
    ) -> None:
        self._stderr = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, stdout=stdout, stderr=self._stderr, stdin=subprocess.DEVNULL,
            env=child_env(), cwd=ROOT,
        )
        self.pid = self.proc.pid
        self._watchdog = threading.Timer(deadline_s, self.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        self.killed = False

    def kill(self) -> None:
        self.killed = True
        try:
            self.proc.kill()
        except ProcessLookupError:
            pass

    def interrupt(self) -> None:
        """Ask for a clean stop (``repro serve`` stops on SIGINT)."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)

    def reap(self) -> Reaped:
        """Wait for exit; the kernel's rusage gives the peak RSS."""
        if self.proc.stdout is not None:
            self.proc.stdout.read()
            self.proc.stdout.close()
        _, status, usage = os.wait4(self.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._watchdog.cancel()
        if self._stderr is not subprocess.DEVNULL:
            self._stderr.close()
        return Reaped(
            returncode=-9 if self.killed else self.proc.returncode,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
        )


def host_speed_s() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    A diagnostic of how fast the host runs this moment, recorded next
    to a pass; never used to adjust or drop a measurement.
    """
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - start


def host_steal_ticks() -> int:
    """Cumulative CPU steal of the host, in clock ticks (``/proc/stat``)."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def process_cpu_s(pid: int) -> float:
    """User + system CPU of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        text = handle.read()
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


_LISTENING = re.compile(rb"listening on http://[^:]+:(\d+)")


def wait_listening(child: Child, stderr_path: Path, timeout_s: float) -> int:
    """The port a starting ``repro serve`` reports on stderr."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        match = _LISTENING.search(stderr_path.read_bytes())
        if match:
            return int(match.group(1))
        if child.proc.poll() is not None:
            break
        time.sleep(0.002)
    raise RuntimeError(f"server did not start: {stderr_path.read_text(errors='replace')[-2000:]}")


def http_json(port: int, method: str, path: str, body: Any = None,
              timeout_s: float = 30.0) -> tuple[int, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)
    try:
        data = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=data,
                     headers={"Content-Type": "application/json"})
        reply = conn.getresponse()
        return reply.status, json.loads(reply.read() or b"null")
    finally:
        conn.close()


def wait_healthy(port: int, timeout_s: float) -> float:
    """Poll ``/healthz`` until it answers 200; the monotonic time it did."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            status, _ = http_json(port, "GET", "/healthz", timeout_s=5.0)
            if status == 200:
                return time.monotonic()
        except OSError:
            pass
        time.sleep(0.002)
    raise RuntimeError("server never answered /healthz")
