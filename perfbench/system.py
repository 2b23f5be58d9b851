"""Launching and stopping the processes under test.

Every program process is started through :mod:`launcher`, so the
benchmark knows each pid (for ``/proc`` CPU and RSS accounting) and can
install span wrappers in traced runs before the program object exists.
"""

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launcher.py"

#: Longest wait for a launched process to report ready or to answer.
REPLY_TIMEOUT = 120.0
#: Longest wait for a clean shutdown before the process is killed.
STOP_TIMEOUT = 30.0


class LaunchError(RuntimeError):
    """A launched process died, timed out or answered garbage."""


class Launched:
    """One program process speaking the launcher's line protocol."""

    def __init__(self, spec: dict, work: Path, src: Path, tag: str) -> None:
        self.spec = spec
        self.tag = tag
        self.stderr_path = work / f"{tag}.stderr"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["PYTHONUNBUFFERED"] = "1"
        self._stderr = open(self.stderr_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER), json.dumps(spec)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            cwd=str(work),
            env=env,
        )
        self._buffer = b""
        self.ready: Optional[dict] = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def read(self, timeout: float = REPLY_TIMEOUT) -> dict:
        """Next ``PERFBENCH`` message from the process."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while True:
            newline = self._buffer.find(b"\n")
            while newline >= 0:
                line, self._buffer = (
                    self._buffer[:newline],
                    self._buffer[newline + 1 :],
                )
                if line.startswith(b"PERFBENCH "):
                    return json.loads(line[len(b"PERFBENCH ") :])
                newline = self._buffer.find(b"\n")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise LaunchError(f"{self.tag}: no reply in {timeout:.0f}s")
            readable, _, _ = select.select([fd], [], [], remaining)
            if readable:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    raise LaunchError(
                        f"{self.tag} exited (code {self.proc.poll()}): "
                        + self.stderr_tail()
                    )
                self._buffer += chunk

    def wait_ready(self) -> dict:
        self.ready = self.read()
        if not self.ready.get("ready"):
            raise LaunchError(f"{self.tag}: unexpected first message")
        return self.ready

    @property
    def port(self) -> int:
        return int(self.ready["port"])

    def send(self, command: dict) -> None:
        self.proc.stdin.write((json.dumps(command) + "\n").encode())
        self.proc.stdin.flush()

    def request(self, command: dict) -> dict:
        self.send(command)
        return self.read()

    def stderr_tail(self, lines: int = 20) -> str:
        try:
            text = self.stderr_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def stop(self) -> bool:
        """Ask for a clean shutdown; kill if it does not come.  Returns
        whether the process exited cleanly."""
        clean = False
        try:
            if self.proc.poll() is None:
                self.send({"op": "stop"})
                self.proc.stdin.close()
                while not self.read(STOP_TIMEOUT).get("done"):
                    pass
                clean = self.proc.wait(timeout=STOP_TIMEOUT) == 0
        except (LaunchError, OSError, ValueError, subprocess.TimeoutExpired):
            clean = False
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            self.proc.stdout.close()
            self._stderr.close()
        return clean


class System:
    """Every process launched for one set-up; :meth:`stop` ends them all."""

    def __init__(self, work: Path, src: Path) -> None:
        self.work = work
        self.src = src
        self.members: List[Launched] = []
        self._count = 0

    def launch(self, spec: dict, tag: str) -> Launched:
        self._count += 1
        member = Launched(spec, self.work, self.src, f"{tag}-{self._count}")
        self.members.append(member)
        return member

    @property
    def pids(self) -> List[int]:
        return [member.pid for member in self.members]

    def stop(self) -> bool:
        """Stop routers before daemons (reverse launch order)."""
        clean = True
        while self.members:
            clean = self.members.pop().stop() and clean
        return clean
