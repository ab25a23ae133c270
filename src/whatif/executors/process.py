"""Local-process executor: real child processes on the workstation.

Each job is one process in a process group of its own, reported Running
once its pidfd is registered. The engine's loop waits in ``wait`` on each
job's pidfd (Linux 5.3+) and stdout pipe, which ingests UTF-8 ``metric
<name> <float> <unix-ms>`` lines and, when a job exits, kills the rest of
its group, reaps it and emits its exit status as a State event: a death by
SIGKILL fails it in mode ``kill``, any other nonzero status in mode
``crash``. Kill and suspend faults send SIGKILL and SIGSTOP/SIGCONT to the
group; network partitions need the simulated executor.
"""

from __future__ import annotations

import os
import selectors
import shlex
import signal
import subprocess
from typing import Optional

from ..errors import SpawnError, UnsupportedFault
from ..lifecycle import Phase
from .base import Executor, FaultSpec, JobSpec


def _signal_group(proc: subprocess.Popen, sig: int) -> None:
    """Send ``sig`` to the job's process group; a group already gone is no error."""
    try:
        os.killpg(proc.pid, sig)
    except ProcessLookupError:
        pass


class ProcessExecutor(Executor):
    name = "process"

    def __init__(self):
        self.procs: dict[str, subprocess.Popen] = {}
        self._pidfds: dict[str, int] = {}  # jobs not reaped yet
        self._tails: dict[str, bytes] = {}  # each pipe's unterminated last line
        self._selector = selectors.DefaultSelector()

    # --- jobs -------------------------------------------------------------

    def start_job(self, spec: JobSpec) -> None:
        if spec.command is None:
            raise SpawnError(f"{spec.name}: process jobs need a command")
        if spec.name in self.procs:
            raise SpawnError(f"job name already in use: {spec.name}")
        env = dict(os.environ)
        env.update(spec.env)
        want_stdout = spec.metrics_source == "stdout-lines"
        try:
            proc = subprocess.Popen(
                shlex.split(spec.command),
                stdout=subprocess.PIPE if want_stdout else subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                env=env,
                start_new_session=True,
            )
        except (OSError, ValueError) as exc:
            raise SpawnError(f"{spec.name}: {exc}") from exc
        self.procs[spec.name] = proc
        # Each step is recorded once it is complete, so an interrupt between
        # two leaves ``shutdown`` nothing half registered to undo.
        if proc.stdout is not None:
            os.set_blocking(proc.stdout.fileno(), False)
            self._selector.register(proc.stdout, selectors.EVENT_READ, spec.name)
        pidfd = os.pidfd_open(proc.pid)
        try:
            self._selector.register(pidfd, selectors.EVENT_READ, spec.name)
        except BaseException:
            os.close(pidfd)
            raise
        self._pidfds[spec.name] = pidfd
        self._emit(spec.name, Phase.RUNNING)

    def wait(self, timeout: Optional[float]) -> bool:
        if not self._pidfds:  # no job left to bring news
            return super().wait(timeout)
        for key, _ in self._selector.select(timeout):
            name = key.data
            if isinstance(key.fileobj, int):  # the pidfd: the job exited
                returncode = self._reap(name)
                if returncode == 0:
                    self._emit(name, Phase.SUCCESS)
                else:
                    mode = "kill" if returncode == -signal.SIGKILL else "crash"
                    self._emit(name, Phase.FAILED, mode=mode, reason=f"exit={returncode}")
            elif not key.fileobj.closed:  # not closed by a reap earlier in this batch
                self._read(name, key.fileobj)
        return True

    def _reap(self, name: str) -> int:
        """Kill what is left of the job's group, reap the job, ingest the rest of its output."""
        proc = self.procs[name]
        _signal_group(proc, signal.SIGKILL)  # while the unreaped job still pins its group id
        returncode = proc.wait()
        pidfd = self._pidfds.pop(name)
        self._selector.unregister(pidfd)
        os.close(pidfd)
        if proc.stdout is not None and not proc.stdout.closed:
            while self._read(name, proc.stdout):
                pass
            if not proc.stdout.closed:  # a killed grandchild may hold the pipe a moment longer
                self._close(name, proc.stdout)
        return returncode

    def _read(self, name: str, pipe) -> bool:
        """Ingest the complete lines in ``pipe``; at EOF the last one too. True when more may follow now."""
        try:
            chunk = os.read(pipe.fileno(), 65536)
        except BlockingIOError:
            return False
        if not chunk:
            self._close(name, pipe)
            return False
        *lines, self._tails[name] = (self._tails.get(name, b"") + chunk).split(b"\n")
        for line in lines:
            self._ingest_line(line)
        return True

    def _close(self, name: str, pipe) -> None:
        self._ingest_line(self._tails.pop(name, b""))
        self._selector.unregister(pipe)
        pipe.close()

    def _ingest_line(self, line: bytes) -> None:
        parts = line.decode(errors="replace").split()
        if len(parts) != 4 or parts[0] != "metric":
            return
        try:
            value = float(parts[2])
            unix_ms = float(parts[3])
        except ValueError:
            return
        self.store.ingest(parts[1], value, self.clock.from_unix_ms(unix_ms))

    def kill_job(self, name: str) -> None:
        self._signal([name], signal.SIGKILL)

    # --- faults -------------------------------------------------------------

    def inject_fault(self, action: str, spec: FaultSpec) -> None:
        if spec.kind == "partition":
            raise UnsupportedFault("partition requires the simulated executor")
        self._signal(spec.targets, signal.SIGKILL if spec.kind == "kill" else signal.SIGSTOP)

    def revoke_fault(self, action: str, resume: list[str]) -> None:
        self._signal(resume, signal.SIGCONT)

    def _signal(self, names: list[str], sig: int) -> None:
        """Signal the groups of the jobs in ``names`` not reaped yet: an exited job pins its group id until
        its reap, which kills the group, and after which the id may be reused."""
        for name in names:
            if name in self._pidfds:
                _signal_group(self.procs[name], sig)

    # --- plumbing ------------------------------------------------------------

    def shutdown(self) -> None:
        for name in list(self._pidfds):
            self._reap(name)
        for proc in self.procs.values():
            if proc.returncode is None:  # started, but interrupted before its pidfd was recorded
                _signal_group(proc, signal.SIGKILL)
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        self._selector.close()
