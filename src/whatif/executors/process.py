"""Local-process executor: real child processes on the workstation.

Each job is one process in a session and process group of its own, spawned
while SIGINT, SIGTERM and SIGHUP are blocked until its pid, pidfd and pipe
are recorded, so an interrupt finds it there for ``shutdown`` to kill. It
starts with the caller's signal mask, SIGPIPE and SIGXFSZ at default, fds
0-2 only, and a bare command found on its env's PATH, and is then reported
Running. The engine's loop waits in ``wait`` on each job's pidfd (Linux
5.3+) and stdout pipe, which ingests UTF-8 ``metric <name> <float>
<unix-ms>`` lines and, when a job exits, kills the rest of its group, reaps
it and emits its exit status as a State event: a death by SIGKILL fails it
in mode ``kill``, any other nonzero status in mode ``crash``. Kill and suspend
faults send SIGKILL and SIGSTOP/SIGCONT to the group; partitions need the simulator.
Under an ignored SIGCHLD the kernel would reap each job itself and lose its
exit status, so the executor sets SIGCHLD to its default for the run and
puts SIG_IGN back at ``shutdown``; a thread other than the main one cannot,
and its jobs fail to spawn.
"""

from __future__ import annotations

import errno
import os
import selectors
import shlex
import shutil
import signal
from types import SimpleNamespace

from ..errors import SpawnError, UnsupportedFault
from ..lifecycle import Phase
from .base import Executor, FaultSpec, JobSpec

_HELD = (signal.SIGINT, signal.SIGTERM, signal.SIGHUP)  # blocked from a job's spawn until it is recorded
_DEFAULT = (signal.SIGPIPE, signal.SIGXFSZ)  # ignored by Python, and at default in a job
_STDERR = (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)


class ProcessExecutor(Executor):
    name = "process"

    def __init__(self):
        self.procs: dict[str, SimpleNamespace] = {}  # each job's record
        self._selector = selectors.DefaultSelector()
        self._ignored_sigchld = False  # SIGCHLD was SIG_IGN at the first job: `shutdown` puts it back

    # --- jobs -------------------------------------------------------------

    def start_job(self, spec: JobSpec) -> None:
        if spec.command is None:
            raise SpawnError(f"{spec.name}: process jobs need a command")
        if spec.name in self.procs:
            raise SpawnError(f"job name already in use: {spec.name}")
        if signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN:
            try:
                signal.signal(signal.SIGCHLD, signal.SIG_DFL)
            except ValueError as exc:  # not the main thread
                raise SpawnError(f"{spec.name}: SIGCHLD is ignored, so the job's exit status would be lost, "
                                 "and only the main thread can set it to its default") from exc
            self._ignored_sigchld = True
        env = {**os.environ, **spec.env}
        held = signal.pthread_sigmask(signal.SIG_BLOCK, _HELD)  # the caller's mask, restored below
        pipe = ()
        try:
            try:
                argv = shlex.split(spec.command) or [""]  # an empty command names no file
                path = argv[0] if "/" in argv[0] else shutil.which(argv[0], path=os.pathsep.join(os.get_exec_path(env)))
                if path is None:
                    raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), argv[0])
                with os.scandir("/proc/self/fd") as fds:  # its own fd, open while listed, is not inheritable
                    kept = [fd for entry in fds if (fd := int(entry.name)) > 2 and os.get_inheritable(fd)]
                pipe = os.pipe() if spec.metrics_source == "stdout-lines" else ()
                pid = os.posix_spawn(path, argv, env, setsid=True, setsigmask=held, setsigdef=_DEFAULT, file_actions=[
                    (os.POSIX_SPAWN_DUP2, pipe[1], 1) if pipe else (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                    _STDERR, *((os.POSIX_SPAWN_CLOSE, fd) for fd in kept)])
            except (OSError, ValueError) as exc:
                for fd in pipe:
                    os.close(fd)
                raise SpawnError(f"{spec.name}: {exc}") from exc
            # The record: pid (also the group id), pidfd and pipe fds (None when closed), unfinished last line, status.
            job = self.procs[spec.name] = SimpleNamespace(
                pid=pid, pidfd=None, stdout=pipe[0] if pipe else None, tail=b"", returncode=None)
            if pipe:
                os.close(pipe[1])
                os.set_blocking(pipe[0], False)
                self._selector.register(pipe[0], selectors.EVENT_READ, spec.name)
            job.pidfd = os.pidfd_open(pid)
            self._selector.register(job.pidfd, selectors.EVENT_READ, spec.name)
            self._emit(spec.name, Phase.RUNNING)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)  # a signal held meanwhile is handled here

    def wait(self, timeout: float) -> None:
        """Block until a job exits or prints, or ``timeout`` seconds pass: a select on the jobs' pidfds and
        pipes, which sleeps when no job is left."""
        for key, _ in self._selector.select(timeout):
            name, job = key.data, self.procs[key.data]
            if key.fd == job.pidfd:  # the job exited
                returncode = self._reap(job)
                if returncode == 0:
                    self._emit(name, Phase.SUCCESS)
                else:
                    mode = "kill" if returncode == -signal.SIGKILL else "crash"
                    self._emit(name, Phase.FAILED, mode=mode, reason=f"exit={returncode}")
            elif job.stdout is not None:  # not closed by a reap earlier in this batch
                self._read(job)

    def _reap(self, job: SimpleNamespace) -> int:
        """Kill what is left of the job's group, reap the job, ingest the rest of its output."""
        os.killpg(job.pid, signal.SIGKILL)  # while the unreaped job still pins its group id
        job.returncode = os.waitstatus_to_exitcode(os.waitpid(job.pid, 0)[1])
        if job.pidfd is not None:
            self._forget(job.pidfd)
            job.pidfd = None
        while job.stdout is not None and self._read(job):
            pass
        if job.stdout is not None:  # a killed grandchild may hold the pipe a moment longer
            self._close(job)
        return job.returncode

    def _read(self, job: SimpleNamespace) -> bool:
        """Ingest the complete lines in the job's pipe; at EOF the last one too. True when more may follow now."""
        try:
            chunk = os.read(job.stdout, 65536)
        except BlockingIOError:
            return False
        if not chunk:
            self._close(job)
            return False
        *lines, job.tail = (job.tail + chunk).split(b"\n")
        for line in lines:
            self._ingest_line(line)
        return True

    def _close(self, job: SimpleNamespace) -> None:
        self._ingest_line(job.tail)
        self._forget(job.stdout)
        job.stdout = None

    def _forget(self, fd: int) -> None:
        if fd in self._selector.get_map():  # an interrupted start_job may not have registered it
            self._selector.unregister(fd)
        os.close(fd)

    def _ingest_line(self, line: bytes) -> None:
        parts = line.decode(errors="replace").split()
        if len(parts) != 4 or parts[0] != "metric":
            return
        try:
            value, unix_ms = float(parts[2]), float(parts[3])
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
            if name in self.procs and self.procs[name].returncode is None:
                os.killpg(self.procs[name].pid, sig)

    # --- plumbing ------------------------------------------------------------

    def shutdown(self) -> None:
        try:
            for job in self.procs.values():
                if job.returncode is None:
                    self._reap(job)
        finally:
            if self._ignored_sigchld:
                signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        self._selector.close()
