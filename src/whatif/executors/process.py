"""Local-process executor: real child processes on the workstation.

Each job is one spawned process with a watcher thread that ingests
``metric <name> <float> <unix-ms>`` stdout lines and reports the exit
status as a State event. Kill and suspend faults map to SIGKILL and
SIGSTOP/SIGCONT; network partitions need the simulated executor.
"""

from __future__ import annotations

import os
import shlex
import signal
import subprocess
import threading

from ..errors import SpawnError, TargetNotRunning, UnsupportedFault
from ..lifecycle import Phase
from ..telemetry import MetricPoint
from .base import Executor, FaultSpec, JobSpec


class ProcessExecutor(Executor):
    name = "process"

    def __init__(self):
        super().__init__()
        self.procs: dict[str, subprocess.Popen] = {}
        self.threads: list[threading.Thread] = []
        self._fault_killed: set = set()
        self._engine_killed: set = set()
        self._lock = threading.Lock()

    # --- jobs -------------------------------------------------------------

    def start_job(self, spec: JobSpec) -> None:
        if spec.command is None:
            raise SpawnError(f"{spec.name}: process jobs need a command")
        if spec.name in self.procs:
            raise SpawnError(f"job name already in use: {spec.name}")
        for metric in spec.declares:
            self.store.declare(metric)
        env = dict(os.environ)
        env.update(spec.env)
        want_stdout = spec.metrics_source == "stdout-lines"
        self._emit(spec.name, Phase.PENDING)
        try:
            proc = subprocess.Popen(
                shlex.split(spec.command),
                stdout=subprocess.PIPE if want_stdout else subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                env=env,
                text=True,
            )
        except (OSError, ValueError) as exc:
            raise SpawnError(f"{spec.name}: {exc}") from exc
        self.procs[spec.name] = proc
        self._emit(spec.name, Phase.RUNNING)
        thread = threading.Thread(target=self._watch, args=(spec.name, proc), daemon=True)
        thread.start()
        self.threads.append(thread)

    def _watch(self, name: str, proc: subprocess.Popen) -> None:
        if proc.stdout is not None:
            with proc.stdout:
                for line in proc.stdout:
                    self._ingest_line(line)
        returncode = proc.wait()
        with self._lock:
            if name in self._engine_killed:
                return
            fault_killed = name in self._fault_killed
        if returncode == 0:
            self._emit(name, Phase.SUCCESS)
        else:
            mode = "kill" if fault_killed else "crash"
            self._emit(name, Phase.FAILED, mode=mode, reason=f"exit={returncode}")

    def _ingest_line(self, line: str) -> None:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "metric":
            return
        try:
            value = float(parts[2])
            unix_ms = float(parts[3])
        except ValueError:
            return
        at = self.clock.from_unix_ms(unix_ms) if hasattr(self.clock, "from_unix_ms") else self.clock.now()
        self.store.ingest(MetricPoint(parts[1], value, max(0.0, at)))

    def kill_job(self, name: str) -> None:
        proc = self.procs.get(name)
        if proc is None:
            return
        with self._lock:
            self._engine_killed.add(name)
        if proc.poll() is None:
            proc.kill()

    # --- faults -------------------------------------------------------------

    def supports_fault(self, kind: str) -> bool:
        return kind in ("kill", "suspend")

    def inject_fault(self, action: str, spec: FaultSpec) -> str:
        if not self.supports_fault(spec.kind):
            raise UnsupportedFault(f"{spec.kind} requires the simulated executor")
        for target in spec.targets:
            proc = self.procs.get(target)
            if proc is None or proc.poll() is not None:
                raise TargetNotRunning(target)
        if spec.kind == "kill":
            for target in spec.targets:
                with self._lock:
                    self._fault_killed.add(target)
                self.procs[target].kill()
        else:  # suspend
            for target in spec.targets:
                self.procs[target].send_signal(signal.SIGSTOP)
        return self._record_fault(action, spec)

    def _lift(self, spec: FaultSpec) -> None:
        for target in spec.targets:  # a suspend: a kill is never in effect
            proc = self.procs.get(target)
            if proc is not None and proc.poll() is None:
                proc.send_signal(signal.SIGCONT)

    # --- plumbing ------------------------------------------------------------

    def shutdown(self) -> None:
        for name, proc in self.procs.items():
            with self._lock:
                self._engine_killed.add(name)
            if proc.poll() is None:
                proc.kill()
        for thread in self.threads:
            thread.join(timeout=2.0)
