"""Containers: filesystem + process table + memory accounting.

A container instantiates an image's filesystem, runs processes (its
entrypoint plus anything ``exec_run`` adds — the ``docker exec``
analogue), and reports its memory footprint, which
:mod:`repro.core.resources` aggregates into the paper's Table I
"Pre-attack Mem" / "Attack Mem" columns.
"""

from __future__ import annotations

import shlex
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.container import loaders
from repro.container.fs import FilesystemError, InMemoryFilesystem
from repro.container.image import Image
from repro.container.process import ContainerProcess, DEFAULT_PROCESS_RSS
from repro.netsim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.container.veth import NetNamespace

CREATED = "created"
RUNNING = "running"
STOPPED = "stopped"


class ContainerError(RuntimeError):
    """Container lifecycle / exec errors."""


class Container:
    """One emulated container."""

    def __init__(
        self,
        sim: Simulator,
        container_id: str,
        name: str,
        image: Image,
        seed: int = 0,
    ):
        self.sim = sim
        self.id = container_id
        self.name = name
        self.image = image
        self.seed = seed
        self.fs: InMemoryFilesystem = image.fs.clone()
        self.env = dict(image.env)
        self.state = CREATED
        self.netns: Optional["NetNamespace"] = None
        self.processes: Dict[int, ContainerProcess] = {}
        self._next_pid = 1
        self.logs: List[str] = []
        self.started_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the container: run its entrypoint (if any)."""
        if self.state == RUNNING:
            raise ContainerError(f"{self.name} is already running")
        self.state = RUNNING
        self.started_at = self.sim.now
        if self.image.entrypoint:
            self.exec_run(self.image.entrypoint)

    def stop(self) -> None:
        """Stop the container: kill every live process."""
        if self.state != RUNNING:
            return
        for process in list(self.processes.values()):
            process.kill()
        self.state = STOPPED

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------
    def exec_run(self, argv, name: Optional[str] = None) -> ContainerProcess:
        """Run a command in the container (``docker exec`` analogue).

        ``argv`` may be a list or a shell-ish string.  The first element
        must resolve to an executable file in the container filesystem;
        behaviour comes from the file's attached program or, failing that,
        a registered binary loader.
        """
        if self.state != RUNNING:
            raise ContainerError(f"cannot exec in {self.state} container {self.name}")
        if isinstance(argv, str):
            argv = shlex.split(argv)
        if not argv:
            raise ContainerError("empty argv")
        path = argv[0]
        try:
            entry = self.fs.entry(path)
        except FilesystemError as error:
            raise ContainerError(f"{self.name}: exec {path!r}: {error}") from None
        if not entry.executable:
            raise ContainerError(f"{self.name}: exec {path!r}: permission denied")
        rss = DEFAULT_PROCESS_RSS
        program = entry.program
        if program is None:
            resolved = loaders.resolve_program(entry.data)
            if resolved is None:
                raise ContainerError(f"{self.name}: exec {path!r}: exec format error")
            program, resolved_name, rss = resolved
            name = name or resolved_name
        pid = self._next_pid
        self._next_pid += 1
        process = ContainerProcess(self, pid, argv, program, name=name, rss_bytes=rss)
        self.processes[pid] = process
        return process

    def _reap(self, process: ContainerProcess) -> None:
        self.processes.pop(process.pid, None)

    def live_processes(self) -> List[ContainerProcess]:
        return [process for process in self.processes.values() if process.alive]

    def find_processes(self, name: str) -> List[ContainerProcess]:
        """Processes whose name contains ``name`` (Mirai's rival scan)."""
        return [
            process for process in self.live_processes() if name in process.name
        ]

    def processes_bound_to(self, port: int) -> List[ContainerProcess]:
        """Processes holding ``port`` (Mirai kills 22/23 binders)."""
        return [
            process
            for process in self.live_processes()
            if port in process.bound_ports
        ]

    def kill_process(self, pid: int) -> bool:
        process = self.processes.get(pid)
        if process is None or not process.alive:
            return False
        process.kill()
        return True

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Container RSS: image base + filesystem + per-process RSS."""
        if self.state != RUNNING:
            return 0
        process_rss = sum(process.rss_bytes for process in self.live_processes())
        return self.image.base_rss_bytes + self.fs.total_bytes + process_rss

    def log(self, message: str) -> None:
        self.logs.append(f"[{self.sim.now:10.3f}] {message}")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Container {self.name} ({self.image.reference}) {self.state}>"
