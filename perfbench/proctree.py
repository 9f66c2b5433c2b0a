"""Resident memory of this process tree, read from /proc.

The tree is the benchmark's own Python process, the Spark JVM it
launches and the JVM's Python worker daemon and workers. Each process
counts its proportional set size (Pss), so pages that forked workers
share with their daemon are counted once over the tree, not once per
worker.
"""
from __future__ import annotations

import os
import threading
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _parents() -> dict[int, int]:
    out = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:  # the process ended while we listed /proc
            continue
        # The command name is parenthesised and may hold spaces.
        out[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    return out


def descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for pid, ppid in _parents().items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        kids = children.get(todo.pop(), [])
        out.extend(kids)
        todo.extend(kids)
    return out


def _pss_bytes(pid: int) -> int:
    """Pss from smaps_rollup; RSS from statm where the kernel has no smaps_rollup."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) * 1024
    except FileNotFoundError:
        pass
    with open(f"/proc/{pid}/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


def tree_memory_bytes(root: int) -> int:
    total = 0
    for pid in [root, *descendants(root)]:
        try:
            total += _pss_bytes(pid)
        except (OSError, ValueError):  # the process ended while we read it
            continue
    return total


class PeakRss:
    """Polls the tree's summed Pss on a thread and keeps the maximum.

    Reading the JVM's smaps_rollup takes ~10 ms, so a shorter interval
    would take a noticeable share of a core from the queries it measures.
    """

    def __init__(self, root: int, interval: float = 0.25) -> None:
        self.root = root
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self) -> None:
        while True:
            self.peak = max(self.peak, tree_memory_bytes(self.root))
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)


def wait_gone(pids: list[int], timeout: float) -> list[int]:
    """Wait until none of ``pids`` is alive; returns those still alive."""
    deadline = time.monotonic() + timeout
    alive = list(pids)
    while alive and time.monotonic() < deadline:
        time.sleep(0.1)
        alive = [p for p in alive if _alive(p)]
    return alive


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            # A zombie has ended; its parent just has not reaped it yet.
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False
