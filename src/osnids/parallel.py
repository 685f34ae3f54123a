"""Independent units of work, side by side on every CPU this process may use; each unit is
computed as the plain loop computes it, so no result depends on the CPU count."""

from __future__ import annotations

import os
import pickle
import sys

_MAX_RUNS = 256  # the items go in at most this many runs, one queued byte each


def cpu_count() -> int:
    """The CPUs this process may run on; `taskset` limits them."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def fork_map(fn, items) -> list:
    """`[fn(item) for item in items]` over `min(cpu_count(), len(items))` workers: this process,
    which takes the first run of items, and forked children, which pickle their outcomes back
    through a pipe and always leave through `os._exit`. Each worker takes the next run as it
    comes free, so every run is taken after those before it, and the error raised is the plain
    loop's: that of the first failing item in item order."""
    items = list(items)
    workers = min(cpu_count(), len(items)) if hasattr(os, "fork") else 1
    if workers < 2:
        return [fn(item) for item in items]
    step = -(-len(items) // _MAX_RUNS)
    runs = [range(len(items))[i : i + step] for i in range(0, len(items), step)]
    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(runs))))  # at most 256 bytes: written whole, before any worker reads
    os.close(feed)

    def work(token: bytes) -> list:
        """(index, ok, result or error) of each item in `token`'s run and in each run taken after
        it; it stops at its first error, as the plain loop does."""
        out = []
        while token:
            for i in runs[token[0]]:
                try:
                    out.append((i, True, fn(items[i])))
                except Exception as exc:
                    return out + [(i, False, exc)]
            token = os.read(queue, 1)
        return out

    first = os.read(queue, 1)
    sys.stdout.flush()  # else a child would write this process's pending text a second time
    sys.stderr.flush()
    children = {}  # pid: read end of its pipe
    try:
        for _ in range(workers - 1):
            read_end, write_end = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    with os.fdopen(write_end, "wb") as pipe:
                        pickle.dump(work(os.read(queue, 1)), pipe)
                    sys.stdout.flush()
                    sys.stderr.flush()
                finally:
                    os._exit(0)
            os.close(write_end)
            children[pid] = read_end
        outcomes = work(first)
        for pid, read_end in children.items():
            with os.fdopen(read_end, "rb", closefd=False) as pipe:
                try:
                    outcomes += pickle.load(pipe)
                except EOFError:
                    raise ChildProcessError(f"worker {pid} ended without its results") from None
    finally:
        os.close(queue)
        for pid, read_end in children.items():
            os.close(read_end)
            os.waitpid(pid, 0)
    outcomes.sort(key=lambda outcome: outcome[0])
    if errors := [value for _, ok, value in outcomes if not ok]:
        raise errors[0]
    return [value for _, _, value in outcomes]
