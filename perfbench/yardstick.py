"""A fixed piece of reference work that measures how fast the host is right now.

The machines this benchmark runs on share cores and memory bandwidth with
other tenants, and their speed drifts by 20% or more over minutes: longer
than one run, so no statistic inside a run removes it.  Every call of a
timed run (after its first set) is therefore followed by this reference
work, for about a fifth of the call's wall time, and the run reports
its times scaled by REF_S / (median reference seconds of the run), i.e. in
seconds on a host where the reference takes exactly REF_S.  Drift slows
both alike and cancels; a change to the library does not touch the
reference, so its gains and losses pass through unchanged.

The work mirrors the library's hot paths and their memory footprint: dense
cos/sin of a phase matrix with matrix-vector reductions, and complex
exponentials and products, on arrays of tens of megabytes.  With several
pool workers it runs on as many cores at once, and the slowest counts.
"""

from __future__ import annotations

import time
from multiprocessing import get_context

REF_S = 0.1
SHARE = 0.2
_ROWS, _TERMS, _PASSES = 500, 4000, 1


def work() -> float:
    """Seconds for one pass of the reference work in this process."""
    import numpy as np

    logs = np.log(np.arange(1.0, _TERMS + 1.0))
    coef = 1.0 / np.sqrt(np.arange(1.0, _TERMS + 1.0))
    taus = np.linspace(8000.0, 16000.0, _ROWS)
    t0 = time.perf_counter()
    for i in range(_PASSES):
        ang = np.outer(taus + i, logs)
        np.cos(ang) @ coef
        np.sin(ang) @ coef
        np.exp(1j * ang[:, :1000]) * np.exp(-1j * ang[:, 1000:2000])
    return time.perf_counter() - t0


def sample(wall: float, procs: int) -> list[float]:
    """Reference seconds taken after a call of `wall` seconds: one pass per
    SHARE * wall / REF_S, at least one, so that the host's speed is sampled
    in proportion to the time the workload ran."""
    return [seconds(procs) for _ in range(max(1, round(SHARE * wall / REF_S)))]


def _child(conn) -> None:
    conn.send(work())
    conn.close()


def seconds(procs: int) -> float:
    """Reference seconds on `procs` cores at once: the slowest process's time.

    Extra processes are forked (the benchmark process has no threads), so
    they start without re-importing numpy; each times only its own work.
    """
    if procs <= 1:
        return work()
    ctx = get_context("fork")
    pipes, children = [], []
    for _ in range(procs):
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_child, args=(send,))
        child.start()
        send.close()
        pipes.append(recv)
        children.append(child)
    try:
        return max(r.recv() for r in pipes)
    finally:
        for child in children:
            child.join()
