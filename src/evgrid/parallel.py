"""One ordered map over independent scenes, on every CPU the process may use.

``gen``, ``rayism`` and ``infer`` handle each scene on its own: every scene
has its own seed, its own inputs and its own output files. ``map_scenes``
runs such a loop in a pool of forked workers when the process's CPU
affinity holds two or more CPUs, and as the plain loop otherwise
(``taskset -c 0`` gives the serial run). Results and errors come back in
item order either way, so output bytes and the error reported do not depend
on the number of workers.
"""

from __future__ import annotations

import os
import signal

_task = None  # the function a forked worker calls; set only while a pool runs


def _call(chunk):
    return [_task(item) for item in chunk]


def _default_signals() -> None:
    """A worker dies of SIGINT or SIGTERM without a traceback, and the pool then stops the
    others. Process.terminate() sends SIGTERM, and a forked worker would otherwise keep
    the handler of the CLI it was forked from."""
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.SIG_DFL)


def map_scenes(fn, items) -> list:
    """``[fn(item) for item in items]``, in order, on up to one forked worker per usable CPU.

    ``fn`` may be any callable, closures included: workers are forked after
    it is set, so it is never pickled. Items and results are pickled, so
    they should be small (indices, sample ids); a worker writes its own
    output files. When several items fail, the exception raised is that of
    the first failing item in item order, as in the serial loop. Items not
    yet started when it is raised are cancelled, and the ones running are
    let finish, so no worker is killed halfway through writing a file. A
    KeyboardInterrupt ends the workers at once, whether the SIGINT reached them
    too (a terminal's Ctrl-C) or this process alone, and is raised once they
    are gone: what they were writing is discarded with the caller's staging
    directory. The CLI raises its SIGTERM as a KeyboardInterrupt, so a SIGTERM
    ends them the same way.
    """
    items = list(items)
    workers = min(len(os.sched_getaffinity(0)), len(items))
    if workers < 2:
        return [fn(item) for item in items]
    # not on the import path of the CLI
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_default_signals)
    global _task
    _task = fn
    size = -(-len(items) // (4 * workers))  # about four chunks per worker, to even out slow scenes
    try:
        chunks = [pool.submit(_call, items[i:i + size]) for i in range(0, len(items), size)]
        # chunk k's error is raised only after chunks 0..k-1 have returned
        return [result for chunk in chunks for result in chunk.result()]
    except KeyboardInterrupt:
        for worker in multiprocessing.active_children():
            worker.terminate()
        raise
    finally:
        # waits for the running chunks; the pool's own thread cancels the rest, because a
        # cancel from this thread races a broken pool's cleanup, which Python 3.11 abandons
        pool.shutdown(cancel_futures=True)
        _task = None
