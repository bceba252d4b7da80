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

_task = None  # the function a forked worker calls; set only while a pool runs


def _call(item):
    return _task(item)


def map_scenes(fn, items) -> list:
    """``[fn(item) for item in items]``, in order, on up to one forked worker per usable CPU.

    ``fn`` may be any callable, closures included: workers are forked after
    it is set, so it is never pickled. Items and results are pickled, so
    they should be small (indices, sample ids); a worker writes its own
    output files. When several items fail, the exception raised is that of
    the first failing item in item order, as in the serial loop. Items not
    yet started when it is raised are cancelled, and the ones running are
    let finish, so no worker is killed halfway through writing a file.
    """
    items = list(items)
    workers = min(len(os.sched_getaffinity(0)), len(items))
    if workers < 2:
        return [fn(item) for item in items]
    # not on the import path of the CLI
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    global _task
    _task = fn
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            # about four chunks per worker, to even out slow scenes; the map is ordered,
            # so chunk k's error is raised only after chunks 0..k-1 have returned
            return list(pool.map(_call, items, chunksize=-(-len(items) // (4 * workers))))
    finally:
        _task = None
