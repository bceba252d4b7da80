import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import evgrid
from evgrid.parallel import _default_signals, map_scenes

from conftest import fake_cpus


class TestMapScenes:
    def test_results_in_item_order(self, monkeypatch):
        fake_cpus(monkeypatch, 2)

        def slow_early(i):  # early items finish last
            time.sleep(0.004 * (12 - i))
            return i, os.getpid()

        results = map_scenes(slow_early, range(12))
        assert [i for i, _pid in results] == list(range(12))
        assert os.getpid() not in {pid for _i, pid in results}
        assert not multiprocessing.active_children()

    def test_one_cpu_runs_in_process(self, monkeypatch):
        fake_cpus(monkeypatch, 1)
        assert map_scenes(lambda i: (i, os.getpid()), range(4)) == [(i, os.getpid()) for i in range(4)]

    def test_first_error_in_item_order(self, monkeypatch):
        fake_cpus(monkeypatch, 2)

        def fail(i):
            if i == 1:
                time.sleep(0.3)  # item 4 fails first in time
            if i in (1, 4):
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError, match="item 1"):
            map_scenes(fail, range(6))
        assert not multiprocessing.active_children()

    def test_a_worker_whose_parent_is_gone_exits(self):
        # the parent died before the worker's initializer set the death signal
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            try:
                _default_signals(os.getppid() + 1)
            finally:
                os._exit(0)
        assert os.waitpid(pid, 0)[1] == 1 << 8  # exit status 1


def test_cli_import_leaves_multiprocessing_unloaded():
    src = Path(evgrid.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = "import sys, evgrid.cli; sys.exit('multiprocessing' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
