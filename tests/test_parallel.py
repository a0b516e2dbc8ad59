import multiprocessing
import os
import time

import pytest

from phxai import parallel


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(parallel, "cpu_count", lambda: 2)


def wait_for_two_processes(marks, x, timeout=10.0):
    """Mark item `x` as run by this process, then wait until some other
    process has run an item too, so that both processes take a share."""
    (marks / str(x)).write_text(str(os.getpid()))
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len({p.read_text() for p in marks.iterdir()}) > 1:
            return
        time.sleep(0.005)


def mark_once(marks, x):
    """Make item `x`'s mark file; an item run twice finds it made."""
    os.close(os.open(marks / str(x), os.O_CREAT | os.O_EXCL))


def test_results_in_index_order_with_uneven_times(two_cpus, tmp_path):
    """Later items finish first, the two processes share the items, and
    the results still come back in index order."""
    def fn(x):
        wait_for_two_processes(tmp_path, x)
        time.sleep((8 - x) * 0.01)
        return x * x, os.getpid()

    out = parallel.map_in_order(fn, range(8))
    assert [r for r, _ in out] == [x * x for x in range(8)]
    assert len({pid for _, pid in out}) == 2
    assert multiprocessing.active_children() == []


def test_one_cpu_runs_serially(monkeypatch):
    monkeypatch.setattr(parallel, "cpu_count", lambda: 1)
    assert parallel.map_in_order(lambda x: (x, os.getpid()), range(5)) == [
        (x, os.getpid()) for x in range(5)]


def test_a_fork_that_fails_leaves_the_items_to_the_parent(two_cpus, monkeypatch):
    def no_process(self):
        raise BlockingIOError("fork: Resource temporarily unavailable")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    assert parallel.map_in_order(lambda x: (x, os.getpid()), range(5)) == [
        (x, os.getpid()) for x in range(5)]


def test_lowest_failing_index_raises_and_no_child_is_left(two_cpus, tmp_path):
    """Item 2 fails late and item 5 early; the error is item 2's, as in a
    serial run, no item runs twice and no child outlives the call."""
    (tmp_path / "started").mkdir()
    (tmp_path / "once").mkdir()

    def fn(x):
        wait_for_two_processes(tmp_path / "started", x)
        mark_once(tmp_path / "once", x)
        if x == 2:
            time.sleep(0.2)
        if x in (2, 5):
            raise ValueError(f"bad item {x}")
        return x

    with pytest.raises(ValueError, match="^bad item 2$"):
        parallel.map_in_order(fn, range(8))
    assert multiprocessing.active_children() == []


class TwoArgError(Exception):
    """An exception that pickles but cannot be rebuilt from its args."""

    def __init__(self, item, why):
        super().__init__(f"item {item}: {why}")
        self.item = item


def test_items_of_a_lost_share_run_again_in_the_parent(two_cpus):
    """A child that dies, or whose share will not unpickle, loses nothing:
    its items run again in the parent, which raises what a serial run
    raises."""
    parent = os.getpid()

    def dies(x):
        if os.getpid() != parent:
            os._exit(3)
        return -x

    assert parallel.map_in_order(dies, range(6)) == [-x for x in range(6)]

    def fails_everywhere(x):
        time.sleep(0.01)
        raise TwoArgError(x, "always")

    with pytest.raises(TwoArgError, match="^item 0: always$"):
        parallel.map_in_order(fails_everywhere, range(6))
    assert multiprocessing.active_children() == []


def test_interrupt_in_the_parent_stops_and_joins_the_children(two_cpus):
    parent = os.getpid()
    calls = []

    def fn(x):
        calls.append(x)
        time.sleep(0.01)
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return x

    with pytest.raises(KeyboardInterrupt):
        parallel.map_in_order(fn, range(50))
    assert multiprocessing.active_children() == []
    assert len(calls) == 1


def test_every_index_runs_once_with_more_processes_than_cores(monkeypatch, tmp_path):
    """Four processes race for 2000 short items on the shared counter: an
    index handed out twice would find its mark file already made."""
    monkeypatch.setattr(parallel, "cpu_count", lambda: 4)

    def fn(x):
        mark_once(tmp_path, x)
        return x, os.getpid()

    out = parallel.map_in_order(fn, range(2000))
    assert [x for x, _ in out] == list(range(2000))
    assert len(list(tmp_path.iterdir())) == 2000
    assert multiprocessing.active_children() == []
