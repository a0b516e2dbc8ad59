"""An order-preserving map over the CPUs this process may use.

`map_in_order(fn, items)` returns `[fn(x) for x in items]`. The calling
process and one forked child per further CPU take the next index from a
shared counter, so a slow item holds up no other. Each child sends its
`{index: result}` back through a pipe when the counter runs out, and the
parent puts the results in index order. `fn` must be a pure function of its
item (its writes included): which process runs an item then cannot change
what the call returns. A fork the system refuses leaves the items to the
processes already running.

A process stops at its first failing item and moves the counter past the
end, so the others stop after their current item. Every lower index was
handed out before the failing one and runs to completion, so after all
children are joined the exception of the lowest failing index is the one a
serial run raises. Items whose outcome did not come back (from a child
that died, or in a share that would not pickle or unpickle) run again in
the parent, in index order, before that exception is raised.
"""

from __future__ import annotations

import multiprocessing
import os
import signal


def cpu_count() -> int:
    """The CPUs this process may run on, 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def map_in_order(fn, items) -> list:
    items = list(items)
    n = len(items)
    procs = min(cpu_count(), n)
    if procs <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(x) for x in items]
    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("q", 0)

    def stop():
        with counter.get_lock():
            counter.value = n

    def run_share():
        """Items from the counter until it passes the end or one fails: the
        results by index, and the failing item's exception by index."""
        done = {}
        while True:
            with counter.get_lock():
                i = counter.value
                counter.value = i + 1
            if i >= n:
                return done, {}
            try:
                done[i] = fn(items[i])
            except Exception as exc:
                stop()
                return done, {i: exc}

    def run_child(writer, readers):
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops the run
        for reader in readers:  # so that a parent that stops reading breaks the pipe
            reader.close()
        share = run_share()
        try:
            writer.send(share)
        except Exception:  # a share that will not pickle, or a parent that stopped
            pass           # reading: the parent runs these items again if it needs them

    readers, children = [], []
    try:
        for _ in range(procs - 1):
            reader, writer = ctx.Pipe(duplex=False)
            child = ctx.Process(target=run_child, args=(writer, readers + [reader]))
            try:
                child.start()
            except OSError:  # no process to spare: those running share the items
                reader.close()
                break
            finally:
                writer.close()
            readers.append(reader)
            children.append(child)
        shares = [run_share()]
        for reader in readers:
            try:
                shares.append(reader.recv())
            except Exception:  # EOF from a child that died, or a share that would not unpickle
                pass
    except BaseException:
        stop()
        raise
    finally:
        for reader in readers:
            reader.close()
        for p in children:
            p.join()
    results, failures = {}, {}
    for done, failed in shares:
        results.update(done)
        failures.update(failed)
    first_failure = min(failures, default=n)
    for i in range(first_failure):
        if i not in results:
            results[i] = fn(items[i])
    if failures:
        raise failures[first_failure]
    return [results[i] for i in range(n)]
