"""Threads racing each other under a 10 µs switch interval: one reader
against one writer, for the "every answer is the answer over some
prefix of the writes" tests, and N workers at once, for the "no update
is lost" ones."""

from __future__ import annotations

import sys
import threading
from typing import Callable, TypeVar

T = TypeVar("T")


def read_while_writing(read_once: Callable[[], T], write_all: Callable[[], None]) -> list[T]:
    """Run ``write_all()`` on one thread while another calls
    ``read_once()`` over and over — from before the first write until
    the writer is done, and at least eight times — under a 10 µs switch
    interval.  Returns what the reads returned, in order; an exception
    on either thread, or a thread that does not finish, fails the test.
    """
    answers: list[T] = []
    failures: list[BaseException] = []
    reading, done = threading.Event(), threading.Event()

    def writer() -> None:
        try:
            reading.wait(timeout=30.0)
            write_all()
        except BaseException as exc:  # surfaced by the assert below
            failures.append(exc)
        finally:
            done.set()

    def reader() -> None:
        try:
            while not done.is_set() or len(answers) < 8:
                answers.append(read_once())
                reading.set()
        except BaseException as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    return answers


def run_together(workers: list[Callable[[], None]]) -> None:
    """Run every worker on a thread of its own, released together, under
    a 10 µs switch interval.  An exception on any thread, or a thread
    that does not finish, fails the test."""
    failures: list[BaseException] = []
    barrier = threading.Barrier(len(workers))

    def run(worker: Callable[[], None]) -> None:
        try:
            barrier.wait(timeout=30.0)
            worker()
        except BaseException as exc:  # surfaced by the assert below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(worker,)) for worker in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
