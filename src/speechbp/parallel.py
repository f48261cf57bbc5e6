"""The one way work spreads over cores: an ordered map on threads, at one
OpenBLAS thread so that the work never also spreads over BLAS threads."""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager

import numpy as np

try:  # the thread controls of the OpenBLAS that numpy bundles, if it does
    _blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
    _get_threads = _blas.scipy_openblas_get_num_threads64_
    _set_threads = _blas.scipy_openblas_set_num_threads64_
except (AttributeError, OSError):
    _get_threads, _set_threads = (lambda: 1), (lambda n: None)


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextmanager
def one_blas_thread():
    """One OpenBLAS thread, then the caller's count again: a second thread
    makes the encoder's bytes follow the count, and slows the map."""
    before = _get_threads()
    _set_threads(1)
    try:
        yield
    finally:
        _set_threads(before)


def ordered_map(fn, items) -> list:
    """[fn(item) for item in items] on min(len(items), usable CPUs) threads,
    the calling thread among them, at one OpenBLAS thread.

    Thread s takes every workers-th item from item s on and stops at its
    first error; all are joined before the map returns.  The results, and
    the first error in item order, are a plain loop's.  fn must call no
    tracer span: the benchmark's tracer keeps one span stack.  Its users:
    `select`'s folds, `synth`'s WAVs and the encoder's shards.
    """
    items = list(items)
    if not items:
        return []
    workers = min(len(items), usable_cpus())
    results, errors = [None] * len(items), {}

    def run_share(first):
        for i in range(first, len(items), workers):
            try:
                results[i] = fn(items[i])
            except Exception as error:  # raised again below, in item order
                errors[i] = error
                return

    started = []
    with one_blas_thread():
        try:
            for first in range(1, workers):
                thread = threading.Thread(target=run_share, args=(first,))
                thread.start()
                started.append(thread)
            run_share(0)
        finally:
            for thread in started:
                thread.join()
    if errors:  # every item before the first failing one has run
        raise errors[min(errors)]
    return results
