"""Fixture: shared resources acquired but not released on all paths."""

from multiprocessing import Pool
from multiprocessing.shared_memory import SharedMemory


def attach_unbound(name):
    """The handle is dropped on the floor: never bound, never closed."""
    SharedMemory(name=name)  # resource-lifecycle violation (unbound)
    return name


def attach_no_release(name):
    """Bound but no close()/unlink() anywhere."""
    shm = SharedMemory(name=name)  # resource-lifecycle violation
    return shm.size


def write_happy_path(path, payload):
    """close() runs only when write() does not raise."""
    handle = open(path, "wb")  # resource-lifecycle violation
    handle.write(payload)
    handle.close()


def evaluate_pool(jobs):
    """terminate() only on the fall-through path."""
    pool = Pool(2)  # resource-lifecycle violation
    results = pool.map(len, jobs)
    pool.terminate()
    return results


import numpy as np


def scan_counts_unbound(path, n):
    """A memmap dropped on the floor: never bound, never released."""
    np.memmap(path, dtype="i4", mode="r", shape=(n,))  # resource-lifecycle violation (unbound)
    return n


def scan_counts_no_release(path, n):
    """Bound, but the mapping is never released on any path."""
    mapped = np.memmap(path, dtype="i4", mode="r", shape=(n,))  # resource-lifecycle violation
    return int(mapped[0])


import mmap


def peek_unbound(handle):
    """A stdlib map dropped on the floor: never bound, never closed."""
    mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)  # resource-lifecycle violation (unbound)
    return handle


def peek_no_release(handle):
    """Bound, but the map is never closed on any path."""
    mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)  # resource-lifecycle violation
    return mapped[:4]
