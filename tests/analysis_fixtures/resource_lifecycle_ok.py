"""Clean counterpart of ``resource_lifecycle_bad.py``: every acquisition
is tied to a with block, a finally release, an ownership transfer, or an
owning class that defines a releaser."""

from multiprocessing.shared_memory import SharedMemory


def read_payload(path):
    """with block: released on every path by __exit__."""
    with open(path, "rb") as handle:
        return handle.read()


def fill_segment(name, payload):
    """try/finally release."""
    shm = SharedMemory(name=name)
    try:
        shm.buf[:len(payload)] = payload
    finally:
        shm.close()


def acquire(name):
    """Ownership transfers to the caller (making this a tracked producer)."""
    shm = SharedMemory(name=name)
    return shm


def consume(name):
    """An acquisition through the producer above, released in a finally."""
    shm = acquire(name)
    try:
        return bytes(shm.buf[:4])
    finally:
        shm.close()


class Segment:
    """Owns one segment; close() releases it."""

    def __init__(self, name):
        self._shm = SharedMemory(name=name)

    def close(self):
        """Release the owned segment."""
        self._shm.close()


def register(segments, name):
    """The handle escapes into a container the caller owns."""
    segments.append(SharedMemory(name=name))


import numpy as np


class MappedBuffers:
    """Owns its maps and releases them in close() (the MemmapStore idiom)."""

    def __init__(self, path, n):
        self._maps = []
        self._maps.append(np.memmap(path, dtype="i4", mode="r", shape=(n,)))

    def close(self):
        """Drop the maps so the OS reclaims the mapping."""
        self._maps = []


def open_counts(path, n):
    """Ownership of the mapping transfers to the caller."""
    return np.memmap(path, dtype="i4", mode="r", shape=(n,))


def register_map(maps, path, n):
    """The mapping escapes into a container the caller owns."""
    maps.append(np.memmap(path, dtype="i4", mode="r", shape=(n,)))


import mmap


class MappedFile:
    """Owns one stdlib map; close() releases it."""

    def __init__(self, handle):
        self._map = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)

    def close(self):
        """Unmap the file."""
        self._map.close()


def map_view(handle, typecode):
    """The map escapes into the view that owns it (the MemmapStore idiom)."""
    return memoryview(mmap.mmap(handle.fileno(), 0,
                                access=mmap.ACCESS_READ)).cast(typecode)
