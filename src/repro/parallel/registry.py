"""Named chunk-kernel registry.

A *chunk kernel* is a module-level function

    kernel(views: Mapping[str, np.ndarray], lo: int, hi: int) -> None

that reads the input arrays in ``views`` and writes **only** the
``[lo:hi)`` slices of the output arrays in ``views``.  Registering a
kernel by name (the :func:`chunk_kernel` decorator) makes it
dispatchable through :func:`repro.parallel.run_kernel_chunks`.

Pool-safety rules for kernels (enforced statically by the ``repro.lint``
DET006 rule):

* no mutation of module-level state — kernels run concurrently on
  pool threads, and mutations would race;
* writes go only to the ``[lo:hi)`` output slices.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Mapping

import numpy.typing as npt

ChunkKernel = Callable[[Mapping[str, npt.NDArray[Any]], int, int], None]

_REGISTRY_LOCK = threading.Lock()
_KERNELS: dict[str, ChunkKernel] = {}


def chunk_kernel(name: str) -> Callable[[ChunkKernel], ChunkKernel]:
    """Register a module-level function as the chunk kernel ``name``."""

    def register(fn: ChunkKernel) -> ChunkKernel:
        qualname = getattr(fn, "__qualname__", fn.__name__)
        if "." in qualname:
            raise ValueError(
                f"chunk kernel {name!r} must be a module-level function, got {qualname!r}"
            )
        with _REGISTRY_LOCK:
            existing = _KERNELS.get(name)
            if existing is not None and existing is not fn:
                raise ValueError(f"chunk kernel {name!r} is already registered")
            _KERNELS[name] = fn
        return fn

    return register


def resolve_kernel(name: str) -> ChunkKernel:
    """Look up a registered kernel by name."""
    with _REGISTRY_LOCK:
        fn = _KERNELS.get(name)
    if fn is None:
        raise KeyError(f"unknown chunk kernel {name!r}")
    return fn


def registered_kernels() -> tuple[str, ...]:
    """Sorted names of every registered kernel."""
    with _REGISTRY_LOCK:
        return tuple(sorted(_KERNELS))
