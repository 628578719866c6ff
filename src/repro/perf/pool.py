"""No worker threads: searches and kernels run serially in the caller."""

from types import SimpleNamespace


def get_pool() -> SimpleNamespace:
    """A pool whose ``shutdown()`` does nothing; ``perfbench.workloads.release_pools()`` calls it."""
    return SimpleNamespace(shutdown=lambda: None)
