"""No worker processes: searches and kernels run serially in the caller."""


def shutdown_process_pool() -> None:
    """Do nothing; kept because ``perfbench.workloads.release_pools()`` calls it."""
