"""A fixed pure-Python kernel that tells how fast the host runs right now.

On the shared 2-vCPU host this benchmark was written on, the same work
runs about 1.7 times slower for tens of seconds at a time, in CPU time
rather than in waiting, so a 10-second run lands wholly in a fast or a
slow period. The benchmark times this kernel next to solmem's programs
and scales their times to the kernel's reference duration. The kernel
builds and walks small trees, the kind of work solmem's passes do, and
shares no code with solmem.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.002  # reported times are scaled to a host where the kernel takes this long


class _Node:
    __slots__ = ("kind", "left", "right", "value")

    def __init__(self, kind, left, right, value):
        self.kind, self.left, self.right, self.value = kind, left, right, value


def _kernel() -> int:
    total = 0
    for _ in range(40):
        node = None
        for i in range(60):
            node = _Node("add" if i % 3 else "mul", node, _Node("lit", None, None, i), i)
        stack = [node]
        while stack:
            n = stack.pop()
            if n is None:
                continue
            total += n.value if n.kind == "lit" else 1
            stack.append(n.left)
            stack.append(n.right)
    return total


def host_slowdown(repeats: int = 3) -> float:
    """How many times longer than REFERENCE_S the kernel takes now (best
    of `repeats`)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best / REFERENCE_S
