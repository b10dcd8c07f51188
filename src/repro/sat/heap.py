"""Indexed max-heap ordered by variable activity (MiniSAT-style order heap).

The solver keeps every unassigned variable in this heap and always decides on
the variable with the highest VSIDS activity.  The heap supports the three
operations CDCL needs: insert, pop-max, and "bubble up after an activity
bump" (:meth:`ActivityHeap.update`).

The heap's storage is *shareable with the C search kernel*: when constructed
with ``flat=True`` the heap entries and the per-variable position index live
in ``array('l')`` buffers (and the activity values the solver owns live in an
``array('d')``), so the compiled kernel in ``search.c`` performs the exact
sift-up/sift-down/rebuild sequence over the very same memory.  To make that
possible the logical heap size is held in an explicit counter
(:attr:`_size`) decoupled from the physical buffer length — the buffers are
grown to one slot per variable up front and never shrink, and the C side
reports the post-call size back through its state array
(:meth:`set_size`).  The pure-Python methods below implement the identical
algorithm over either storage type.
"""

from __future__ import annotations

from array import array


def grow_buffer(buffer, value, count: int) -> None:
    """Append ``count`` copies of ``value`` to a list or ``array`` buffer."""
    if isinstance(buffer, array):
        buffer.extend(array(buffer.typecode, (value,)) * count)
    else:
        buffer.extend([value] * count)


class ActivityHeap:
    """Binary max-heap over variable indices keyed by an activity array.

    The ``activity`` buffer is owned by the solver and mutated in place; the
    heap only reads it.  ``positions[var]`` is the index of ``var`` inside
    the heap storage or ``-1`` when the variable is not currently in the
    heap.  Only the first :attr:`_size` entries of the heap buffer are live.
    """

    def __init__(self, activity, flat: bool = False) -> None:
        self._activity = activity
        if flat:
            self._heap = array("l")
            self._positions = array("l")
        else:
            self._heap: list[int] = []
            self._positions: list[int] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, var: int) -> bool:
        return var < len(self._positions) and self._positions[var] >= 0

    # ------------------------------------------------------- C buffer access

    @property
    def size(self) -> int:
        """The logical number of live heap entries."""
        return self._size

    def set_size(self, size: int) -> None:
        """Adopt the heap size the C kernel reports after a search stint."""
        self._size = size

    def heap_buffer(self):
        """The raw heap-entry storage (an ``array('l')`` when flat)."""
        return self._heap

    def positions_buffer(self):
        """The raw per-variable position storage."""
        return self._positions

    # -------------------------------------------------------------- mutation

    def grow_to(self, num_vars: int) -> None:
        """Make room for variables ``1..num_vars``."""
        if len(self._positions) <= num_vars:
            grow_buffer(self._positions, -1, num_vars + 1 - len(self._positions))
        if len(self._heap) < num_vars:
            grow_buffer(self._heap, 0, num_vars - len(self._heap))

    def insert(self, var: int) -> None:
        """Insert ``var`` if it is not already present."""
        self.grow_to(var)
        if self._positions[var] >= 0:
            return
        self._heap[self._size] = var
        self._positions[var] = self._size
        self._sift_up(self._size)
        self._size += 1

    def insert_fresh(self, first: int, last: int) -> None:
        """Insert the new variables ``first..last`` in one step.

        Equivalent to :meth:`insert` on each in index order when they are
        absent and have zero activity: such a variable never sifts up
        (activities are non-negative and :meth:`_sift_up` stops at ``>=``),
        so each lands in the next free slot.
        """
        self.grow_to(last)
        size = self._size
        count = last - first + 1
        flat = isinstance(self._heap, array)
        entries = range(first, last + 1)
        slots = range(size, size + count)
        self._heap[size : size + count] = array("l", entries) if flat else entries
        self._positions[first : last + 1] = array("l", slots) if flat else slots
        self._size = size + count

    def pop_max(self) -> int:
        """Remove and return the variable with the highest activity."""
        if not self._size:
            # The flat buffers are pre-padded, so without this guard an
            # empty pop would silently hand back a stale entry.
            raise IndexError("pop from an empty activity heap")
        top = self._heap[0]
        self._size -= 1
        last = self._heap[self._size]
        self._positions[top] = -1
        if self._size:
            self._heap[0] = last
            self._positions[last] = 0
            self._sift_down(0)
        return top

    def update(self, var: int) -> None:
        """Restore heap order after ``var``'s activity increased."""
        pos = self._positions[var] if var < len(self._positions) else -1
        if pos >= 0:
            self._sift_up(pos)

    def rebuild(self) -> None:
        """Re-heapify after a global activity rescale."""
        for i in range(self._size // 2 - 1, -1, -1):
            self._sift_down(i)

    def _sift_up(self, pos: int) -> None:
        heap, positions, activity = self._heap, self._positions, self._activity
        var = heap[pos]
        act = activity[var]
        while pos > 0:
            parent = (pos - 1) >> 1
            pvar = heap[parent]
            if activity[pvar] >= act:
                break
            heap[pos] = pvar
            positions[pvar] = pos
            pos = parent
        heap[pos] = var
        positions[var] = pos

    def _sift_down(self, pos: int) -> None:
        heap, positions, activity = self._heap, self._positions, self._activity
        size = self._size
        var = heap[pos]
        act = activity[var]
        while True:
            left = 2 * pos + 1
            if left >= size:
                break
            right = left + 1
            child = left
            if right < size and activity[heap[right]] > activity[heap[left]]:
                child = right
            cvar = heap[child]
            if act >= activity[cvar]:
                break
            heap[pos] = cvar
            positions[cvar] = pos
            pos = child
        heap[pos] = var
        positions[var] = pos
