"""
Shared test tooling: emptying every module cache, and running a block with
a corrupted matrix in rmatrix's table.  Test modules import these by name
(`from conftest import clear_all_caches, corrupted`).
"""

from contextlib import contextmanager

from qlink import aw, invariant, rmatrix
from qlink.tensorop import Operator


def clear_all_caches():
    rmatrix.clear_cache()
    invariant.clear_cache()
    aw.clear_cache()


@contextmanager
def corrupted(key, clean: Operator, cell, value, *, clear=clear_all_caches):
    """
    The caches emptied by `clear`, then `clean` with its entry `cell` set to
    `value` put under rmatrix's `key`, so every route reads the corrupted
    matrix; on exit `clear` runs again, so nothing built from it outlives the
    block.  The default empties every cache; `clear=rmatrix.clear_cache`
    leaves the other modules' caches in place, to show they hold nothing
    built from rmatrix's table.
    """
    clear()
    rmatrix._cache[key] = Operator(clean.shape_in, clean.shape_out, {**clean.entries, cell: value})
    try:
        yield
    finally:
        clear()
