"""Optional compiled kernel lane.

The compiled Cython lane (built at install time) serves matrix products,
determinants and compound matrices for moduli q <= MAX_Q, whose products
fit its 64-bit arithmetic.  `impl_for` returns None when the lane is not
built or q is too large; the caller then takes the ring-protocol route in
`matrices`, which is the only route for charpoly and Smith forms.
"""
try:
    from . import _cylane as _compiled
except ImportError:
    _compiled = None


def active_lane() -> str:
    """Name of the lane picked for small moduli ('cython' or 'python')."""
    return "cython" if _compiled is not None else "python"


def impl_for(q: int):
    """The compiled kernel module for modulus q, or None."""
    if _compiled is not None and q <= _compiled.MAX_Q:
        return _compiled
    return None
