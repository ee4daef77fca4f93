"""The base of the package's records, and their one JSON form.

A record is a named tuple subclass with __slots__ = (): immutable,
cheap to build, with the repr Name(field=value, ...).  Listing Record
first among the bases makes equality per type, so a SignMatrix never
equals an IncidenceMatrix, or a plain tuple, with the same fields.
"""

from fractions import Fraction


class Record:
    __slots__ = ()

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        # tuple's own comparison would match any tuple with the same items
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = tuple.__hash__


def _jint(x):
    """x for JSON: an integer past exact double range goes out as a string."""
    return x if -(2**53) < x < 2**53 else str(x)


def json_fields(record, rename=None, drop=()):
    """The record's fields as a JSON object, less those named in drop: lam
    is spelled lambda and other names as rename maps them, ints go out
    through _jint (bools unchanged) and Fractions as text."""
    names = {"lam": "lambda", **(rename or {})}
    out = {}
    for key, value in record._asdict().items():
        if key in drop:
            continue
        if isinstance(value, int):
            value = _jint(value)
        elif isinstance(value, Fraction):
            value = str(value)
        out[names.get(key, key)] = value
    return out
