"""The base of the package's records.

A record is a named tuple subclass with __slots__ = (): immutable,
cheap to build, with the repr Name(field=value, ...).  Listing Record
first among the bases makes equality per type, so a SignMatrix never
equals an IncidenceMatrix, or a plain tuple, with the same fields.
"""


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
