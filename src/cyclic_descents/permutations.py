"""Signed permutations and their group operations.

A signed permutation of degree n is a bijection s on {-n,...,-1,1,...,n}
with s(-i) = -s(i).  Only the images of 1..n are stored; the hyperoctahedral
group of all such bijections is written B_n, and D_n is the subgroup whose
one-line notation contains an even number of negative entries.
"""

from __future__ import annotations

import operator


class Record:
    """Frozen value record whose fields are its __slots__, set once by
    Record.__init__.  It equals only a record of its own class with equal
    fields, hashes and pickles by them, and reprs as a dataclass would.

    Every value type of the library derives from it except the `lab` and
    `verify` report dataclasses, which stay dataclasses because the
    benchmark's self-test calls `dataclasses.replace` on them.  Plain
    classes, unlike dataclasses, keep `inspect` out of a cold start."""

    __slots__ = ()

    def __init_subclass__(cls):
        # one C-level read of every field: the value itself for one field,
        # a tuple for several
        cls._fields = operator.attrgetter(*cls.__slots__)

    def __init__(self, *values):
        for name, v in zip(self.__slots__, values):
            object.__setattr__(self, name, v)

    @classmethod
    def _trusted(cls, *values):
        """Build from field values the library produced itself, skipping
        the subclass's checks; the values must already be valid."""
        self = object.__new__(cls)
        for name, v in zip(cls.__slots__, values):
            object.__setattr__(self, name, v)
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class SignedPermutation(Record):
    """Immutable signed permutation stored as a tuple of images of 1..n.

    Degree 0 (the empty permutation) is allowed and acts as the identity
    of the trivial group.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        seen = [False] * (n + 1)
        for v in images:
            if not isinstance(v, int):
                raise TypeError(f"image {v!r} is not an integer")
            a = abs(v)
            if a < 1 or a > n:
                raise ValueError(f"image {v} out of range for degree {n}")
            if seen[a]:
                raise ValueError(f"magnitude {a} repeated in {images}")
            seen[a] = True
        Record.__init__(self, images)

    @classmethod
    def _trusted(cls, images):
        """Build from images the library produced itself, skipping the
        checks of __init__; the images must already be a signed
        permutation."""
        # not through Record._trusted: iterate builds one per element, and
        # the generic path makes iterate over B(7) about 60 % slower
        self = object.__new__(cls)
        object.__setattr__(self, "images", tuple(images))
        return self

    @property
    def n(self):
        """The degree, read from the images rather than stored beside them."""
        return len(self.images)

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    def __call__(self, i):
        """Apply to any i with 1 <= |i| <= n, honoring s(-i) = -s(i)."""
        a = abs(i)
        if a < 1 or a > self.n:
            raise ValueError(f"argument {i} out of range for degree {self.n}")
        v = self.images[a - 1]
        return v if i > 0 else -v

    def __mul__(self, other):
        """Composition self*other, applied right to left."""
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} != {other.n}")
        return SignedPermutation(self(v) for v in other.images)

    def inverse(self):
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            if v > 0:
                inv[v - 1] = i
            else:
                inv[-v - 1] = -i
        return SignedPermutation(inv)

    def negate_all(self):
        """Left-multiply by [-1,-2,...,-n]: negate every image."""
        return SignedPermutation(-v for v in self.images)

    def times_neg1(self):
        """Left-multiply by [-1,2,...,n]: flip the sign of the image +-1."""
        return SignedPermutation(-v if abs(v) == 1 else v for v in self.images)

    def negative_count(self):
        return sum(1 for v in self.images if v < 0)

    def in_D(self):
        return self.negative_count() % 2 == 0

    def __len__(self):
        return len(self.images)

    def __repr__(self):
        return f"SignedPermutation({list(self.images)})"

    def __str__(self):
        return "[" + ",".join(str(v) for v in self.images) + "]"


def compose(pi: SignedPermutation, sigma: SignedPermutation) -> SignedPermutation:
    """Composition pi*sigma: the result maps i to pi(sigma(i))."""
    return pi * sigma
