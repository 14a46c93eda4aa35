"""The value records StatRecord, TransferTrace, DomainSpec and
ColoredPermutation: their text, equality, hashing and immutability."""

import copy
import pickle

import pytest

from cyclic_descents.colored import ColoredPermutation
from cyclic_descents.domains import DomainSpec, iterate
from cyclic_descents.permutations import SignedPermutation
from cyclic_descents.statistics import StatRecord
from cyclic_descents.transfer import TransferTrace, phi_plus


def traced():
    t = TransferTrace()
    phi_plus(SignedPermutation([4, 3, 1, -2]), trace=t)
    return t


@pytest.mark.parametrize("rec, text, shown", [
    (StatRecord(des=2, maj=3, neg=3, fmaj=9),
     "StatRecord(des=2, maj=3, neg=3, fmaj=9)", None),
    (TransferTrace(), "TransferTrace(iterations=[])", None),
    (traced(), "TransferTrace(iterations=[(1, CycleNotation(3, [[-2], [3, 1]]), "
     "[(-2, 3, (0, 1))]), (2, CycleNotation(3, [[-3], [2, 1]]), [])])", None),
    (DomainSpec("CB", 3), "DomainSpec(kind='CB', n=3, r=None, color_filter=None)",
     "CB(n=3)"),
    (DomainSpec("CSnr", 3, r=2),
     "DomainSpec(kind='CSnr', n=3, r=2, color_filter=None)", "CSnr(n=3,r=2)"),
    (DomainSpec("CSnr", 3, r=2, color_filter=1),
     "DomainSpec(kind='CSnr', n=3, r=2, color_filter=1)", "CSnr(n=3,r=2,color=1)"),
    (ColoredPermutation(3, 2, (2, 3, 1), (0, 1, 1)),
     "ColoredPermutation(n=3, r=2, omega=(2, 3, 1), tau=(0, 1, 1))", "[2,3^1,1^1]"),
    # built without the checks, by iterate
    (next(iterate(DomainSpec("CSnr", 2, r=2, color_filter=1))),
     "ColoredPermutation(n=2, r=2, omega=(2, 1), tau=(0, 1))", "[2,1^1]"),
], ids=["stat", "trace", "trace-filled", "domain", "domain-r", "domain-color",
        "colored", "colored-iterate"])
def test_text_is_pinned(rec, text, shown):
    assert repr(rec) == text
    assert str(rec) == (text if shown is None else shown)


@pytest.mark.parametrize("make, fields, other", [
    (lambda: StatRecord(2, 3, 3, 9), dict(des=2, maj=3, neg=3, fmaj=9),
     StatRecord(2, 3, 3, 8)),
    (lambda: DomainSpec("CB", 3), dict(kind="CB", n=3, r=None, color_filter=None),
     DomainSpec("CD", 3)),
    (lambda: DomainSpec("CSnr", 3, r=2, color_filter=1),
     dict(kind="CSnr", n=3, r=2, color_filter=1), DomainSpec("CSnr", 3, r=2)),
    (lambda: ColoredPermutation(2, 2, (2, 1), (0, 1)),
     dict(n=2, r=2, omega=(2, 1), tau=(0, 1)),
     ColoredPermutation(2, 2, (2, 1), (1, 0))),
], ids=["stat", "domain", "domain-color", "colored"])
def test_frozen_records_are_values(make, fields, other):
    a, b = make(), make()
    assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
    values = tuple(fields.values())
    assert a != other and a != values and values != a
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    for name, value in fields.items():
        assert getattr(a, name) == value
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_transfer_traces_keep_their_own_list():
    a, b = TransferTrace(), TransferTrace()
    a.iterations.append((1, None, []))
    assert b.iterations == [] and a != b
    assert TransferTrace() == TransferTrace() and TransferTrace() != ([],)
    assert TransferTrace([(1, None, [])]) == a
    with pytest.raises(TypeError):
        hash(b)
