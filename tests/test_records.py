"""The value records StatRecord, TransferTrace, DomainSpec and
ColoredPermutation, and the value types SignedPermutation, SignedCycle,
CycleNotation and DescentSet: their text, equality, hashing and
immutability."""

import copy
import pickle

import numpy as np
import pytest

from cyclic_descents.colored import ColoredPermutation
from cyclic_descents.cycles import CycleNotation, SignedCycle, _images_to_word
from cyclic_descents.domains import DomainSpec, iterate
from cyclic_descents.permutations import Record, SignedPermutation
from cyclic_descents.statistics import DescentSet, StatRecord
from cyclic_descents.transfer import TransferTrace, phi_plus, psi_plus


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
    # n is the degree, read from the images
    (lambda: SignedPermutation([2, -1, 3]), dict(images=(2, -1, 3), n=3),
     SignedPermutation([2, 1, 3])),
    (lambda: SignedCycle([3, -1]), dict(entries=(3, -1)), SignedCycle([-1, 3])),
    (lambda: CycleNotation(3, [[3, -1], [2]]),
     dict(n=3, cycles=(SignedCycle([3, -1]), SignedCycle([2]))),
     CycleNotation(3, [[2], [3, -1]])),
    (lambda: DescentSet(3, [0, 2]), dict(n=3, mask=5), DescentSet(4, [0, 2])),
], ids=["stat", "domain", "domain-color", "colored", "permutation", "cycle",
        "notation", "descents"])
def test_frozen_records_are_values(make, fields, other):
    a, b = make(), make()
    assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
    values = tuple(fields.values())
    assert a != other and a != values and values != a
    in_set, in_dict = {a}, {a: "kept"}
    for name, value in fields.items():
        assert getattr(a, name) == value
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b and a in in_set and in_dict[a] == "kept"
    copies = [copy.copy(a)] + [pickle.loads(pickle.dumps(a, protocol))
                               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert type(c) is type(a) and c == a and hash(c) == hash(a)
        assert repr(c) == repr(a) and str(c) == str(a)


@pytest.mark.parametrize("images", [(), (1,), (-1,), (2, -1, 3), [3, 1, -2, 4]])
def test_trusted_permutations_equal_checked_ones(images):
    a, b = SignedPermutation._trusted(images), SignedPermutation(images)
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a.images == b.images == tuple(images) and a.n == b.n == len(images)


@pytest.mark.parametrize("make, values", [
    (SignedCycle, ((3, -1),)),
    (CycleNotation, (3, (SignedCycle([3, -1]), SignedCycle([2])))),
    (DomainSpec, ("CSnr", 3, 2, 1)),
    (ColoredPermutation, (2, 2, (2, 1), (0, 1))),
    (StatRecord, (2, 3, 3, 9)),
], ids=["cycle", "notation", "domain", "colored", "stat"])
def test_trusted_records_equal_checked_ones(make, values):
    a, b = make._trusted(*values), make(*values)
    assert type(a) is make and a == b and hash(a) == hash(b) and repr(a) == repr(b)


def _held(x):
    """Every field value a record holds, through tuples and nested records."""
    if isinstance(x, (Record, tuple)):
        for v in x.__reduce__()[1] if isinstance(x, Record) else x:
            yield from _held(v)
    else:
        yield x


@pytest.mark.parametrize("make, want", [
    (lambda: SignedPermutation([np.int64(2), 1]), "SignedPermutation([2, 1])"),
    (lambda: SignedPermutation([True, -2]), "SignedPermutation([1, -2])"),
    (lambda: SignedCycle([np.int64(3), -1]), "SignedCycle([3, -1])"),
    (lambda: CycleNotation(np.int64(2), [(np.int64(1), 2)]), "CycleNotation(2, [[1, 2]])"),
    (lambda: ColoredPermutation(np.int64(2), np.int64(2), (np.int64(2), 1), (True, 0)),
     "ColoredPermutation(n=2, r=2, omega=(2, 1), tau=(1, 0))"),
    (lambda: DescentSet(np.int64(3), np.int64(5)), "DescentSet(3, [0, 2])"),
    (lambda: DescentSet(3, [np.int64(0), 2]), "DescentSet(3, [0, 2])"),
    (lambda: StatRecord(np.int64(2), 3, 3, 9), "StatRecord(des=2, maj=3, neg=3, fmaj=9)"),
    (lambda: SignedPermutation([1.0]), "image 1.0 is not an integer"),
    (lambda: SignedCycle([1.0]), "entry 1.0 is not an integer"),
    (lambda: ColoredPermutation(2, 2, (1, 2), (0.0, 1)), "color 0.0 is not an integer"),
    (lambda: DescentSet(3, [0.0]), "member 0.0 is not an integer"),
], ids=["permutation-numpy", "permutation-bool", "cycle", "notation", "colored",
        "descents-mask", "descents-members", "stat", "permutation-float", "cycle-float",
        "colored-float", "descents-float"])
def test_records_read_integer_fields_as_ints(make, want):
    # a numpy integer or a bool is stored as the int it stands for, and a
    # float is refused
    if want.endswith("is not an integer"):
        with pytest.raises(TypeError, match=f"^{want}$"):
            make()
        return
    rec = make()
    assert repr(rec) == want
    assert all(type(v) is int for v in _held(rec))


def test_trace_snapshots_equal_checked_notations():
    # the snapshots are built unchecked from the rewriting's own entries
    runs = [(phi_plus, p) for n in range(1, 7) for p in iterate(DomainSpec("CB", n))
            if _images_to_word(p.images)[-1] == n]
    runs += [(psi_plus, s) for n in range(5) for s in iterate(DomainSpec("B", n))]
    snaps = 0
    for run, x in runs:
        t = TransferTrace()
        run(x, trace=t)
        for _, snap, _ in t.iterations:
            checked = CycleNotation(snap.n, [c.entries for c in snap.cycles])
            assert snap == checked and hash(snap) == hash(checked)
            assert all(type(c) is SignedCycle for c in snap.cycles)
            assert type(snap.cycles) is tuple
            snaps += 1
    assert snaps > 1000


def test_transfer_traces_keep_their_own_list():
    a, b = TransferTrace(), TransferTrace()
    a.iterations.append((1, None, []))
    assert b.iterations == [] and a != b
    assert TransferTrace() == TransferTrace() and TransferTrace() != ([],)
    assert TransferTrace([(1, None, [])]) == a
    with pytest.raises(TypeError):
        hash(b)
