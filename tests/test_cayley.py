"""Enumeration, element-table columns, normal subgroups and commutator sets against oracles.

``ElementTable.mult`` replays the word of its second argument over the
generator columns, one product at a time; it is the oracle for the columns
that are filled in one pass along a spanning tree.
"""

import random

import pytest

from conftest import (
    class_hits_oracle,
    class_partition_oracle,
    commutator,
    commutator_set_all_pairs,
    key_orbit_oracle,
    normal_closure_set_oracle,
    normal_subgroup_sets_oracle,
    small_corpus,
    subgroup_closure_oracle,
    subgroup_columns_oracle,
)
from gategroups import groups
from gategroups.cayley import ElementTable
from gategroups.claims import Evaluator
from gategroups.perm import PermGroup, Permutation
from gategroups.structure import center, coset_action, derived_subgroup


def _c1_mod_center():
    c1 = Evaluator().group("c1")
    return coset_action(c1, center(c1))


# (name, function returning the group); the last two tables index their elements in another order
# than their spanning trees visit them
TABLES = [(name, lambda g=g: g) for name, g in small_corpus()] + [
    ("C1", lambda: Evaluator().group("c1")),
    ("A5inS5", lambda: derived_subgroup(groups.symmetric(5))),  # a subgroup table
    ("C1modZ", _c1_mod_center),  # a table on the cosets of Z(C1)
]


@pytest.mark.parametrize("name, build", TABLES, ids=[n for n, _ in TABLES])
def test_columns_match_products(name, build):
    table = build().own_table()
    n, mult = table.n, table.mult
    for j in sorted({0, 1, n // 3, n // 2, n - 1, *table.gen_indices}):
        assert table.column(j) == [mult(i, j) for i in range(n)]
        assert table.lcolumn(j) == [mult(j, i) for i in range(n)]
        conj = table.conj_column(j)
        # x_i^-1 x_j x_i is the element c with x_i c = x_j x_i
        assert [mult(i, conj[i]) for i in range(n)] == [mult(j, i) for i in range(n)]
        # the lazy forms, read from the far end of the table first
        for lazy, full in ((table.lazy_column(j), table.column(j)), (table.lazy_conj_column(j), conj)):
            assert [lazy[i] for i in reversed(range(n))][::-1] == full
    inv = table.inverses()
    assert all(mult(i, inv[i]) == 0 for i in range(n))


@pytest.mark.parametrize("name, build", TABLES, ids=[n for n, _ in TABLES])
def test_list_products_match_mult(name, build):
    """``products`` on both sides, over lists with repeats and out of order."""
    table = build().own_table()
    n, mult = table.n, table.mult
    lists = [list(range(n)), [n - 1, 0, n // 2, n - 1, 0], []]
    for j in sorted({0, 1, n // 3, n // 2, n - 1, *table.gen_indices}):
        for xs in lists:
            assert table.products(j, xs) == [mult(x, j) for x in xs]
            assert table.products(j, xs, left=True) == [mult(j, x) for x in xs]


def test_tree_order_differs_from_index_order():
    """The corpus holds tables whose spanning trees visit indices out of order."""
    build = dict(TABLES)
    for name in ("A5inS5", "C1modZ"):
        table = build[name]().own_table()
        assert table._ensure_left_tree()[0] != list(range(table.n)), name
    table = build["A5inS5"]().own_table()
    assert table._ensure_tree()[0] != list(range(table.n))


def _generators_and_base(group):
    return [g.imgs for g in group.generators], group.stabilizer_chain().base()


def _table_perms_and_base(table):
    return table._perms, table._base


def _quotient_of_c2wrs5_by_its_center():
    group = groups.wreath(groups.cyclic(2), groups.symmetric(5))
    quotient, _, _ = group.own_table().coset_action(group.indices_of(center(group)))
    return _table_perms_and_base(quotient)


# functions returning generator tuples and base points, by test id
ENUMERATIONS = [
    pytest.param(lambda g=g: _generators_and_base(g), id=name) for name, g in small_corpus()
] + [
    pytest.param(  # an empty base
        lambda: _generators_and_base(PermGroup(3, [Permutation.identity(3)])), id="trivial"
    ),
    pytest.param(lambda: ([(0,)], [0]), id="degree1"),
    pytest.param(_quotient_of_c2wrs5_by_its_center, id="C2wrS5modZ"),  # one base point, 1920 cosets
    pytest.param(lambda: _table_perms_and_base(Evaluator().group("c1").own_table()), id="C1rows"),
    pytest.param(
        lambda: _table_perms_and_base(Evaluator().group("c2").own_table()),
        id="C2rows",
        marks=pytest.mark.long,
    ),
]


@pytest.mark.parametrize("build", ENUMERATIONS)
def test_enumeration_matches_the_key_orbit_oracle(build):
    """Same keys in the same order, same columns and same classes as one action per generator."""
    perms, base = build()
    cap = 10**6
    table = ElementTable.from_permutations(perms, base, cap)
    index, columns = key_orbit_oracle(perms, base, cap)
    assert list(table.key_index.items()) == list(index.items())
    assert table._rmul == columns
    assert table.class_partition() == class_partition_oracle(table)
    for key, i in list(index.items())[:: max(1, table.n // 100)]:
        perm = table.perm_of(i)
        assert sorted(perm) == list(range(len(perms[0])))
        assert tuple(perm[b] for b in base) == key


C2_SQUARED = groups.direct(groups.cyclic(2), groups.cyclic(2))
C2_WR_S5 = groups.wreath(groups.cyclic(2), groups.symmetric(5))
NORMAL_CASES = small_corpus() + [
    ("C2^2wrS4", groups.wreath(C2_SQUARED, groups.symmetric(4))),
    ("C2wrS5", C2_WR_S5),
]


@pytest.mark.parametrize("name, group", NORMAL_CASES, ids=[n for n, _ in NORMAL_CASES])
def test_normal_subgroup_sets_match_the_closing_oracle(name, group):
    """Same member sets and generator lists, in the same order, as closing every join."""
    table = group.own_table()
    assert table.normal_subgroup_sets() == normal_subgroup_sets_oracle(table)


@pytest.mark.parametrize("name, group", NORMAL_CASES, ids=[n for n, _ in NORMAL_CASES])
def test_normal_subgroup_sets_are_normal_unions_of_classes(name, group):
    """Each result, checked without ``normal_closure_set``: a union of classes,
    the subgroup its generators generate, and normal."""
    table = group.own_table()
    class_of, _, sizes = table.class_partition()
    results = table.normal_subgroup_sets()
    for members, gens in results:
        classes = {class_of[i] for i in members}
        assert len(members) == sum(sizes[c] for c in classes), name
        assert table.subgroup_closure(gens) == members, name
        assert table.is_normal_set(members, gens), name
    orders = [len(members) for members, _ in results]
    assert orders == sorted(orders) and orders[0] == 1 and orders[-1] == table.n
    assert len({frozenset(members) for members, _ in results}) == len(results)


@pytest.mark.parametrize("name, group", NORMAL_CASES, ids=[n for n, _ in NORMAL_CASES])
def test_class_hits_match_the_full_column_oracle(name, group):
    table = group.own_table()
    assert table.class_hits() == class_hits_oracle(table)


@pytest.mark.parametrize("name, group", NORMAL_CASES, ids=[n for n, _ in NORMAL_CASES])
def test_subgroup_tables_match_parent_columns(name, group):
    """The generator columns of every normal subgroup's table, against whole parent columns."""
    table = group.own_table()
    for members, gens in table.normal_subgroup_sets():
        sub = table.subgroup_table(gens, members)
        assert sub._rmul == subgroup_columns_oracle(table, gens, members), name


def test_normal_subgroup_sets_fill_few_columns(monkeypatch):
    """Fewer left columns than conjugacy classes: the class hits fill none."""
    table = C2_WR_S5.own_table()
    _, reps, _ = table.class_partition()  # builds the generators' left columns first
    calls = []
    real = type(table).lcolumn

    def counting(self, j):
        calls.append(j)
        return real(self, j)

    monkeypatch.setattr(type(table), "lcolumn", counting)
    assert len(table.normal_subgroup_sets()) == 9
    assert len(reps) == 36
    assert len(calls) <= len(reps)


QUOTIENTS = [
    ("C1/P1", lambda ev: (ev.group("c1"), ev.group("p1"))),
    ("C2/Z", lambda ev: (ev.group("c2"), center(ev.group("c2")))),
]


@pytest.mark.parametrize("name, build", QUOTIENTS, ids=[n for n, _ in QUOTIENTS])
def test_quotient_columns_follow_the_cosets(name, build):
    """The quotient maps coset c by generator g to the coset of rep_c * g."""
    group, normal = build(Evaluator())
    table = group.own_table()
    quotient, coset_of, reps = table.coset_action(group.indices_of(normal))
    assert quotient.n == len(reps) == table.n // normal.order()
    for k, g in enumerate(table.gen_indices):
        col = table.column(g)
        assert quotient.gen_indices[k] == coset_of[g]
        assert quotient.column(quotient.gen_indices[k]) == [coset_of[col[r]] for r in reps]


def test_commutator_set_all_pairs_m20_against_pairwise_products():
    m20 = derived_subgroup(groups.wreath(groups.cyclic(2), groups.symmetric(5)))
    table = m20.own_table()
    n, mult = table.n, table.mult
    inv = table.inverses()
    brute = {mult(mult(a, b), mult(inv[a], inv[b])) for a in range(n) for b in range(n)}
    assert len(brute) == 840
    assert commutator_set_all_pairs(table) == brute
    assert table.commutator_set_by_classes() == brute


@pytest.mark.parametrize("name, group", small_corpus(), ids=[n for n, _ in small_corpus()])
def test_commutator_set_by_classes_matches_all_pairs(name, group):
    table = group.own_table()
    assert table.commutator_set_by_classes() == commutator_set_all_pairs(table)


def test_derived_data_is_cached_and_immutable():
    table = groups.symmetric(4).own_table()
    members, gens = table.derived_data()
    assert table.derived_data() is table.derived_data()
    assert isinstance(members, frozenset) and isinstance(gens, tuple)
    assert members == table.normal_closure_set(gens)[0] and len(members) == 12
    with pytest.raises(AttributeError):
        members.add(1)
    with pytest.raises(AttributeError):
        gens.append(1)


CLOSURE_CASES = [(name, lambda g=g: g) for name, g in small_corpus()] + [
    ("C2wrS5", lambda: C2_WR_S5),
    ("C2^2wrA5", lambda: groups.wreath(C2_SQUARED, groups.alternating(5))),
    ("C1", lambda: Evaluator().group("c1")),
    ("P2", lambda: Evaluator().group("p2")),
    ("C1modZ", _c1_mod_center),  # a table on the cosets of Z(C1)
]


def _generator_lists(table):
    """The table's generators, lists with the identity, repeats and a
    redundant product, and random picks, all seeded by the order."""
    n = table.n
    rng = random.Random(n)
    a, b = rng.randrange(n), rng.randrange(n)
    lists = [list(table.gen_indices), [], [0], [n - 1, 0, n - 1], [a, table.mult(a, b), b]]
    return lists + [rng.sample(range(n), min(k, n)) for k in (1, 2, 3)]


@pytest.mark.parametrize("name, build", CLOSURE_CASES, ids=[n for n, _ in CLOSURE_CASES])
def test_closures_match_the_left_column_oracles(name, build):
    """Coset-by-coset closures against breadth-first closures on whole left
    columns: the same member sets and the same generator lists, in order,
    and ``subgroup_closure(gens, cap)`` is None exactly when the subgroup
    has more than ``cap`` members: for every cap up to |H| + 1 when
    |H| <= 1000, and for 1, |H| - 1 and |H| above."""
    table = build().own_table()
    for gens in _generator_lists(table):
        members = subgroup_closure_oracle(table, gens)
        assert table.subgroup_closure(gens) == members, (name, gens)
        h = len(members)
        caps = range(1, h + 2) if h <= 1000 else [1, h - 1, h]
        for cap in caps:
            assert (table.subgroup_closure(gens, cap) is None) == (h > cap), (name, gens, cap)
        assert table.normal_closure_set(gens) == normal_closure_set_oracle(table, gens), (name, gens)
    _, reps, _ = table.class_partition()
    for r in reps[1 :: max(1, len(reps) // 8)]:
        assert table.normal_closure_set([r]) == normal_closure_set_oracle(table, [r]), (name, r)
    seeds = [commutator(table, a, b) for a in table.gen_indices for b in table.gen_indices]
    members, gens = normal_closure_set_oracle(table, [c for c in seeds if c])
    assert table.derived_data() == (frozenset(members), tuple(gens)), name


def test_derived_data_and_normal_closures_fill_no_columns(monkeypatch):
    """``derived_data``, ``normal_closure_set`` and ``subgroup_closure`` fill
    no left-multiplication or conjugation column and no inverses."""
    tables = [
        groups.wreath(C2_SQUARED, groups.alternating(5)).own_table(),
        groups.symmetric(6).own_table(),
    ]

    def refuse(self, *args):
        raise AssertionError("filled a whole column")

    for name in ("lcolumn", "_ensure_lmul", "_ensure_conj", "inverses"):
        monkeypatch.setattr(ElementTable, name, refuse)
    for table, derived_order in zip(tables, (15360, 360)):
        assert len(table.derived_data()[0]) == derived_order
        members, gens = table.normal_closure_set([table.n - 1, table.n // 2])
        assert len(members) in (derived_order, table.n) and gens[:2] == [table.n - 1, table.n // 2]
        assert table.subgroup_closure(gens) == members
