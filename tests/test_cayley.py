"""Enumeration, element-table columns, normal subgroups and commutator sets against oracles.

``ElementTable.mult`` replays the word of its second argument over the
generator columns, one product at a time; it is the oracle for the columns
that are filled in one pass along a spanning tree.
"""

import random

import pytest

from conftest import (
    center_set_oracle,
    class_hits_oracle,
    class_partition_oracle,
    commutator,
    commutator_set_all_pairs,
    coset_quotient_oracle,
    is_normal_set_oracle,
    key_orbit_oracle,
    normal_closure_set_oracle,
    normal_subgroup_sets_oracle,
    small_corpus,
    subgroup_closure_oracle,
    subgroup_columns_oracle,
)
from gategroups import cayley, groups
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
        # the lazy forms, read from the far end of the table first
        lazy = table.lazy_column(j)
        assert [lazy[i] for i in reversed(range(n))][::-1] == table.column(j)
        conj = table.lazy_conj_column(j)
        # x_i^-1 x_j x_i is the element c with x_i c = x_j x_i
        assert [mult(i, conj[i]) for i in reversed(range(n))][::-1] == [mult(j, i) for i in range(n)]
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
    pytest.param(lambda: ([tuple(range(300))], []), id="trivial300"),  # an empty base, tuple keys
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
    """Same keys in the same order, same columns and same classes as one action per generator,
    and the spanning tree of the enumeration is the one its columns give."""
    perms, base = build()
    cap = 10**6
    table = ElementTable.from_permutations(perms, base, cap)
    index, columns = key_orbit_oracle(perms, base, cap)
    assert list(zip(table.base_images(), table.key_index.values())) == list(index.items())
    assert table._rmul == columns
    order, prev, genpos = table._bfs
    assert (list(order), prev, genpos) == cayley._spanning_tree(columns)
    assert table.class_partition() == class_partition_oracle(table)
    for key, i in list(index.items())[:: max(1, table.n // 100)]:
        perm = table.perm_of(i)
        assert sorted(perm) == list(range(len(perms[0])))
        assert tuple(perm[b] for b in base) == key


@pytest.mark.parametrize("name, group", small_corpus(), ids=[n for n, _ in small_corpus()])
def test_tuple_keys_above_256_points_match_byte_keys(name, group):
    """The generators padded with fixed points to degree 257 are keyed by tuples, not bytes,
    and give the same table: columns, tree, classes, base images and ``index_of``."""
    perms, base = _generators_and_base(group)
    padded = [p + tuple(range(len(p), 257)) for p in perms]
    small = ElementTable.from_permutations(perms, base, 10**6)
    big = ElementTable.from_permutations(padded, base, 10**6)
    assert type(next(iter(small.key_index))) is bytes
    assert type(next(iter(big.key_index))) is tuple
    assert big._rmul == small._rmul
    assert big._bfs == small._bfs
    assert big.class_partition() == small.class_partition()
    assert list(big.base_images()) == list(small.base_images())
    for i in range(0, small.n, max(1, small.n // 50)):
        perm = small.perm_of(i)
        assert big.index_of(perm + tuple(range(len(perm), 257))) == small.index_of(perm) == i
    for table in (small, big):
        assert table.key_of([None] * len(base)) is None
        assert table.key_of([300] * len(base)) not in table.key_index
        with pytest.raises(ValueError):
            table.index_of((0,) * len(table._perms[0]))


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
        assert table.is_normal_set(members), name
    orders = [len(members) for members, _ in results]
    assert orders == sorted(orders) and orders[0] == 1 and orders[-1] == table.n
    assert len({frozenset(members) for members, _ in results}) == len(results)


@pytest.mark.parametrize("name, group", NORMAL_CASES, ids=[n for n, _ in NORMAL_CASES])
def test_class_hits_match_the_full_column_oracle(name, group):
    """The sampled class hits are sound against the full-column oracle:
    every class a sampled hit finds is a product class of its pair, in
    either order."""
    table = group.own_table()
    hit = table._sampled_hits(table.class_members())
    oracle = class_hits_oracle(table)
    k = len(oracle)
    for c in range(k):
        for a in range(k):
            assert hit(c, a) & ~oracle[c][a] == 0, (name, c, a)


@pytest.mark.parametrize("name, group", NORMAL_CASES, ids=[n for n, _ in NORMAL_CASES])
def test_normal_subgroup_sets_certify_with_no_sampled_hits(name, group, monkeypatch):
    """With no class member sampled, every class closure is certified by
    ``normal_closure_set`` and every join by ``subgroup_closure``, and the
    lattice still equals the closing oracle."""
    table = group.own_table()
    _, reps, _ = table.class_partition()
    closures, joins = [], []
    real_normal, real_subgroup = ElementTable.normal_closure_set, ElementTable.subgroup_closure

    def normal(self, seeds):
        members, gens = real_normal(self, seeds)
        closures.append(frozenset(members))
        return members, gens

    def subgroup(self, gens, cap=None):
        joins.append(gens)
        return real_subgroup(self, gens, cap)

    monkeypatch.setattr(cayley, "_SAMPLE", 0)
    monkeypatch.setattr(ElementTable, "normal_closure_set", normal)
    monkeypatch.setattr(ElementTable, "subgroup_closure", subgroup)
    results = table.normal_subgroup_sets()
    assert len(closures) == len(reps) - 1
    # each result that is no class closure came from a certified join (V4 has one)
    assert len(joins) >= len(results) - 1 - len(set(closures))
    monkeypatch.undo()
    assert results == normal_subgroup_sets_oracle(table)


@pytest.mark.long
def test_normal_subgroup_sets_of_c2_wr_s6_match_the_closing_oracle():
    table = groups.wreath(groups.cyclic(2), groups.symmetric(6)).own_table()
    assert table.n == 46080
    results = table.normal_subgroup_sets()
    assert len(results) == 9
    assert results == normal_subgroup_sets_oracle(table)


@pytest.mark.parametrize("name, group", NORMAL_CASES, ids=[n for n, _ in NORMAL_CASES])
def test_subgroup_tables_match_parent_columns(name, group):
    """The generator columns of every normal subgroup's table, against whole parent columns."""
    table = group.own_table()
    for members, gens in table.normal_subgroup_sets():
        sub = table.subgroup_table(gens, members)
        assert sub._rmul == subgroup_columns_oracle(table, gens, members), name


def test_normal_subgroup_sets_fill_few_columns(monkeypatch):
    """Fewer left columns than conjugacy classes: the sampled hits fill none."""
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


# (name, function of an Evaluator returning a group) for the tables of the gate groups
GATE_TABLES = [
    ("C1", lambda ev: ev.group("c1")),
    ("B2", lambda ev: ev.group("b2")),
    ("C2", lambda ev: ev.group("c2")),
]
CENTER_CASES = [(name, lambda ev, g=g: g) for name, g in small_corpus()] + GATE_TABLES


@pytest.mark.parametrize("name, build", CENTER_CASES, ids=[n for n, _ in CENTER_CASES])
def test_center_set_matches_the_all_scan_oracle(name, build):
    table = build(Evaluator()).own_table()
    assert list(table.center_set()) == center_set_oracle(table)
    assert table.center_set() is table.center_set()  # cached


def _normal_pairs_of_the_corpus():
    """Each corpus group and its derived subgroup, a table in sorted member
    order, with every normal subgroup."""
    for name, group in small_corpus():
        for label, table in ((name, group.own_table()), (f"{name}'", derived_subgroup(group).own_table())):
            for members, _ in table.normal_subgroup_sets():
                yield f"{label}/{len(members)}", table, members


def _gate_quotients():
    ev = Evaluator()
    c2, b2, p2 = ev.group("c2"), ev.group("b2"), ev.group("p2")
    for name, group, normal in (
        ("C2/Z", c2, center(c2)),
        ("C2/P2", c2, p2),
        ("B2/Z", b2, center(b2)),
        ("B2/P2", b2, p2),
    ):
        yield name, group.own_table(), group.indices_of(normal)


def test_quotient_tables_match_from_permutations():
    """The table the coset search builds, field by field, against enumerating
    its action on the cosets again with ``from_permutations``."""
    cases = list(_normal_pairs_of_the_corpus()) + list(_gate_quotients())
    for name, table, members in cases:
        quotient, coset_of, reps = table.coset_action(members)
        expected, expected_coset_of, expected_reps = coset_quotient_oracle(table, members)
        assert (coset_of, reps) == (expected_coset_of, expected_reps), name
        assert quotient.n == expected.n, name
        assert quotient._rmul == expected._rmul, name
        assert quotient.gen_indices == expected.gen_indices, name
        assert list(quotient.base_images()) == list(expected.base_images()), name
        assert list(quotient.key_index.values()) == list(range(quotient.n)), name
        assert quotient._perms == expected._perms and quotient._base == expected._base, name
        assert quotient._bfs == expected._bfs, name
    assert {name for name, _, _ in cases} >= {"C2/Z", "C2/P2", "B2/Z", "S4/4", "A4/4"}


@pytest.mark.parametrize("name, group", small_corpus(), ids=[n for n, _ in small_corpus()])
def test_is_normal_set_matches_the_conjugation_oracle(name, group):
    """Every normal subgroup and every cyclic subgroup, normal or not."""
    table = group.own_table()
    subs = [members for members, _ in table.normal_subgroup_sets()]
    subs += [table.subgroup_closure([x]) for x in range(0, table.n, max(1, table.n // 60))]
    verdicts = set()
    for members in subs:
        expected = is_normal_set_oracle(table, members, [i for i in members if i])
        assert table.is_normal_set(members) == expected, (name, sorted(members))
        verdicts.add(expected)
    if name in ("S3", "S4", "S5", "A4", "D8"):
        assert verdicts == {True, False}, name


def test_is_normal_set_in_c2_matches_the_conjugation_oracle():
    ev = Evaluator()
    c2 = ev.group("c2")
    table = c2.own_table()
    for sub, normal in ((center(c2), True), (ev.group("p2"), True), (ev.group("b2"), False)):
        members = c2.indices_of(sub)
        assert is_normal_set_oracle(table, members, [i for i in members if i]) is normal
        assert table.is_normal_set(members) is normal


def _refuse_whole_columns(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("filled a whole column")

    for name in ("column", "lcolumn", "_ensure_lmul", "_ensure_left_tree"):
        monkeypatch.setattr(ElementTable, name, refuse)


@pytest.mark.parametrize("name, group", small_corpus(), ids=[n for n, _ in small_corpus()])
def test_order_of_matches_permutation_order(name, group, monkeypatch):
    table = group.own_table()
    _refuse_whole_columns(monkeypatch)
    assert [table.order_of(i) for i in range(table.n)] == [
        Permutation(table.perm_of(i)).order() for i in range(table.n)
    ]


def test_order_of_on_c2_class_representatives(monkeypatch):
    """Orders up to 24 on the 92160-element table, with no whole column filled."""
    table = Evaluator().group("c2").own_table()
    _, reps, _ = table.class_partition()
    _refuse_whole_columns(monkeypatch)
    orders = [table.order_of(r) for r in reps]
    assert orders == [Permutation(table.perm_of(r)).order() for r in reps]
    assert len(reps) == 118 and max(orders) >= 5
