"""Isomorphism witnesses, automorphism groups, commutator sets, complements."""

import itertools
import random

import pytest

from conftest import (
    commutator_set_all_pairs,
    conj_by_gen,
    leaf_count_automorphisms,
    search_compatible_oracle,
    small_corpus,
    subgroup_closure_oracle,
)
from gategroups import groups, isomorphism, perm
from gategroups.cayley import ElementTable
from gategroups.claims import Evaluator
from gategroups.errors import CapacityError
from gategroups.isomorphism import (
    _first_leaf,
    _hom_image,
    _min_generating_sequence,
    _Search,
    automorphism_group,
    commutator_set,
    find_complement,
    is_perfect,
    isomorphic,
)
from gategroups.perm import PermGroup, Permutation
from gategroups.structure import center, derived_subgroup, normal_closure


def test_iso_basic():
    assert not isomorphic(groups.cyclic(4), groups.direct(groups.cyclic(2), groups.cyclic(2)))
    assert isomorphic(groups.cyclic(6), groups.direct(groups.cyclic(2), groups.cyclic(3)))
    assert isomorphic(groups.dihedral(12), groups.direct(groups.cyclic(2), groups.symmetric(3)))
    assert not isomorphic(groups.dihedral(8), groups.quaternion8())


def test_iso_witness_is_a_homomorphism():
    res = isomorphic(groups.dihedral(12), groups.direct(groups.cyclic(2), groups.symmetric(3)))
    assert res.isomorphic
    g = groups.dihedral(12)
    h = groups.direct(groups.cyclic(2), groups.symmetric(3))
    tg, th = g.own_table(), h.own_table()
    seq = [g.index_of(p) for p in res.generators]
    images = [h.index_of(p) for p in res.images]
    img = _hom_image([tg.column(x) for x in seq], [th.column(y) for y in images])
    assert img is not None  # bijective homomorphism on the full table


def test_iso_different_orders_short_circuit():
    assert not isomorphic(groups.cyclic(4), groups.cyclic(8))


def test_iso_capacity():
    big = groups.wreath(groups.cyclic(2), groups.symmetric(5))
    huge = groups.direct(big, groups.cyclic(7))  # order 26880 > cap
    with pytest.raises(CapacityError):
        isomorphic(huge, huge)


def slow_automorphism_count(table):
    """Oracle: exhaust images of a minimal generating sequence, pruning
    only by element order."""
    seq = _min_generating_sequence(table)
    if not seq:
        return 1
    orders = table.element_orders()
    cands = [[j for j in range(table.n) if orders[j] == orders[x]] for x in seq]
    gcols = [table.column(x) for x in seq]
    count = 0
    for combo in itertools.product(*cands):
        if _hom_image(gcols, [table.column(y) for y in combo]) is not None:
            count += 1
    return count


def test_aut_examples():
    assert automorphism_group(groups.direct(groups.cyclic(2), groups.cyclic(2))).order == 6
    assert automorphism_group(groups.quaternion8()).order == 24
    assert automorphism_group(groups.cyclic(8)).order == 4
    assert automorphism_group(groups.symmetric(3)).order == 6


def test_aut_against_slow_oracle_up_to_64():
    cases = [group for _, group in small_corpus() if group.order() <= 64] + [
        groups.direct(groups.cyclic(2), groups.quaternion8()),
        groups.wreath(groups.cyclic(2), groups.cyclic(2)),
    ]
    for g in cases:
        assert g.order() <= 64
        table = g.own_table()
        fast = automorphism_group(g)
        slow = slow_automorphism_count(table)
        assert fast.order == slow
        # the lazily built group: its order recomputed from scratch (no
        # known-order shortcut), every generator a bijective homomorphism
        assert PermGroup(fast.group.degree, fast.group.generators).order() == slow
        for gen in fast.group.generators:
            p = gen.imgs
            assert sorted(p) == list(range(table.n))
            for i in range(table.n):
                for j in range(table.n):
                    assert p[table.mult(i, j)] == table.mult(p[i], p[j])


def _is_automorphism(table, img):
    """Whether an image array is a bijective homomorphism of the table's group."""
    if sorted(img) != list(range(table.n)):
        return False
    for s in table.gen_indices:
        col, image_col = table.column(s), table.column(img[s])
        if any(img[col[i]] != image_col[img[i]] for i in range(table.n)):
            return False
    return True


def test_aut_against_leaf_count_oracle():
    ev = Evaluator()
    cases = [(name, g) for name, g in small_corpus() if g.order() <= 384] + [
        ("C2^4", groups.direct(*[groups.cyclic(2)] * 4)),
        ("C1", ev.group("c1")),
        ("P2", ev.group("p2")),
        ("S6", groups.symmetric(6)),
        ("A6", groups.alternating(6)),
    ]
    for name, g in cases:
        table = g.own_table()
        aut = automorphism_group(g, extended=True)
        assert (aut.order, aut.inner_order) == leaf_count_automorphisms(table), name
        # the generators are automorphisms, and they generate all of Aut(G):
        # the order is recomputed from scratch, with no known-order shortcut
        assert all(_is_automorphism(table, img) for img in aut.generators), name
        assert PermGroup(table.n, aut.generators).order() == aut.order, name


def test_first_leaf_answers_every_prefix():
    """A leaf is found below a chosen prefix of images iff some automorphism
    extends the prefix.  The brute-force answer tries every image tuple,
    pruned only by element order; C2 wr S3 and C4 wr C2 have prefixes that
    a search conjugating by the whole centralizer of the earlier images,
    not of the prefix, wrongly refutes."""
    cases = [g for _, g in small_corpus() if g.order() <= 120] + [
        groups.wreath(groups.cyclic(4), groups.cyclic(2)),
    ]
    for g in cases:
        table = g.own_table()
        seq = _min_generating_sequence(table)
        orders = table.element_orders()
        gcols = [table.column(x) for x in seq]
        extends = set()
        for combo in itertools.product(
            *[[j for j in range(table.n) if orders[j] == orders[x]] for x in seq]
        ):
            if _hom_image(gcols, [table.column(y) for y in combo]) is not None:
                extends.update(combo[:d] for d in range(1, len(seq) + 1))

        search = _Search(table, table, seq)
        cands = [search.candidates(x) for x in seq]

        def visit(chosen):
            for y in cands[len(chosen)]:
                prefix = chosen + (y,)
                if not search.compatible(len(chosen), y):
                    assert prefix not in extends, (g, prefix)
                    continue
                if len(prefix) == len(seq):  # a leaf: the last image is never pushed
                    assert (search.leaf(gcols, y) is not None) == (prefix in extends), (g, prefix)
                    continue
                search.push(y)
                K = [z for z in range(table.n)
                     if all(table.mult(z, c) == table.mult(c, z) for c in prefix)]
                found = _first_leaf(search, cands, gcols, K) is not None
                assert found == (prefix in extends), (g, prefix)
                visit(prefix)
                search.pop()

        visit(())


def test_search_work_guards_the_pruning(monkeypatch):
    hom_checks, nodes = [], []
    hom_image, tick = isomorphism._hom_image, _Search.tick

    def counted_hom_image(gcols, hcols):
        hom_checks.append(1)
        return hom_image(gcols, hcols)

    def counted_tick(self):
        nodes.append(1)
        tick(self)

    monkeypatch.setattr(isomorphism, "_hom_image", counted_hom_image)
    monkeypatch.setattr(_Search, "tick", counted_tick)
    assert automorphism_group(groups.direct(*[groups.cyclic(2)] * 4)).order == 20160
    assert len(hom_checks) <= 64  # one leaf per outer automorphism would be 20160
    assert 0 < len(nodes) <= 500
    # conjugation by the centralizers seeds every orbit: without it S6
    # needs 42 leaf checks
    hom_checks.clear()
    assert automorphism_group(groups.symmetric(6), extended=True).order == 1440
    assert len(hom_checks) <= 32


def test_isomorphism_search_checks_candidates_only_until_a_leaf(monkeypatch):
    """M20 by its two routes: ``_first_leaf`` ticks for the candidates it
    walks before the first verified leaf, not for a whole level (720 ticks
    when every candidate of a level was checked up front)."""
    nodes = []
    tick = _Search.tick

    def counted_tick(self):
        nodes.append(1)
        tick(self)

    monkeypatch.setattr(_Search, "tick", counted_tick)
    m20_a5 = derived_subgroup(groups.wreath(groups.cyclic(2), groups.alternating(5)))
    m20_s5 = derived_subgroup(groups.wreath(groups.cyclic(2), groups.symmetric(5)))
    assert isomorphic(m20_a5, m20_s5)
    assert 0 < len(nodes) <= 60


def test_min_generating_sequence_matches_closures_from_scratch():
    """The sequence grown one element at a time is the one that closes
    each prefix from scratch, and it generates the group."""
    for name, group in small_corpus():
        table = group.own_table()
        class_of, _, sizes = table.class_partition()
        orders = table.element_orders()
        seq, members = [], {0}
        for i in sorted(range(1, table.n), key=lambda i: (-orders[i], sizes[class_of[i]], i)):
            if i not in members:
                seq.append(i)
                members = subgroup_closure_oracle(table, seq)
                if len(members) == table.n:
                    break
        assert _min_generating_sequence(table) == seq, name
        assert len(members) == table.n, name


def test_inner_order_matches_central_quotient():
    for name, group in small_corpus():
        if group.order() > 128:
            continue
        aut = automorphism_group(group)
        assert aut.inner_order == group.order() // center(group).order(), name
        # recompute the inner group's order from scratch (no known-order shortcut)
        table = group.own_table()
        inner = [
            [conj_by_gen(table, i, gpos) for i in range(table.n)]
            for gpos in range(len(table.gen_indices))
        ]
        fresh = PermGroup(table.n, inner)
        assert fresh.order() == aut.inner_order, name
        assert aut.order % aut.inner_order == 0, name


def test_aut_group_acts_on_element_table():
    g = groups.quaternion8()
    aut = automorphism_group(g)
    assert aut.group.degree == 8
    assert aut.group.order() == 24


def test_search_compatibility_matches_word_oracle(monkeypatch):
    answers = []
    column_form = _Search.compatible

    def checked(search, pos, y):
        got = column_form(search, pos, y)
        want = search_compatible_oracle(
            search.tg, search.th, search.seq[:pos], search.chosen[:pos], search.seq[pos], y
        )
        assert got == want, (search.seq[:pos], search.chosen[:pos], search.seq[pos], y)
        answers.append(got)
        return got

    monkeypatch.setattr(_Search, "compatible", checked)
    for name, group in small_corpus():
        automorphism_group(group, extended=True)
    aut_answers = len(answers)
    pairs = [
        (groups.dihedral(12), groups.direct(groups.cyclic(2), groups.symmetric(3))),
        (groups.cyclic(6), groups.direct(groups.cyclic(2), groups.cyclic(3))),
        (groups.symmetric(4), groups.wreath(groups.cyclic(2), groups.cyclic(2))),
        (groups.alternating(4), groups.sl23()),
    ]
    for name, group in small_corpus():
        if group.order() <= 128:
            pairs.append((group, group))
    for g, h in pairs:
        isomorphic(g, h)
    assert True in answers[:aut_answers] and False in answers[:aut_answers]
    assert True in answers[aut_answers:] and False in answers[aut_answers:]


def test_counting_automorphisms_builds_no_stabilizer_chain(monkeypatch):
    ev = Evaluator()
    ev.group("c1")
    builds = []
    chain_init = perm.StabilizerChain.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        chain_init(self, *args, **kwargs)

    monkeypatch.setattr(perm.StabilizerChain, "__init__", counted)
    assert ev.value("aut_order(c1)", "long") == 192
    assert ev.value("out_order(c1)", "long") == 8
    assert builds == []


def test_aut_capacity_tiers():
    big = groups.wreath(groups.cyclic(2), groups.symmetric(4))  # order 384
    with pytest.raises(CapacityError):
        automorphism_group(big)  # required tier tops out at 128
    aut = automorphism_group(big, extended=True)
    assert aut.inner_order == 384 // center(big).order()


def test_is_perfect():
    assert is_perfect(groups.alternating(5))
    assert not is_perfect(groups.symmetric(5))
    assert not is_perfect(groups.cyclic(3))


def test_commutator_sets_small():
    ks = commutator_set(groups.symmetric(3))
    assert ks.equals_derived
    assert ks.derived_order == 3
    assert ks.deficiency == 0
    abel = commutator_set(groups.cyclic(12))
    assert abel.indices == frozenset({0})


def test_commutator_set_brute_force_oracle():
    """All-pairs oracle over the raw multiplication table for S4."""
    g = groups.symmetric(4)
    table = g.own_table()
    inv = table.inverses()
    brute = set()
    for a in range(table.n):
        for b in range(table.n):
            brute.add(table.mult(table.mult(a, b), table.mult(inv[a], inv[b])))
    ks = commutator_set(g)
    assert ks.indices == frozenset(brute)
    assert ks.equals_derived  # K(S4) = A4


def test_commutator_subset_and_generation_corpus():
    for name, group in small_corpus():
        if group.order() > 1000:
            continue
        ks = commutator_set(group)
        table = group.own_table()
        derived_members, _ = table.derived_data()
        assert ks.indices <= derived_members, name
        regenerated = table.subgroup_closure(list(ks.indices))
        assert regenerated == derived_members, name


def test_m20_commutator_anomaly_two_paths():
    m20 = derived_subgroup(groups.wreath(groups.cyclic(2), groups.symmetric(5)))
    assert m20.order() == 960
    assert is_perfect(m20)
    table = m20.own_table()
    all_pairs = commutator_set_all_pairs(table)
    class_reps = commutator_set(m20)
    assert all_pairs == class_reps.indices
    assert not class_reps.equals_derived
    assert class_reps.deficiency == 120
    # the non-commutators still generate the derived subgroup
    assert table.subgroup_closure(list(all_pairs)) == set(range(960))


def test_complement_in_direct_product():
    g = groups.direct(groups.quaternion8(), groups.cyclic(3))
    n = normal_closure(g, list(g.generators[:2]))
    assert n.order() == 8
    res = find_complement(g, n)
    assert res.status == "found"
    assert res.complement.order() == 3


def test_complement_s4_over_v4():
    s4 = groups.symmetric(4)
    v4 = normal_closure(s4, [Permutation.parse("(1,2)(3,4)", 4)])
    res = find_complement(s4, v4)
    assert res.status == "found"
    assert res.complement.order() == 6
    assert isomorphic(res.complement, groups.symmetric(3))


def test_q8_center_has_no_complement():
    q8 = groups.quaternion8()
    res = find_complement(q8, center(q8))
    assert res.status == "not-found"
    assert res.exhaustive


def test_complement_requires_normal_subgroup():
    s4 = groups.symmetric(4)
    i = s4.index_of(Permutation.parse("(1,2)", 4))
    sub = s4.subgroup_from_indices([i], s4.own_table().subgroup_closure([i]))
    with pytest.raises(ValueError):
        find_complement(s4, sub)


def test_complement_across_ambient_tables():
    s4 = groups.symmetric(4)
    a4 = derived_subgroup(groups.symmetric(4))
    res = find_complement(s4, a4)
    assert res.status == "found" and res.exhaustive
    assert res.complement.order() == 2
    assert s4.indices_of(res.complement) & s4.indices_of(a4) == {0}


def test_complement_budget_inconclusive():
    s4 = groups.symmetric(4)
    v4 = normal_closure(s4, [Permutation.parse("(1,2)(3,4)", 4)])
    res = find_complement(s4, v4, budget=1)
    assert res.status in ("found", "inconclusive")


def _shuffled(group, seed):
    gens = list(group.generators)
    random.Random(seed).shuffle(gens)
    return PermGroup(group.degree, gens)


def test_aut_counts_do_not_depend_on_the_generator_order():
    """The search tree, and so the number of leaves checked, depends on how
    the table is numbered; the counts must not."""
    c2_wr_s5 = groups.wreath(groups.cyclic(2), groups.symmetric(5))
    cases = [(name, g) for name, g in small_corpus() if g.order() <= 384] + [
        ("C2wrS5", c2_wr_s5),
        ("M20", derived_subgroup(c2_wr_s5)),
    ]
    for name, g in cases:
        want = leaf_count_automorphisms(g.own_table())
        for seed in range(6):
            aut = automorphism_group(_shuffled(g, seed), extended=True)
            assert (aut.order, aut.inner_order) == want, (name, seed)


def _last_level_prefixes(search, cands):
    """Walk every compatible prefix of all but the last image, pushed."""
    pos = len(search.chosen)
    if pos == len(search.seq) - 1:
        yield
        return
    for y in cands[pos]:
        if search.compatible(pos, y):
            search.push(y)
            yield from _last_level_prefixes(search, cands)
            search.pop()


def test_lazy_leaf_matches_full_columns():
    """``leaf`` on a lazily filled column returns exactly what ``_hom_image``
    returns on full columns, for every compatible last-level candidate."""
    cases = [(g, g) for _, g in small_corpus() if g.order() <= 120] + [
        (groups.dihedral(12), groups.direct(groups.cyclic(2), groups.symmetric(3))),
        (groups.symmetric(4), groups.wreath(groups.cyclic(2), groups.cyclic(2))),
        (groups.dihedral(8), groups.quaternion8()),  # every leaf refuted
    ]
    accepted = refuted = 0
    for g, h in cases:
        tg, th = g.own_table(), h.own_table()
        seq = _min_generating_sequence(tg)
        search = _Search(tg, th, seq)
        cands = [search.candidates(x) for x in seq]
        gcols = [tg.column(x) for x in seq]
        last = len(seq) - 1
        for _ in _last_level_prefixes(search, cands):
            for y in cands[last]:
                if search.compatible(last, y):
                    lazy = search.leaf(gcols, y)
                    assert lazy == _hom_image(gcols, search.h_rcols + [th.column(y)])
                    accepted += lazy is not None
                    refuted += lazy is None
    assert accepted and refuted


def test_last_level_candidates_fill_no_columns(monkeypatch):
    """From the compatibility check of a last-level candidate to the next
    push, pop or end of the search, the searches fill no whole column."""
    state = {"last": False, "fills": 0, "last_checks": 0}
    compatible, push, pop = _Search.compatible, _Search.push, _Search.pop

    def checked_compatible(self, pos, y):
        if pos == len(self.seq) - 1:
            state["last"] = True
            state["last_checks"] += 1
        return compatible(self, pos, y)

    def leave_last_level(method):
        def wrapped(self, *args):
            state["last"] = False
            return method(self, *args)

        return wrapped

    def no_fill_at_last_level(method):
        def wrapped(self, j):
            assert not state["last"], method.__name__
            state["fills"] += 1
            return method(self, j)

        return wrapped

    def searched(result):
        state["last"] = False
        return result

    monkeypatch.setattr(_Search, "compatible", checked_compatible)
    monkeypatch.setattr(_Search, "push", leave_last_level(push))
    monkeypatch.setattr(_Search, "pop", leave_last_level(pop))
    for name in ("column", "lcolumn", "conj_column"):
        monkeypatch.setattr(ElementTable, name, no_fill_at_last_level(getattr(ElementTable, name)))
    c2_wr_s5 = groups.wreath(groups.cyclic(2), groups.symmetric(5))
    m20 = derived_subgroup(c2_wr_s5)
    assert searched(automorphism_group(c2_wr_s5, extended=True)).order == 3840
    assert searched(automorphism_group(m20, extended=True)).outer_order() == 2
    for name, g in small_corpus():
        if g.order() <= 384:
            searched(automorphism_group(g, extended=True))
    assert searched(isomorphic(groups.dihedral(12), groups.direct(groups.cyclic(2), groups.symmetric(3))))
    assert searched(isomorphic(c2_wr_s5, _shuffled(c2_wr_s5, 1)))
    assert state["last_checks"] > 1000 and state["fills"] > 100
