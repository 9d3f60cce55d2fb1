"""Permutations, cycle notation, the deterministic stabilizer chain."""

import os
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_force_elements, small_corpus
from gategroups.errors import GroupFileError
from gategroups.perm import (
    PermGroup,
    Permutation,
    StabilizerChain,
    _bfs,
    _compose,
    read_perm_group,
    write_perm_group,
)


def test_cycle_parse_and_print():
    p = Permutation.parse("(1,2)(3,4,5)", 6)
    assert str(p) == "(1,2)(3,4,5)"
    assert p.image(0) == 1
    assert p.image(2) == 3
    assert Permutation.parse(str(p), 6) == p
    assert str(Permutation.identity(4)) == "()"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Permutation.parse("(1,2) junk", 4)
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_products_and_inverse():
    a = Permutation.parse("(1,2,3)", 4)
    b = Permutation.parse("(3,4)", 4)
    # left-to-right composition: apply a, then b
    assert str(a * b) == "(1,2,4,3)"
    assert (a * a.inverse()).is_identity
    assert a**3 == Permutation.identity(4)
    assert a**-1 == a.inverse()
    assert a.order() == 3


def test_trivial_group():
    g = PermGroup(3, [Permutation.identity(3)])
    assert g.order() == 1
    assert g.contains(Permutation.identity(3))
    assert not g.contains(Permutation.parse("(1,2)", 3))


def test_s5_standard_generators():
    g = PermGroup(5, [Permutation.parse("(1,2)", 5), Permutation.parse("(1,2,3,4,5)", 5)])
    assert g.order() == 120
    assert g.contains(Permutation.parse("(2,5,3)", 5))


def test_chain_base_and_membership():
    g = PermGroup(4, [Permutation.parse("(1,2,3,4)", 4), Permutation.parse("(1,2)", 4)])
    chain = g.stabilizer_chain()
    assert chain.order() == 24
    # deterministic smallest-moved-point base
    assert chain.base() == sorted(chain.base())
    for p in brute_force_elements(g):
        assert chain.contains(Permutation(p))


def test_order_matches_brute_force_corpus():
    for name, group in small_corpus():
        if group.order() > 5000:
            continue
        assert group.stabilizer_chain().order() == len(brute_force_elements(group)), name


def test_degree_one_chain():
    """On one point every permutation is the identity, and composing keeps tuples."""
    assert _compose((0,), (0,)) == (0,)
    chain = StabilizerChain(1, [(0,)])
    assert chain.order() == 1
    assert chain.base() == []
    assert chain.contains((0,))
    assert not chain.contains((1, 0))
    group = PermGroup(1, [Permutation.identity(1)])
    assert group.order() == len(brute_force_elements(group)) == 1
    assert group.perm_of(0) == Permutation.identity(1)
    assert group.index_of((0,)) == 0


def test_order_matches_brute_force_random():
    rng = random.Random(2718)
    for _ in range(20):
        degree = rng.randint(3, 8)
        gens = []
        for _ in range(rng.randint(1, 3)):
            imgs = list(range(degree))
            rng.shuffle(imgs)
            gens.append(Permutation(imgs))
        group = PermGroup(degree, gens)
        assert group.order() == len(brute_force_elements(group))


def test_generators_pass_membership():
    for name, group in small_corpus():
        chain = group.stabilizer_chain()
        for g in group.generators:
            assert chain.contains(g), name


def test_known_order_shortcut_consistency():
    gens = [Permutation.parse("(1,2)", 5), Permutation.parse("(1,2,3,4,5)", 5)]
    fast = PermGroup(5, gens, order=120)
    slow = PermGroup(5, gens)
    assert fast.order() == slow.order() == 120


# the level orbits of each corpus group's chain in discovery order, with or
# without a known order, as the chain with a dict per level for its Schreier
# vector built them: the bases are their first points, the level orbit
# lengths their lengths
CHAIN_ORBITS = {
    "Z12": [[0, 1, 11, 2, 10, 3, 9, 4, 8, 5, 7, 6]],
    "V4": [[0, 1], [2, 3]],
    "S3": [[0, 1, 2], [1, 2]],
    "S4": [[0, 1, 2, 3], [1, 2, 3], [2, 3]],
    "S5": [[0, 1, 2, 4, 3], [1, 2, 4, 3], [2, 3, 4], [3, 4]],
    "S6": [[0, 1, 2, 5, 3, 4], [1, 2, 5, 3, 4], [2, 3, 5, 4], [4, 5, 3], [3, 5]],
    "A4": [[0, 1, 2, 3], [1, 2, 3]],
    "A5": [[0, 1, 2, 3, 4], [2, 3, 4, 1], [1, 3, 4]],
    "A6": [[0, 1, 2, 5, 3, 4], [1, 2, 5, 3, 4], [2, 4, 3, 5], [3, 4, 5]],
    "D8": [[0, 1, 3, 2], [1, 3]],
    "D12": [[0, 1, 5, 2, 4, 3], [1, 5]],
    "Q8": [[0, 2, 3, 4, 5, 1, 6, 7]],
    "SL23": [
        [0, 2, 1, 6, 15, 8, 16, 7, 17, 9, 12, 3]
        + [21, 18, 11, 14, 4, 22, 19, 10, 13, 5, 23, 20]
    ],
    "Z2wrS3": [[0, 1, 2, 3, 4, 5], [2, 4, 3, 5], [4, 5]],
    "Z2wrS4": [[0, 1, 2, 3, 4, 6, 5, 7], [2, 4, 6, 3, 7, 5], [4, 6, 7, 5], [6, 7]],
    "Z3xS4": [[0, 1, 2], [3, 4, 5, 6], [4, 5, 6], [5, 6]],
}


@pytest.mark.parametrize("known", [False, True], ids=["unknown", "known"])
@pytest.mark.parametrize("name, group", small_corpus(), ids=[n for n, _ in small_corpus()])
def test_chain_bases_and_level_orbits_are_pinned(name, group, known):
    chain = StabilizerChain(group.degree, group.generators, group.order() if known else None)
    orbits = CHAIN_ORBITS[name]
    assert chain.base() == [orbit[0] for orbit in orbits]
    assert [len(level.orbit) for level in chain.levels] == list(map(len, orbits))
    assert [level.orbit for level in chain.levels] == orbits


def _distances(seeds, maps, n):
    """Distance of every point from the seeds, by growing the reached set one
    step of all maps at a time (oracle); None for a point never reached."""
    dist = dict.fromkeys(seeds, 0)
    frontier, d = set(dist), 0
    while frontier:
        d += 1
        frontier = {m[x] for m in maps for x in frontier} - set(dist)
        dist.update(dict.fromkeys(frontier, d))
    return [dist.get(x) for x in range(n)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bfs_matches_a_set_closure(data):
    """Arbitrary maps (not bijections), several seeds and one seed repeated: the
    points reached are the closure, in order of distance, each reached from an
    earlier point by the map its genpos names."""
    n = data.draw(st.integers(1, 25))
    maps = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), max_size=4))
    seeds = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    seeds += seeds[:1]
    order, prev, genpos = _bfs(seeds, maps, n)
    dist = _distances(seeds, maps, n)
    distinct = list(dict.fromkeys(seeds))
    assert sorted(order) == [x for x in range(n) if dist[x] is not None]
    assert order[: len(distinct)] == distinct
    assert [dist[x] for x in order] == sorted(dist[x] for x in order)
    assert all(prev[s] == s and genpos[s] == -1 for s in distinct)
    position = {x: i for i, x in enumerate(order)}
    for y in order[len(distinct) :]:
        assert maps[genpos[y]][prev[y]] == y
        assert position[prev[y]] < position[y] and dist[y] == dist[prev[y]] + 1
    assert all(prev[x] == genpos[x] == -1 for x in range(n) if dist[x] is None)


def test_group_file_round_trip(tmp_path):
    g = PermGroup(5, [Permutation.parse("(1,2)", 5), Permutation.parse("(1,2,3,4,5)", 5)])
    path = tmp_path / "s5.permgroup"
    write_perm_group(g, path)
    back = read_perm_group(path)
    assert back.degree == 5
    assert back.generators == g.generators
    assert back.order() == 120


def test_index_translation_round_trips_in_a_subgroup():
    from gategroups import groups
    from gategroups.structure import coset_action, derived_subgroup

    s4 = groups.symmetric(4)
    a4 = derived_subgroup(s4)
    s3 = coset_action(s4, derived_subgroup(a4))  # regular representation
    for group in (s4, a4, s3):
        n = group.order()
        assert group.own_table().n == n
        perms = [group.perm_of(i) for i in range(n)]
        assert {p.imgs for p in perms} == brute_force_elements(group)
        assert [group.index_of(p) for p in perms] == list(range(n))
        assert group.index_of(perms[1].imgs) == 1  # image tuples work too
    with pytest.raises(ValueError):
        a4.index_of(Permutation.parse("(1,2)", 4))
    with pytest.raises(ValueError):
        s4.index_of(Permutation.identity(5))
    with pytest.raises(ValueError):
        s3.index_of(Permutation.parse("(1,2)", 6))


def test_subgroup_from_indices_takes_own_indices():
    from gategroups import groups
    from gategroups.structure import derived_subgroup

    a4 = derived_subgroup(groups.symmetric(4))
    i = a4.index_of(Permutation.parse("(1,2,3)", 4))
    c3 = a4.subgroup_from_indices([i], a4.own_table().subgroup_closure([i]))
    assert c3.order() == 3
    assert {c3.perm_of(p) for p in range(3)} == {
        Permutation.parse(t, 4) for t in ("()", "(1,2,3)", "(1,3,2)")
    }
    assert a4.indices_of(c3) == a4.own_table().subgroup_closure([i])


def test_subgroup_generators_are_built_when_first_read(monkeypatch):
    """A subgroup replays no generator word until ``generators`` is read.

    The list it then builds is the eager one (the identity for a subgroup
    with no generators), lies in the subgroup and generates all of it.
    """
    from gategroups import groups
    from gategroups.cayley import ElementTable
    from gategroups.structure import center, coset_action, normal_subgroups

    replayed = []
    real_perm_of = ElementTable.perm_of

    def counting(table, i):
        replayed.append(i)
        return real_perm_of(table, i)

    monkeypatch.setattr(ElementTable, "perm_of", counting)
    g = groups.wreath(groups.cyclic(2), groups.symmetric(4))
    cases = small_corpus() + [("Z2wrS4/Z", coset_action(g, center(g)))]
    for name, group in cases:
        subs = [s for s in normal_subgroups(group).all if s._gen_idx is not None]
        assert replayed == [], name
        assert any(s.order() == 1 for s in subs), name
        for sub in subs:
            table = sub._ambient_table()
            eager = [Permutation(real_perm_of(table, i)) for i in sub._gen_idx]
            assert sub.generators == eager, name
            assert replayed == sub._gen_idx, name
            assert sub.generators is sub.generators  # built once
            del replayed[:]
            for p in sub.generators:
                sub.index_of(p)
            assert PermGroup(sub.degree, sub.generators).order() == sub.order(), name
            del replayed[:]
        trivial = group.subgroup_from_indices([], {0})
        assert trivial.generators == [Permutation.identity(group.degree)], name
        del replayed[:]


def test_indices_of_across_ambient_tables():
    """A4 built on a second S4 object is still found inside the first S4."""
    from gategroups import groups
    from gategroups.structure import derived_subgroup

    s4 = groups.symmetric(4)
    a4 = derived_subgroup(groups.symmetric(4))
    members = s4.indices_of(a4)
    assert {s4.perm_of(i).imgs for i in members} == brute_force_elements(a4)
    assert s4.indices_of(PermGroup(4, a4.generators)) == members
    assert a4.indices_of(s4.subgroup_from_indices([], {0})) == {0}
    with pytest.raises(ValueError):
        a4.indices_of(s4)
    with pytest.raises(ValueError):
        s4.indices_of(groups.symmetric(5))


def test_indices_of_across_regular_tables():
    """A quotient's derived subgroup is found in a second copy of the quotient.

    Two quotient tables share no element indices, so a lookup replays each
    member's word on the cosets and checks its base image.
    """
    from gategroups import groups
    from gategroups.structure import center, coset_action, derived_subgroup

    def quotient():
        g = groups.wreath(groups.cyclic(2), groups.symmetric(5))
        return coset_action(g, center(g))

    first, second = quotient(), quotient()
    d = derived_subgroup(second)
    members = first.indices_of(d)
    assert len(members) == 960
    assert members == second.indices_of(d)


@pytest.mark.parametrize("name, group", small_corpus(), ids=[n for n, _ in small_corpus()])
def test_base_image_enumeration_round_trips(name, group):
    """perm_of replays words over the generators; index_of inverts it."""
    n = group.order()
    perms = [group.perm_of(i) for i in range(n)]
    assert group.own_table().n == n
    assert {p.imgs for p in perms} == brute_force_elements(group)
    assert [group.index_of(p) for p in perms] == list(range(n))
    assert perms[0].is_identity


def test_index_of_rejects_a_permutation_with_a_members_base_images():
    """(3,4) fixes the base of A4 like the identity does, yet lies outside A4."""
    from gategroups import groups
    from gategroups.structure import derived_subgroup

    outsider = Permutation.parse("(3,4)", 4)
    a4 = groups.alternating(4)
    base = a4.stabilizer_chain().base()
    assert [outsider.image(b) for b in base] == base
    with pytest.raises(ValueError):
        a4.index_of(outsider)
    s4 = groups.symmetric(4)
    with pytest.raises(ValueError):
        derived_subgroup(s4).index_of(outsider)
    assert s4.perm_of(s4.index_of(outsider)) == outsider


@pytest.mark.parametrize(
    "text, line",
    [
        ("", 1),
        ("\n\norder 4\n(1,2)\n", 3),
        ("degree 4\n(1,2)\n\n(1,5)\n", 4),
        ("degree 3\n(1,x)\n", 2),
        ("degree 3\n(1,2)\u00e9\n", 2),
        ("degree " + "1" * 5000, 1),  # beyond the digit limit of int()
    ],
)
def test_group_file_errors_name_the_line(tmp_path, text, line):
    path = tmp_path / "bad.permgroup"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(GroupFileError) as err:
        read_perm_group(path)
    assert err.value.line_number == line


def test_group_file_degree_is_capped(tmp_path, monkeypatch):
    """A degree above GATEGROUPS_MAX_ENUMERATION is refused before any
    permutation of that degree is built; at the cap the file loads."""
    monkeypatch.setenv("GATEGROUPS_MAX_ENUMERATION", "5")
    path = tmp_path / "g.permgroup"
    path.write_text("degree 5\n(1,2,3,4,5)\n", encoding="ascii")
    assert read_perm_group(path).order() == 5
    for text in ("degree 6\n(1,2)\n", "degree 6\n", "\ndegree 100000000000\n"):
        path.write_text(text, encoding="ascii")
        with pytest.raises(GroupFileError) as err:
            read_perm_group(path)
        line = 2 if text.startswith("\n") else 1
        assert str(err.value).startswith(f"line {line}: degree ")
        assert str(err.value).endswith("exceeds the cap 5 set by GATEGROUPS_MAX_ENUMERATION")


_DEGREE_LINES = st.integers(0, 9).map("degree {}".format).map(str.encode)
_CYCLE_LINES = st.lists(st.lists(st.integers(1, 6), max_size=4, unique=True), max_size=2).map(
    lambda cycles: "".join("(" + ",".join(map(str, c)) + ")" for c in cycles).encode()
)
_ANY_LINES = st.one_of(
    _DEGREE_LINES,
    _CYCLE_LINES,
    st.text(st.characters(max_codepoint=127), max_size=12).map(str.encode),
    st.text(max_size=6).map(str.encode),
    st.binary(max_size=6),
)


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(_DEGREE_LINES, _ANY_LINES),
    st.lists(st.one_of(_CYCLE_LINES, _ANY_LINES), max_size=5),
    st.sampled_from([b"\n", b"\r\n", b"\r"]),
)
def test_any_group_file_loads_or_names_its_line(first, rest, newline):
    data = newline.join([first, *rest])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "any.permgroup")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            group = read_perm_group(path)
        except GroupFileError as exc:
            assert 1 <= exc.line_number <= data.count(b"\n") + data.count(b"\r") + 1
            assert str(exc).startswith(f"line {exc.line_number}: ")
        else:
            assert all(g.degree == group.degree for g in group.generators)


@st.composite
def _perm_groups(draw):
    degree = draw(st.integers(1, 7))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return PermGroup(degree, gens)


@settings(max_examples=100, deadline=None)
@given(_perm_groups())
def test_group_file_round_trip_on_generated_groups(group):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.permgroup")
        write_perm_group(group, path)
        back = read_perm_group(path)
    assert back.degree == group.degree
    assert back.generators == group.generators
    assert back.order() == group.order()
