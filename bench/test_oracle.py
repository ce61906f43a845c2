"""The benchmark's own oracles against hand-computed answers.

    python3 -m pytest bench
"""

import math
import random
from fractions import Fraction

import oracle as O
from oracle import Graph, Word
from workloads import g_spine, marker_cycle, _primitive


def ring(n):
    """mu X. S^(n-1)(A(X))"""
    return Word((), ("S",) * (n - 1) + ("A",))


def test_ring_25_vs_26_under_infty():
    # A meets S at depth 24 after 24 lazy edges
    assert O.word_distance(O.INFTY, ring(25), ring(26)) == 24
    assert O.matches_exact(Fraction(1, 2**24), 24)


def test_equal_words_are_at_distance_zero():
    assert O.word_distance(O.INFTY, ring(5), Word(("S",), ("S", "S", "S", "A", "S"))) is None


def test_two_cap_ring_composes_to_2_pow_minus_65536():
    # F^16 H G^9 against one more G: the clash sits below G^9 and H,
    # then sixteen squarings: 2^-(2^16)
    w = ("F",) * 16 + ("H",) + ("G",) * 9
    assert O.word_distance(O.EXA2, Word((), w), Word((), w + ("G",))) == 65536


def test_scale_two_is_floored_at_one():
    # H(F(x)) vs H(G(x)) under exa: clash below H, min(1, 2*1) = 1
    assert O.word_distance(O.EXA, Word(("H", "F"), (), "x"), Word(("H", "G"), (), "x")) == 0
    # F(H(F(..))) vs F(H(G(..))): 1 -> scale 2 -> 1 -> lazy -> 1/2
    assert O.word_distance(O.EXA, Word(("F", "H", "F"), (), "x"), Word(("F", "H", "G"), (), "x")) == 1


def test_membership_of_single_cycles():
    ffh, gh = Word((), ("F", "F", "H")), Word((), ("G", "H"))
    assert O.word_member(O.EXA, ffh) and not O.word_member(O.EXA, gh)
    assert O.word_member(O.EXA2, ffh) and not O.word_member(O.EXA2, gh)
    assert not O.word_member(O.EXA2, Word((), ("F",)))  # pow alone keeps 1
    assert O.word_member(O.INFTY, ring(900))
    assert O.word_member(O.EXA, Word(("H",) * 5, (), "x"))  # finite


def test_rank_counts_colour_changes():
    assert O.word_rank(Word(("F", "F", "H", "H"), ("G",))) == 2
    assert O.word_rank(Word(("H",), ("F", "G"))) == 1
    assert O.word_rank(Word(("F",), ("G", "H"))) == math.inf


def test_vdepth_of_finite_words():
    assert O.word_vdepth(O.EXA, Word(("F", "G"), (), "x"), "x") == 2
    assert O.word_vdepth(O.EXA2, Word(("F", "H"), (), "x"), "x") == 2
    assert O.word_vdepth(O.EXA, Word(("F", "G"), (), "y"), "x") is None


def test_epos_of_words():
    assert O.word_epos(O.INFTY, ring(40), 3) == 4
    assert O.word_epos(O.INFTY, Word(("S", "S"), (), "nil"), 10) == 3


LEAF = Graph((("Bin", (1, 2, 3)), ("Null", ()), ("N", ()), ("Null", ())))
TALLER = Graph((("Bin", (1, 2, 3)), ("Null", ()), ("N", ()),
                ("Bin", (4, 5, 6)), ("Null", ()), ("N", ()), ("Null", ())))


def test_ltree_distance_by_0_1_bfs():
    # the ltree fixture's check: the clash is below a strict edge
    assert O.graph_distance(O.LTREE, LEAF, TALLER) == 0
    lazy_clash = Graph((("Bin", (1, 2, 3)), ("N", ()), ("N", ()), ("Null", ())))
    assert O.graph_distance(O.LTREE, LEAF, lazy_clash) == 1
    assert O.graph_distance(O.LTREE, LEAF, LEAF) is None


def test_ltree_membership_epos_and_vdepth():
    right_spine = Graph((("Bin", (1, 2, 0)), ("Null", ()), ("N", ())))
    left_spine = Graph((("Bin", (0, 1, 2)), ("N", ()), ("Null", ())))
    assert not O.graph_member(O.LTREE, right_spine)
    assert O.graph_member(O.LTREE, left_spine)
    assert O.graph_epos(O.LTREE, LEAF, 0) == 3  # root and the strict children
    assert O.graph_epos(O.LTREE, LEAF, 1) == 4
    assert O.graph_epos(O.LTREE, right_spine, 2) is None
    with_x = Graph((("Bin", (1, 2, 3)), ("x", ()), ("N", ()), ("Bin", (4, 5, 6)),
                    ("Null", ()), ("x", ()), ("y", ())))
    assert O.graph_vdepth(O.LTREE, with_x, "x") == 0  # via the strict third argument
    assert O.graph_vdepth(O.LTREE, LEAF, "x") is None


def test_graph_text_binds_back_references():
    assert O.Graph((("Bin", (0, 1, 2)), ("N", ()), ("Null", ()))).text() == "mu X0. Bin(X0, N, Null)"
    assert LEAF.text() == "Bin(Null, N, Null)"


def test_word_text_and_node_tables():
    assert Word(("A",), ("S", "B")).text() == "A(mu X. S(B(X)))"
    nodes = (("app", "A", (1,)), ("app", "S", (2,)), ("app", "B", (1,)))
    assert O.as_word(nodes) == Word(("A",), ("S", "B"))
    assert O.as_word((("app", "S", (1,)), ("app", "nil", ()))) == Word(("S",), (), "nil")
    assert O.unfold((("app", "F", (1, 1)), ("app", "0", ())), 2) == ("F", ("0",), ("0",))


def test_exactness_checks():
    assert O.matches_exact(Fraction(1, 2**4096), 4096)
    assert not O.matches_exact(Fraction(1, 2**4096), 65536)
    assert not O.matches_exact(2.0 ** -10, 10)  # a float is not exact
    assert O.close(0.0, 65536, 1e-9) and O.close(0.25, 2, 1e-9)


def test_generators():
    rng = random.Random(0)
    for _ in range(50):
        w = marker_cycle(rng, rng.randint(2, 40))
        assert _primitive(w)
        c = g_spine(rng, 3, need_both=True)
        assert c.count("G(") == 3 and "0" in c and "1" in c
