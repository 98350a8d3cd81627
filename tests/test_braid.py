import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import writhe_breakdown
from qlink.braid import (
    BraidError,
    BraidWord,
    ColoredBraid,
    cable,
    components,
    disjoint_union,
    parse,
    parse_any,
    parse_colored,
    self_writhe,
    underlying_permutation,
)
from qlink.tensorop import HALF, InputError, Spin, parse_spins

H = HALF
ONE = Spin(2)


def colored(n, letters, *twice):
    return ColoredBraid(BraidWord(n, letters), tuple(Spin(t) for t in twice))


def edit_component(braid, index, new):
    """`cable` applied to component `index` alone: it becomes `new`, every other component keeps its color."""
    colors = [(braid.colors[comp[0]],) for comp in components(braid)]
    colors[index] = new
    return cable(braid, colors)


class TestParsing:
    def test_simple_words(self):
        assert parse("n=2; 1 1 1") == BraidWord(2, (1, 1, 1))
        assert parse("n=3; 1 -1") == BraidWord(3, (1, -1))
        assert parse("n=1;") == BraidWord(1, ())
        assert parse("n=2; 1, 1") == BraidWord(2, (1, 1))

    def test_out_of_range(self):
        with pytest.raises(BraidError):
            parse("n=2; 3")
        with pytest.raises(BraidError):
            parse("n=2; 0")

    def test_colored_parsing(self):
        braid = parse_colored("n=2; 1 1; colors=1/2,1")
        assert braid.colors == (H, ONE)
        same = parse_colored("n=2; 1 1", colors=(H, ONE))
        assert same == braid
        with pytest.raises(BraidError):
            parse_colored("n=2; 1 1; colors=1/2,1", colors=(H, ONE))

    def test_each_parser_refuses_the_other_format(self):
        with pytest.raises(BraidError, match="unexpected colors section; use parse_colored"):
            parse("n=2; 1 1; colors=1/2,1")
        with pytest.raises(BraidError, match="no colors given for a colored braid"):
            parse_colored("n=2; 1 1")

    def test_parse_any_json(self):
        braid = parse_any('{"n": 2, "letters": [1, 1], "colors": ["1/2", "1"]}')
        assert braid == colored(2, (1, 1), 1, 2)
        word = parse_any('{"n": 2, "letters": [1], "colors": []}')
        assert word == BraidWord(2, (1,))
        mixed = parse_any('{"n": 2, "letters": [1]}', colors=(H, H))
        assert mixed == colored(2, (1,), 1, 1)
        with pytest.raises(BraidError):
            parse_any('{"n": 2, "letters": [1], "colors": ["1/2", "1/2"]}', colors=(H, H))

    def test_empty_inline_colors_color_a_zero_strand_word(self):
        empty = ColoredBraid(BraidWord(0, ()), ())
        assert parse_any('{"n": 0, "letters": [], "colors": []}') == empty
        assert parse_any("n=0; colors=") == parse_colored("n=0; colors=") == empty
        assert parse_any('{"n": 0, "letters": []}') == parse_any("n=0;") == BraidWord(0, ())

    def test_empty_separate_colors_color_a_zero_strand_word(self):
        empty = ColoredBraid(BraidWord(0, ()), ())
        assert parse_any("n=0;", colors=parse_spins("")) == parse_colored("n=0;", parse_spins(" ")) == empty
        assert parse_any("n=0; colors= ") == empty

    def test_empty_text_colors_section_lists_no_colors(self):
        assert parse_any("n=2; 1 1; colors=") == parse_any('{"n": 2, "letters": [1, 1], "colors": []}')
        assert parse_any("n=2; 1 1; colors=", colors=(H, H)) == colored(2, (1, 1), 1, 1)
        with pytest.raises(BraidError, match="bad colors section"):
            parse_any("n=2; 1 1; colors=1/2,")

    def test_round_trips(self):
        braid = colored(3, (1, -2, 1), 1, 1, 1)
        assert parse_colored("n=3; 1 -2 1; colors=1/2,1/2,1/2") == braid
        assert parse_any('{"n": 3, "letters": [1, -2, 1], "colors": ["1/2", "1/2", "1/2"]}') == braid


class TestPermutation:
    def test_generators(self):
        assert underlying_permutation(BraidWord(2, (1,))) == (1, 0)
        assert underlying_permutation(BraidWord(2, (1, 1))) == (0, 1)
        # sigma_1 sigma_2 carries strand 0 all the way to the right.
        assert underlying_permutation(BraidWord(3, (1, 2))) == (2, 0, 1)

    def test_sign_independence(self):
        assert underlying_permutation(BraidWord(3, (1, -2))) == underlying_permutation(
            BraidWord(3, (1, 2))
        )


class TestColoring:
    def test_closure_consistency_enforced(self):
        with pytest.raises(BraidError):
            colored(2, (1,), 1, 2)  # one cycle, two colors
        colored(2, (1,), 1, 1)  # fine

    def test_components(self):
        hopf = colored(2, (1, 1), 1, 3)
        assert components(hopf) == [(0,), (1,)]
        trefoil = colored(2, (1, 1, 1), 1, 1)
        assert components(trefoil) == [(0, 1)]


class TestWrithe:
    def test_trefoil_is_self_writhe(self):
        trefoil = colored(2, (1, 1, 1), 1, 1)
        assert self_writhe(trefoil) == [3]
        assert writhe_breakdown(trefoil) == (3, {0: 3}, {})

    def test_hopf_is_linking(self):
        hopf = colored(2, (1, 1), 1, 1)
        assert self_writhe(hopf) == [0, 0]
        assert writhe_breakdown(hopf) == (2, {0: 0, 1: 0}, {(0, 1): 2})

    def test_cancelling_pair(self):
        assert self_writhe(colored(2, (1, -1), 1, 3)) == [0, 0]

    def test_total_is_sum_of_parts(self):
        rng = random.Random(11)
        from oracles import random_colored_braid

        for _ in range(30):
            braid = random_colored_braid(rng, rng.randint(2, 4), rng.randint(0, 8), 3)
            total, own, linking = writhe_breakdown(braid)
            assert self_writhe(braid) == [own[ci] for ci in range(len(components(braid)))]
            assert total == braid.word.exponent_sum() == sum(own.values()) + sum(linking.values())


class TestUnion:
    def test_shift(self):
        left = colored(3, (1, 1, 1), 1, 1, 0)
        right = colored(2, (1,), 2, 2)
        union = disjoint_union(left, right)
        assert union.word == BraidWord(5, (1, 1, 1, 4))
        assert union.colors == (H, H, Spin(0), ONE, ONE)

    def test_empty_braid_is_a_unit(self):
        empty = ColoredBraid(BraidWord(0, ()), ())
        braid = colored(2, (1, 1), 1, 1)
        assert disjoint_union(empty, braid) == braid


class TestCabling:
    def test_idle_strand(self):
        cabled = cable(colored(1, (), 2), [(H, H)])
        assert cabled == colored(2, (), 1, 1)

    def test_hopf_component_doubling(self):
        cabled = cable(colored(2, (1, 1), 2, 1), [(H, H), (H,)])
        assert cabled.word == BraidWord(3, (2, 1, 1, 2))
        assert cabled.colors == (H, H, H)

    def test_blocked_permutation(self):
        rng = random.Random(12)
        from oracles import random_colored_braid

        for _ in range(40):
            braid = random_colored_braid(rng, rng.randint(2, 4), rng.randint(0, 7), 4)
            comps = components(braid)
            ci = rng.randrange(len(comps))
            color = braid.colors[comps[ci][0]]
            if color.twice_j == 0:
                continue
            cabled = edit_component(braid, ci, (H, Spin(color.twice_j - 1)))
            # Blocked version of the original permutation.
            width = [2 if s in comps[ci] else 1 for s in range(braid.n_strands)]
            offset = [sum(width[:s]) for s in range(braid.n_strands)]
            perm = underlying_permutation(braid.word)
            expected = [None] * cabled.n_strands
            for s in range(braid.n_strands):
                for t in range(width[s]):
                    expected[offset[s] + t] = offset[perm[s]] + t
            got = underlying_permutation(cabled.word)
            # expected maps bottom to top positions blockwise
            blocked = [None] * cabled.n_strands
            for s in range(braid.n_strands):
                for t in range(width[s]):
                    blocked[offset[s] + t] = offset[perm[s]] + t
            assert list(got) == blocked

    def test_crossing_counts(self):
        rng = random.Random(13)
        from oracles import random_colored_braid

        for _ in range(30):
            braid = random_colored_braid(rng, rng.randint(2, 4), rng.randint(1, 6), 4)
            comps = components(braid)
            ci = rng.randrange(len(comps))
            if braid.colors[comps[ci][0]].twice_j == 0:
                continue
            cabled = edit_component(braid, ci, (H, Spin(braid.colors[comps[ci][0]].twice_j - 1)))
            total, own, linking = writhe_breakdown(braid)
            self_w = own[ci]
            link_w = sum(v for k, v in linking.items() if ci in k)
            rest = total - self_w - link_w
            assert cabled.word.exponent_sum() == 4 * self_w + 2 * link_w + rest

    def test_cancelling_word_cables_to_cancelling_word(self):
        braid = colored(2, (1, -1), 2, 1)
        cabled = cable(braid, [(H, H), (H,)])
        assert underlying_permutation(cabled.word) == (0, 1, 2)
        # The cabled word is letterwise self-inverse.
        half = len(cabled.word.letters) // 2
        first, second = cabled.word.letters[:half], cabled.word.letters[half:]
        assert tuple(-x for x in reversed(first)) == second


class TestDeletion:
    def test_idle_strand_removed(self):
        braid = colored(3, (1, 1, 1), 1, 1, 0)
        reduced = cable(braid, [(H,), ()])
        assert reduced == colored(2, (1, 1, 1), 1, 1)

    def test_entangled_strand_removed(self):
        # A chain of three circles; removing the end circle drops its two
        # crossings and re-indexes the remaining pair.
        braid = colored(3, (1, 1, 2, 2), 0, 1, 1)
        comps = components(braid)
        assert braid.colors[comps[0][0]] == Spin(0)
        reduced = cable(braid, [(), (H,), (H,)])
        assert reduced == colored(2, (1, 1), 1, 1)

    def test_survivors_keep_colors_permutation_and_writhe(self):
        rng = random.Random(14)
        from oracles import random_colored_braid

        for _ in range(300):
            braid = random_colored_braid(rng, rng.randint(1, 6), rng.randint(0, 12), 4)
            comps = components(braid)
            ci = rng.randrange(len(comps))
            reduced = edit_component(braid, ci, ())
            survivors = [s for s in range(braid.n_strands) if s not in comps[ci]]
            new = {s: k for k, s in enumerate(survivors)}
            assert reduced.colors == tuple(braid.colors[s] for s in survivors)
            perm, perm_new = underlying_permutation(braid.word), underlying_permutation(reduced.word)
            assert [perm_new[new[s]] for s in survivors] == [new[perm[s]] for s in survivors]
            # Old component index -> new one, through the component's first strand.
            comps_new = components(reduced)
            renumber = {
                c: next(k for k, cn in enumerate(comps_new) if new[comp[0]] in cn)
                for c, comp in enumerate(comps)
                if c != ci
            }
            (_, own, linking), (_, own_after, linking_after) = writhe_breakdown(braid), writhe_breakdown(reduced)
            for c, cn in renumber.items():
                assert self_writhe(reduced)[cn] == own_after[cn] == own[c]
                for d, dn in renumber.items():
                    if c < d:
                        key = (min(cn, dn), max(cn, dn))
                        assert linking_after.get(key, 0) == linking.get((c, d), 0)

    def test_recolor(self):
        braid = colored(2, (1, 1), 2, 1)
        assert cable(braid, [(Spin(4),), (H,)]).colors == (Spin(4), H)

    def test_width_one_keeps_the_word(self):
        rng = random.Random(15)
        from oracles import random_colored_braid

        for _ in range(100):
            braid = random_colored_braid(rng, rng.randint(0, 6), rng.randint(0, 12), 4)
            comps = components(braid)
            recolored = cable(braid, [(Spin(rng.randint(0, 4)),) for _ in comps])
            assert recolored.word == braid.word
            assert components(recolored) == comps

    def test_one_color_tuple_per_component(self):
        with pytest.raises(BraidError, match="3 color tuples for 2 components") as caught:
            cable(colored(3, (1, 1, 1), 1, 1, 0), [(H,), (H,), (H,)])
        assert caught.value.field == "colors"


words = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.integers(min_value=1, max_value=n - 1).flatmap(
                lambda i: st.sampled_from((i, -i))
            ),
            max_size=8,
        ),
    )
)


class TestRoundTripProperty:
    @settings(max_examples=80, deadline=None)
    @given(words)
    def test_parse_format_round_trip(self, data):
        n, letters = data
        word = BraidWord(n, tuple(letters))
        assert parse(f"n={n}; " + " ".join(map(str, letters))) == word


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
spin_texts = st.sampled_from(["1/2", "1", "-1", "1/3", "x", ""])
# Near-valid braids: the letter n is one past the range, and a color list may miss the strand count.
braid_parts = st.integers(0, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.sampled_from([letter for i in range(1, n) for letter in (i, -i)] + [n]), max_size=4),
        st.none() | st.lists(spin_texts, min_size=n, max_size=n) | st.lists(spin_texts, max_size=n + 1),
    )
)


def as_text(parts) -> str:
    n, letters, colors = parts
    return f"n={n}; " + " ".join(map(str, letters)) + ("" if colors is None else "; colors=" + ",".join(colors))


def as_json(parts) -> str:
    n, letters, colors = parts
    return json.dumps({"n": n, "letters": letters} | ({} if colors is None else {"colors": colors}))


braid_inputs = st.one_of(
    st.text(),
    json_values.map(json.dumps),
    st.dictionaries(st.sampled_from(["n", "letters", "colors"]), json_values).map(json.dumps),
    braid_parts.map(as_text),
    braid_parts.map(as_json),
)


class TestParseAnyContract:
    @settings(max_examples=300, deadline=None)
    @given(braid_inputs, st.none() | st.lists(st.sampled_from([HALF, ONE]), max_size=4))
    def test_returns_a_braid_or_raises_input_error(self, text, colors):
        try:
            parsed = parse_any(text, colors)
        except InputError:
            return
        assert isinstance(parsed, (BraidWord, ColoredBraid))

    @settings(max_examples=200, deadline=None)
    @given(
        # An empty spin text vanishes from a one-item text list, so it has no text twin.
        braid_parts.filter(lambda parts: parts[2] is None or "" not in parts[2]),
        st.none() | st.lists(st.sampled_from([HALF, ONE]), max_size=4),
    )
    def test_text_and_json_twins_agree(self, parts, colors):
        def outcome(text):
            try:
                return parse_any(text, colors)
            except InputError:
                return InputError

        assert outcome(as_text(parts)) == outcome(as_json(parts))
