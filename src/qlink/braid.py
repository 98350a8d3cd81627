"""
Colored braid words: parsing, permutation/component analysis, self-writhe
counts, disjoint union, and cabling (one rewiring that deletes,
recolors or cables each component).

A braid word on n strands is a list of nonzero letters +-i with 1 <= i <= n-1;
letter order is bottom to top of the diagram, and the letter +i crosses the
strands currently occupying positions i and i+1 (positive sign = the braid
group generator, negative = its inverse).  Colors are spins attached to the
*bottom* endpoints and are transported upward along strands; a colored braid
is accepted only if its closure is consistently colored, i.e. the color
sequence is invariant under the braid's underlying permutation.

Cabling replaces every strand of a component by a block of adjacent parallel
strands: width 0 deletes the component, width 1 recolors it and width 2
doubles it.  A single crossing of blocks of widths (a, b) becomes a block
crossing word that moves the right block across the left one strand at a
time; the word for a negative crossing is the exact group inverse of the word
for the opposite positive crossing, so cabling respects composition and
cancellation.  Its correctness is enforced by tests (blocked permutations,
crossing counts, and the invariant-level doubling identity) rather than
trusted from the construction.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .laurent import Immutable
from .tensorop import InputError, Spin, parse_int


class BraidError(InputError):
    """Raised for malformed braid words or inconsistent colorings; the field is "braid" unless named."""

    def __init__(self, message: str, field: str = "braid"):
        super().__init__(message, field)


class BraidWord(Immutable):
    """A word in the braid group on n_strands strands (n_strands >= 0)."""

    __slots__ = ("n_strands", "letters")

    def __init__(self, n_strands: int, letters: Sequence[int] = ()):
        if n_strands < 0:
            raise BraidError(f"strand count must be non-negative, got {n_strands}")
        letters = tuple(letters)
        for letter in letters:
            if letter == 0:
                raise BraidError("letter 0 is not a braid generator")
            if not 1 <= abs(letter) <= n_strands - 1:
                raise BraidError(f"letter {letter} out of range for {n_strands} strands")
        object.__setattr__(self, "n_strands", n_strands)
        object.__setattr__(self, "letters", letters)

    def exponent_sum(self) -> int:
        """Total writhe of the closed diagram: the sum of letter signs."""
        return sum(1 if letter > 0 else -1 for letter in self.letters)


def underlying_permutation(word: BraidWord) -> tuple[int, ...]:
    """perm[s] = top position reached by the strand starting at bottom position s."""
    pos = list(range(word.n_strands))  # pos[s] = current position of strand s
    occ = list(range(word.n_strands))  # occ[p] = strand currently at position p
    for letter in word.letters:
        i = abs(letter) - 1
        s1, s2 = occ[i], occ[i + 1]
        occ[i], occ[i + 1] = s2, s1
        pos[s1], pos[s2] = i + 1, i
    return tuple(pos)


class ColoredBraid(Immutable):
    """A braid word with a spin color per bottom endpoint, closure-consistent."""

    __slots__ = ("word", "colors")

    def __init__(self, word: BraidWord, colors: Sequence[Spin]):
        colors = tuple(colors)
        if len(colors) != word.n_strands:
            raise BraidError(f"{len(colors)} colors for {word.n_strands} strands", "colors")
        for s, target in enumerate(underlying_permutation(word)):
            if colors[target] != colors[s]:
                raise BraidError(
                    f"colors are not constant along the closure: strand {s} "
                    f"({colors[s]}) closes onto position {target} ({colors[target]})",
                    "colors",
                )
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "colors", colors)

    @property
    def n_strands(self) -> int:
        return self.word.n_strands


def components(braid: ColoredBraid) -> list[tuple[int, ...]]:
    """
    Cycles of the underlying permutation, i.e. the link components of the
    closure, each listed as a sorted tuple of strand indices; components are
    ordered by smallest strand.  Color consistency along each cycle is already
    guaranteed by the ColoredBraid invariant.
    """
    perm = underlying_permutation(braid.word)
    seen = [False] * braid.n_strands
    cycles = []
    for s in range(braid.n_strands):
        if seen[s]:
            continue
        cycle = []
        t = s
        while not seen[t]:
            seen[t] = True
            cycle.append(t)
            t = perm[t]
        cycles.append(tuple(sorted(cycle)))
    return cycles


def component(braid: ColoredBraid, index: int) -> tuple[int, ...]:
    """The strands of component `index`, numbered as in `components`."""
    comps = components(braid)
    if not 0 <= index < len(comps):
        raise BraidError(f"no component {index}; braid has {len(comps)}", "component")
    return comps[index]


def self_writhe(braid: ColoredBraid) -> list[int]:
    """
    Each component's self-writhe, in `components` order: the sum of the signs
    of the letters that cross two strands of that component.
    """
    comps = components(braid)
    comp_of = {s: ci for ci, comp in enumerate(comps) for s in comp}
    counts = [0] * len(comps)
    occ = list(range(braid.n_strands))  # occ[p] = strand currently at position p
    for letter in braid.word.letters:
        i = abs(letter) - 1
        c = comp_of[occ[i]]
        if c == comp_of[occ[i + 1]]:
            counts[c] += 1 if letter > 0 else -1
        occ[i], occ[i + 1] = occ[i + 1], occ[i]
    return counts


def disjoint_union(a: ColoredBraid, b: ColoredBraid) -> ColoredBraid:
    """Block braid on n_a + n_b strands; b's letters are shifted past a."""
    na = a.n_strands
    letters = a.word.letters + tuple(
        (abs(l) + na) * (1 if l > 0 else -1) for l in b.word.letters
    )
    return ColoredBraid(BraidWord(na + b.n_strands, letters), a.colors + b.colors)


# ---------------------------------------------------------------------------
# Cabling: deletion, recoloring and doubling of components.
# ---------------------------------------------------------------------------


def _block_crossing_word(width_left: int, width_right: int, base: int) -> list[int]:
    """
    Positive letters moving a right block of width_right leftward across a
    block of width_left, one strand at a time; `base` is the 1-based position
    of the left block's leftmost strand.  Intra-block strand order is
    preserved on both sides.
    """
    word = []
    for k in range(width_right):
        word.extend(range(base + width_left - 1 + k, base + k - 1, -1))
    return word


def _rewired_letters(braid: ColoredBraid, width: list[int]) -> tuple[int, ...]:
    """
    The letters of `braid` with strand s replaced by `width[s]` adjacent
    parallel strands: each letter crossing blocks of widths (a, b) becomes the
    block crossing word above; for a negative letter the emitted word is the
    inverse of the positive block word for the swapped widths, so rewiring is
    compatible with the group structure (sigma sigma^-1 cancels letter by
    letter).  A crossing with a width-0 block emits nothing.
    """
    occ = list(range(braid.n_strands))
    letters_out: list[int] = []
    for letter in braid.word.letters:
        i = abs(letter) - 1
        base = 1 + sum(width[occ[t]] for t in range(i))
        wl, wr = width[occ[i]], width[occ[i + 1]]
        if letter > 0:
            letters_out.extend(_block_crossing_word(wl, wr, base))
        else:
            letters_out.extend(-x for x in reversed(_block_crossing_word(wr, wl, base)))
        occ[i], occ[i + 1] = occ[i + 1], occ[i]
    return tuple(letters_out)


def cable(braid: ColoredBraid, colors: Sequence[Sequence[Spin]]) -> ColoredBraid:
    """
    Replace every strand of component c (numbered as in `components`) by
    len(colors[c]) adjacent parallel strands colored colors[c] left to right.
    Width 0 deletes the component: crossings involving it are dropped and the
    remaining letters re-indexed, which is exact at the invariant level
    precisely when the component carries spin 0.  Width 1 recolors it and
    keeps the word; width 2 cables it.
    """
    comps = components(braid)
    if len(colors) != len(comps):
        raise BraidError(f"{len(colors)} color tuples for {len(comps)} components", "colors")
    strand_colors: list[tuple[Spin, ...]] = [()] * braid.n_strands
    for comp, new in zip(comps, colors):
        for s in comp:
            strand_colors[s] = tuple(new)
    width = [len(c) for c in strand_colors]
    return ColoredBraid(
        BraidWord(sum(width), _rewired_letters(braid, width)), tuple(c for cs in strand_colors for c in cs)
    )


# ---------------------------------------------------------------------------
# Text and JSON formats, read only: no route writes a braid.
#
# Text:  "n=<strands>; <letters>[; colors=<c1,c2,...>]" with letters separated
# by spaces or commas and colors written as "1/2", "1", "3/2", ...; an empty
# "colors=" lists no colors, as "colors": [] does in JSON.  Every integer is
# an optional sign and ASCII digits (`parse_int`).
# JSON:   {"n": 2, "letters": [1, 1], "colors": ["1/2", "1/2"]}
# ---------------------------------------------------------------------------


def parse(text: str) -> BraidWord:
    """Parse the word part of the text format (any colors section is rejected)."""
    word, colors = _parse_sections(text)
    if colors is not None:
        raise BraidError("unexpected colors section; use parse_colored")
    return word


def parse_colored(text: str, colors: Optional[Sequence[Spin]] = None) -> ColoredBraid:
    """Parse the full text format; colors may instead be supplied separately."""
    braid = _with_colors(*_parse_sections(text), colors)
    if not isinstance(braid, ColoredBraid):
        raise BraidError("no colors given for a colored braid", "colors")
    return braid


def _with_colors(word: BraidWord, inline: Optional[Sequence[Spin]], colors: Optional[Sequence[Spin]]):
    """
    The word colored by whichever of its inline colors and the separate
    `colors` is given, or the bare word if neither is.  Inline colors that are
    None count as absent, and so do empty ones unless the word has no strands.
    """
    if not inline and word.n_strands:
        inline = None
    if inline and colors is not None:
        raise BraidError("colors given both inline and separately")
    chosen = inline if colors is None else colors
    return word if chosen is None else ColoredBraid(word, tuple(chosen))


def _parse_sections(text: str) -> tuple[BraidWord, Optional[tuple[Spin, ...]]]:
    sections = [s.strip() for s in text.strip().split(";")]
    if not sections or not sections[0].startswith("n="):
        raise BraidError(f"braid text must start with 'n=<strands>': {text!r}")
    try:
        n = parse_int(sections[0][2:])
    except ValueError:
        raise BraidError(f"bad strand count in {sections[0]!r}") from None
    letters: list[int] = []
    colors: Optional[tuple[Spin, ...]] = None
    for section in sections[1:]:
        if not section:
            continue
        if section.startswith("colors="):
            if colors is not None:
                raise BraidError(f"more than one colors= section in {text!r}")
            listed = section[len("colors=") :]
            try:
                colors = tuple(Spin.parse(c) for c in listed.split(",")) if listed else ()
            except ValueError as exc:
                raise BraidError(f"bad colors section: {exc}") from None
        else:
            for token in section.replace(",", " ").split():
                try:
                    letters.append(parse_int(token))
                except ValueError:
                    raise BraidError(f"bad letter {token!r}") from None
    return BraidWord(n, tuple(letters)), colors


def _json_field(data: dict, key: str, valid, expected: str):
    if key not in data:
        raise BraidError(f"braid JSON is missing field {key!r}")
    value = data[key]
    if not valid(value):
        raise BraidError(f"braid JSON field {key!r} must be {expected}, got {value!r}")
    return value


def _word_from_json(data: dict) -> BraidWord:
    n = _json_field(data, "n", lambda v: type(v) is int, "an integer")
    letters = _json_field(
        data, "letters", lambda v: isinstance(v, list) and all(type(l) is int for l in v), "a list of integers"
    )
    return BraidWord(n, tuple(letters))


def _colors_from_json(data: dict) -> tuple[Spin, ...]:
    colors = _json_field(
        data,
        "colors",
        lambda v: isinstance(v, list) and all(isinstance(c, str) for c in v),
        'a list of spin strings such as "1/2"',
    )
    try:
        return tuple(Spin.parse(c) for c in colors)
    except ValueError as exc:
        raise BraidError(f"braid JSON field 'colors': {exc}") from None


def parse_any(text: str, colors: Optional[Sequence[Spin]] = None):
    """
    Parse either the text or the JSON braid format.  Returns a ColoredBraid
    when colors are available (inline, JSON, or passed in) and a bare
    BraidWord otherwise.  A JSON "colors" list that is empty counts as absent.
    """
    stripped = text.strip()
    if not stripped.startswith("{"):
        return _with_colors(*_parse_sections(stripped), colors)
    import json

    try:
        data = json.loads(stripped)
    except (ValueError, RecursionError) as exc:  # ValueError also covers over-long integers
        raise BraidError(f"braid JSON: {exc}") from None
    word = _word_from_json(data)
    return _with_colors(word, _colors_from_json(data) if "colors" in data else None, colors)
