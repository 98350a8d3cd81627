"""
The four benchmark workloads.

Each workload has two halves that never mix:

- generation (`rounds`) turns a seed into plain data (tuples of ints and
  strings) without importing qlink, so the program receives only the
  generated inputs and the same seed always yields the same inputs;
- execution (`prepare`, `build`, `run`, `check`) takes a namespace of freshly
  imported qlink modules and drives the public API.

Inputs come in rounds.  Every round of a workload has the same composition
(the same number of ops of each size class); the seed chooses the concrete
words, colorings and spin orders inside each class.  The timed loop stops on a
round boundary, so a run always measures whole rounds and its throughput does
not depend on which expensive inputs happened to fall inside the time window.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def permutation_of(n: int, letters) -> tuple[int, ...]:
    """Bottom position -> top position of every strand (letters read bottom-up)."""
    pos = list(range(n))  # pos[slot] = strand currently in that slot
    for letter in letters:
        i = abs(letter) - 1
        pos[i], pos[i + 1] = pos[i + 1], pos[i]
    perm = [0] * n
    for slot, strand in enumerate(pos):
        perm[strand] = slot
    return tuple(perm)


def cycles_of(perm) -> list[tuple[int, ...]]:
    seen, out = set(), []
    for s in range(len(perm)):
        if s in seen:
            continue
        cyc, t = [], s
        while t not in seen:
            seen.add(t)
            cyc.append(t)
            t = perm[t]
        out.append(tuple(cyc))
    return out


def random_letters(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    """Same draw as tests/oracles.random_word: random sign times random generator."""
    return tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))


def word_text(n: int, letters) -> str:
    return f"n={n}; " + " ".join(str(x) for x in letters)


def spin_text(twice_j: int) -> str:
    return str(twice_j // 2) if twice_j % 2 == 0 else f"{twice_j}/2"


def poly_digest(q, value) -> str:
    data = json.dumps(q.laurent.poly_to_json(value), separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def value_at_one(q, value) -> Fraction:
    """The polynomial at v = 1, read off the public JSON wire format; must be real."""
    total = Fraction(0)
    for _, re_num, re_den, im_num, _ in q.laurent.poly_to_json(value):
        if im_num:
            raise ValueError("imaginary coefficient in a closure value")
        total += Fraction(re_num, re_den)
    return total


def load_pinned() -> dict:
    with open(HERE / "pinned.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# fundamental-corpus
# ---------------------------------------------------------------------------


class FundamentalCorpus:
    """
    The c10-shaped corpus, colors all 1/2: every word with n <= 4 up to the
    c10 lengths plus seeded random words (n = 3 and 4, length 4-8).  One op
    evaluates both pipelines; the check is that they agree.  Thousands of tiny
    ops: per-call overhead in laurent, tensorop and tl dominates.
    """

    name = "fundamental-corpus"
    chunk = 100
    exhaustive_lengths = ((2, 8), (3, 5), (4, 3))

    def corpus(self, seed: int) -> list[tuple[int, tuple[int, ...]]]:
        words = []
        for n, max_len in self.exhaustive_lengths:
            alphabet = [s * g for g in range(1, n) for s in (1, -1)]
            for length in range(max_len + 1):
                words.extend((n, letters) for letters in itertools.product(alphabet, repeat=length))
        rng = _rng(self.name, seed, "random-words")
        words.extend((4, random_letters(rng, 4, rng.randint(4, 8))) for _ in range(500))
        words.extend((3, random_letters(rng, 3, rng.randint(4, 8))) for _ in range(300))
        return words

    def rounds(self, seed: int):
        words = self.corpus(seed)
        for p in itertools.count():
            order = list(words)
            _rng(self.name, seed, "pass", p).shuffle(order)
            for start in range(0, len(order), self.chunk):
                yield order[start : start + self.chunk]

    def prepare(self, q, seed: int) -> None:
        half = q.tensorop.HALF
        q.rmatrix.braided_r(half, half)
        q.rmatrix.braided_r_inv(half, half)

    def build(self, q, spec):
        n, letters = spec
        return q.braid.BraidWord(n, letters)

    def run(self, q, word):
        return (
            q.invariant.rt_invariant(q.invariant.all_half(word)),
            q.invariant.cs_invariant_fundamental(word),
        )

    def check(self, q, spec, result) -> bool:
        rt, cs = result
        return rt == cs


# ---------------------------------------------------------------------------
# colored-braids
# ---------------------------------------------------------------------------


def _colored_classes():
    """(n, sorted twice-spins, ops per round): fewer ops per round for bigger spaces."""
    out = []
    for n, spins, max_total in ((2, (2, 3, 4), 7), (3, (1, 2, 3), 8)):
        for colors in itertools.combinations_with_replacement(spins, n):
            if sum(colors) > max_total:
                continue
            dim = 1
            for tj in colors:
                dim *= tj + 1
            quota = 4 if dim <= 16 else 2 if dim <= 24 else 1
            out.append((n, colors, quota))
    return tuple(out)


class ColoredBraids:
    """
    Seeded random colored closed braids, one color per closure component, drawn
    as tests/oracles.random_colored_braid draws them but conditioned on a color
    class: two strands at 2j in [2, 4] with 2j_1 + 2j_2 <= 7, three strands at
    2j in [1, 3] with the 2j summing to at most 8, length 4-8.  One op is
    rt_invariant(b).

    Every round holds the same classes (fewer ops for bigger spaces), and each
    op of a class takes the next length of a fixed cycle, so rounds cost about
    the same for every seed.
    """

    name = "colored-braids"
    classes = _colored_classes()
    lengths = (4, 5, 6, 7, 8)

    def _draw(self, rng, n: int, colors, length: int):
        for _ in range(10000):
            letters = random_letters(rng, n, length)
            arrangement = list(colors)
            rng.shuffle(arrangement)
            perm = permutation_of(n, letters)
            if all(arrangement[perm[s]] == arrangement[s] for s in range(n)):
                return letters, tuple(arrangement)
        raise RuntimeError(f"no braid found for {n} strands, colors {colors}, length {length}")

    def rounds(self, seed: int):
        pinned = load_pinned().get(self.name, {})
        pinned_round = pinned.get("round0") if seed == pinned.get("seed") else None
        for r in itertools.count():
            rng = _rng(self.name, seed, "round", r)
            specs = []
            for c, (n, colors, quota) in enumerate(self.classes):
                # A coloring with all-distinct colors needs a pure braid, so an even length.
                allowed = [L for L in self.lengths if len(set(colors)) < n or L % 2 == 0]
                for k in range(quota):
                    length = allowed[(r * quota + k + c) % len(allowed)]
                    letters, arrangement = self._draw(rng, n, colors, length)
                    specs.append([n, letters, arrangement, None])
            rng.shuffle(specs)
            if r == 0 and pinned_round is not None:
                for spec, digest in zip(specs, pinned_round):
                    spec[3] = digest
            yield [tuple(s) for s in specs]

    def prepare(self, q, seed: int) -> None:
        spins = sorted({tj for _, colors, _ in self.classes for tj in colors})
        for a in spins:
            for b in spins:
                ja, jb = q.tensorop.Spin(a), q.tensorop.Spin(b)
                q.rmatrix.braided_r(ja, jb)
                q.rmatrix.braided_r_inv(ja, jb)

    def build(self, q, spec):
        n, letters, colors, _ = spec
        return q.braid.ColoredBraid(q.braid.BraidWord(n, letters), tuple(q.tensorop.Spin(t) for t in colors))

    def run(self, q, braid):
        return q.invariant.rt_invariant(braid)

    def check(self, q, spec, result) -> bool:
        n, letters, colors, digest = spec
        expected = 1
        for cyc in cycles_of(permutation_of(n, letters)):
            expected *= colors[cyc[0]] + 1
        if value_at_one(q, result) != expected:
            return False
        return digest is None or poly_digest(q, result) == digest


# ---------------------------------------------------------------------------
# aw-sweep
# ---------------------------------------------------------------------------


class AwSweep:
    """
    Spin triples with 2j <= 3.  Every round visits each of the 20 spin
    multisets once with verify_routes and verify_expansion, and with verify_aw
    where the triple's space has dimension at most 27 (verify_aw on the four
    larger multisets takes 1.4-5 s per call).  The leg order of a multiset
    steps through its distinct orders from round to round, starting at a
    seeded offset: the order changes an op's cost by up to 1.9x, and drawing
    it at random spread op_p90_ms by 13 % across seeds.
    Each op starts from an empty Askey-Wilson element cache, so it builds its own
    Casimirs; R-matrices stay warm from set-up.
    """

    name = "aw-sweep"
    max_twice_spin = 3
    aw_max_dim = 27

    def rounds(self, seed: int):
        multisets = itertools.combinations_with_replacement(range(self.max_twice_spin + 1), 3)
        orders = [sorted(set(itertools.permutations(ms))) for ms in multisets]
        start = _rng(self.name, seed, "leg-orders")
        offsets = [start.randrange(len(o)) for o in orders]
        for r in itertools.count():
            rng = _rng(self.name, seed, "round", r)
            specs = []
            for ordered, offset in zip(orders, offsets):
                legs = ordered[(offset + r) % len(ordered)]
                dim = (legs[0] + 1) * (legs[1] + 1) * (legs[2] + 1)
                specs.append(("routes", legs))
                specs.append(("expansion", legs))
                if dim <= self.aw_max_dim:
                    specs.append(("relations", legs))
            rng.shuffle(specs)
            yield specs

    def prepare(self, q, seed: int) -> None:
        Spin = q.tensorop.Spin
        for a in range(self.max_twice_spin + 1):
            for b in range(self.max_twice_spin + 1):
                q.rmatrix.braided_r(Spin(a), Spin(b))
                q.rmatrix.braided_r_inv(Spin(a), Spin(b))
            j = Spin(a)
            q.rmatrix.l_plus(j)
            q.rmatrix.l_minus(j)
            q.rmatrix.l_plus_inv(j)
            q.rmatrix.l_minus_inv(j)

    def build(self, q, spec):
        suite, legs = spec
        q.aw.clear_cache()
        fn = {"relations": q.aw.verify_aw, "routes": q.aw.verify_routes, "expansion": q.aw.verify_expansion}[suite]
        return fn, q.tensorop.Shape.of(*legs)

    def run(self, q, built):
        fn, shape = built
        return fn(shape)

    def check(self, q, spec, result) -> bool:
        return result.passed and len(result.checks) > 0


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


class Cli:
    """
    Sequential `python -m qlink.cli` processes over a seeded mix: invariant with
    rt, cs and bracket on small fundamental braids, rt on two-strand braids at
    2j <= 4, rmatrix dumps and `verify aw --suite relations` on small triples.
    Every process pays start-up, import, argument parsing and cold caches.
    """

    name = "cli"
    small_triples = tuple(
        t for t in itertools.product(range(3), repeat=3) if (t[0] + 1) * (t[1] + 1) * (t[2] + 1) <= 12
    )
    rmatrix_variants = ("plain", "inverse", "braided", "braided-inverse", "opposite")

    def __init__(self):
        self.memo: dict = {}

    def _fundamental(self, rng, method: str) -> tuple[str, ...]:
        n = rng.randint(2, 3)
        letters = random_letters(rng, n, rng.randint(1, 5))
        argv = ["invariant", "--braid", word_text(n, letters), "--method", method]
        if method == "rt":
            argv += ["--colors", ",".join(["1/2"] * n)]
        return tuple(argv)

    def _colored(self, rng) -> tuple[str, ...]:
        letters = random_letters(rng, 2, rng.randint(2, 3))
        perm = permutation_of(2, letters)
        a = rng.randint(1, 4)
        b = a if perm[0] == 1 else rng.randint(1, 4)
        colors = f"{spin_text(a)},{spin_text(b)}"
        return ("invariant", "--braid", word_text(2, letters), "--colors", colors, "--method", "rt")

    def rounds(self, seed: int):
        for r in itertools.count():
            rng = _rng(self.name, seed, "round", r)
            specs = []
            for _ in range(3):
                for method in ("rt", "cs", "bracket"):
                    specs.append(self._fundamental(rng, method))
            specs.append(self._colored(rng))
            a, b = rng.randint(0, 4), rng.randint(0, 4)
            variant = rng.choice(self.rmatrix_variants)
            specs.append(("rmatrix", "--spins", f"{spin_text(a)},{spin_text(b)}", "--variant", variant))
            triple = rng.choice(self.small_triples)
            spins = ",".join(spin_text(t) for t in triple)
            specs.append(("verify", "aw", "--spins", spins, "--suite", "relations"))
            rng.shuffle(specs)
            yield specs

    def prepare(self, q, seed: int) -> None:
        # `check` computes the expected outputs in this process.
        Spin = q.tensorop.Spin
        for a in range(5):
            for b in range(5):
                q.rmatrix.braided_r(Spin(a), Spin(b))
                q.rmatrix.braided_r_inv(Spin(a), Spin(b))

    def build(self, q, spec):
        return spec

    def run(self, q, argv):
        src = Path(q.cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "qlink.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def expected(self, q, argv) -> str:
        """The stdout the CLI must print, computed in-process from the public API."""
        cmd = argv[0]
        if cmd == "invariant":
            text, method = argv[2], argv[argv.index("--method") + 1]
            colors = None
            if "--colors" in argv:
                colors = tuple(q.tensorop.Spin.parse(c) for c in argv[argv.index("--colors") + 1].split(","))
            parsed = q.braid.parse_any(text, colors)
            if method == "rt":
                value = q.invariant.rt_invariant(parsed)
            elif method == "cs":
                value = q.invariant.cs_invariant_fundamental(parsed)
            else:
                value = q.invariant.kauffman_bracket(parsed)
            return f"{value}\n"
        if cmd == "rmatrix":
            j1, j2 = (q.tensorop.Spin.parse(s) for s in argv[2].split(","))
            fn = {
                "plain": q.rmatrix.r_matrix,
                "inverse": q.rmatrix.r_inverse,
                "braided": q.rmatrix.braided_r,
                "braided-inverse": q.rmatrix.braided_r_inv,
                "opposite": q.rmatrix.r_opposite,
            }[argv[4]]
            return json.dumps(fn(j1, j2).to_json(), indent=2, sort_keys=True) + "\n"
        shape = q.tensorop.Shape(tuple(q.tensorop.Spin.parse(s) for s in argv[3].split(",")))
        return q.aw.verify_aw(shape).summary() + "\n"

    def check(self, q, spec, result) -> bool:
        code, out = result
        if spec not in self.memo:
            self.memo[spec] = self.expected(q, spec)
        return code == 0 and out == self.memo[spec]

    def replica(self, q, argv) -> float:
        """Run cli.main in-process on the same argv; return its wall time."""
        sink = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(sink):
            code = q.cli.main(list(argv))
        dt = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"in-process cli.main exited {code} on {argv}")
        return dt


WORKLOADS = {w.name: w for w in (FundamentalCorpus, ColoredBraids, AwSweep, Cli)}
