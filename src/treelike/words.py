"""Words over a finite alphabet with formal inverses, and free reduction.

A word is a tuple of nonzero ints: the letter ``k > 0`` stands for the
alphabet symbol with index ``k - 1``, and ``-k`` for its formal inverse.
The empty tuple is the identity.  Two words represent the same element of
the free group iff their reduced forms are equal tuples.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Sequence

Letter = int
Word = tuple  # tuple[Letter, ...]

DEFAULT_ALPHABET = tuple("abcdefghijklmnopqrstuvwxyz")


def letter_base(x: Letter) -> int:
    """Alphabet index (0-based) of a signed letter."""
    return abs(x) - 1


def invert_word(w: Sequence[Letter]) -> Word:
    """Reverse the sequence and invert each letter."""
    return tuple(-x for x in reversed(w))


def reduce_word(w: Iterable[Letter]) -> Word:
    """Unique freely reduced form of w (stack cancellation)."""
    out: list[Letter] = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def is_reduced(w: Sequence[Letter]) -> bool:
    return all(w[i] != -w[i + 1] for i in range(len(w) - 1))


def concat(u: Sequence[Letter], v: Sequence[Letter]) -> Word:
    """Reduced product of two words."""
    return reduce_word(tuple(u) + tuple(v))


def path_label(parent, v) -> Word:
    """Label of the path from the root to v in a parent map, where
    parent[v] is (u, label) for the vertex u that v hangs from, and
    None at the root: a group's enumeration tree, a search of its
    Cayley graph, a spanning tree, or a `stallings.breadth_first` map."""
    out = []
    while parent[v] is not None:
        v, x = parent[v]
        out.append(x)
    return tuple(reversed(out))


def parse_word(text: str, alphabet: Sequence[str] = DEFAULT_ALPHABET) -> Word:
    """Parse the text form: whitespace-separated letter names, each
    optionally followed by an integer power suffix such as ``^-1``.

    Example: ``"a b^-1 a"``.  The empty string is the empty word.
    """
    index = {name: i for i, name in enumerate(alphabet)}
    out: list[Letter] = []
    for pos, token in enumerate(text.split()):
        name, sep, power = token.partition("^")
        if sep:
            try:
                n = int(power)
            except ValueError:
                raise ValueError(
                    "token %d (%r): bad power %r" % (pos, token, power)
                ) from None
        else:
            n = 1
        if name not in index:
            raise ValueError("token %d (%r): unknown letter %r" % (pos, token, name))
        x = index[name] + 1
        out.extend([x if n > 0 else -x] * abs(n))
    return tuple(out)


def word_str(w: Sequence[Letter], alphabet: Sequence[str] = DEFAULT_ALPHABET) -> str:
    """Text form of a word; inverse letters get a ``^-1`` suffix."""
    parts = []
    for x in w:
        base = letter_base(x)
        if not 0 <= base < len(alphabet):
            raise ValueError("letter index %d outside alphabet" % base)
        parts.append(alphabet[base] if x > 0 else alphabet[base] + "^-1")
    return " ".join(parts)


def reduced_word_sampler(rng: random.Random, n_letters: int
                         ) -> Callable[[int], Word]:
    """draw(length): a uniform non-backtracking walk, a random reduced
    word of exactly the given length (alphabet must have at least one
    letter).  Each letter is one rng.choice over the letters 1, -1, 2,
    -2, ... other than the inverse of the previous one; the sampler
    builds these lists once."""
    if n_letters < 1:
        raise ValueError("need at least one letter")
    choices = [x for b in range(1, n_letters + 1) for x in (b, -b)]
    allowed = {x: [y for y in choices if y != -x] for x in choices}
    allowed[0] = choices

    def draw(length: int) -> Word:
        out: list[Letter] = []
        x = 0
        for _ in range(length):
            x = rng.choice(allowed[x])
            out.append(x)
        return tuple(out)

    return draw


def random_reduced_word(rng: random.Random, n_letters: int, length: int) -> Word:
    """One draw of reduced_word_sampler(rng, n_letters)."""
    return reduced_word_sampler(rng, n_letters)(length)
