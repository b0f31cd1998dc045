"""Reduced words in a free group over an arbitrary generator alphabet.

A letter is a pair ``(gen, sign)`` with ``gen`` a string and ``sign`` in
``{+1, -1}``; a word is a tuple of letters that carries no ``x x^-1``
cancellation.  Generator names are arbitrary strings, so the same machinery
serves both the classic one-letter basis (``a``, ``b``, ...) and the loop
generators of an unfolded graph (``0/1:0``, ...).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Tuple

Letter = Tuple[str, int]
Word = Tuple[Letter, ...]

EMPTY: Word = ()


def reduce_word(letters: Iterable[Letter]) -> Word:
    """Freely reduce a letter sequence."""
    out: list[Letter] = []
    for gen, sign in letters:
        if out and out[-1][0] == gen and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((gen, sign))
    return tuple(out)


def mul(*words: Iterable[Letter]) -> Word:
    letters: list[Letter] = []
    for w in words:
        letters.extend(w)
    return reduce_word(letters)


def inv(word: Sequence[Letter]) -> Word:
    return tuple((gen, -sign) for gen, sign in reversed(word))


def substitute(word: Iterable[tuple], images: Mapping[str, Word] | Sequence[Word]) -> Word:
    """The reduced word read off ``word`` with each letter ``(g, s)``
    replaced by ``images[g]`` (inverted when ``s`` is -1).

    Letters need only be ``(key, sign)`` pairs, so a dart path ``(edge,
    direction)`` reads through a list of edge words the same way a word
    reads through a dict of generator images.
    """
    out: list[Letter] = []
    for g, s in word:
        img = images[g]
        out.extend(img if s > 0 else inv(img))
    return reduce_word(out)


def power(word: Sequence[Letter], n: int) -> Word:
    if n < 0:
        return power(inv(word), -n)
    out: Word = EMPTY
    for _ in range(n):
        out = mul(out, word)
    return out


def conjugate(word: Sequence[Letter], by: Sequence[Letter]) -> Word:
    """Return ``by * word * by^-1``."""
    return mul(by, word, inv(by))


def gen(name: str, sign: int = 1) -> Word:
    return ((name, sign),)


def support(word: Sequence[Letter]) -> frozenset[str]:
    return frozenset(g for g, _ in word)


def cyclic_reduce(word: Sequence[Letter]) -> tuple[Word, Word]:
    """Split ``word = p * c * p^-1`` with ``c`` cyclically reduced.

    Returns ``(c, p)``.
    """
    w = reduce_word(word)
    i, j = 0, len(w) - 1
    while i < j and w[i][0] == w[j][0] and w[i][1] == -w[j][1]:
        i, j = i + 1, j - 1
    return w[i : j + 1], w[:i]


def cyclic_normal_form(word: Sequence[Letter]) -> Word:
    """Lexicographically least rotation of the cyclic reduction.

    Two words are conjugate iff their normal forms agree.
    """
    core, _ = cyclic_reduce(word)
    if not core:
        return EMPTY
    rotations = [core[i:] + core[:i] for i in range(len(core))]
    return min(rotations)


def is_conjugate(w1: Sequence[Letter], w2: Sequence[Letter]) -> bool:
    """Whether the cyclic reductions are rotations of each other, which is
    ``cyclic_normal_form(w1) == cyclic_normal_form(w2)``."""
    c1, _ = cyclic_reduce(w1)
    c2, _ = cyclic_reduce(w2)
    if len(c1) != len(c2):
        return False
    return not c1 or any(c1[i] == c2[0] and c1[i:] + c1[:i] == c2 for i in range(len(c1)))


def conjugator(w1: Sequence[Letter], w2: Sequence[Letter]) -> Word | None:
    """Find ``u`` with ``u * w2 * u^-1 == w1``, or ``None``.

    The answer is one representative; the full solution set is the coset
    ``u * C(w2)`` over the centralizer of ``w2``.
    """
    c1, p1 = cyclic_reduce(w1)
    c2, p2 = cyclic_reduce(w2)
    if len(c1) != len(c2):
        return None
    if not c1:
        return EMPTY
    for j in range(len(c2)):
        # c2 = s t (split at j), rotation t s == c1 gives u = p1 * t * p2^-1
        s, t = c2[:j], c2[j:]
        if t + s == c1:
            return mul(p1, t, inv(p2))
    return None


def root_of(word: Sequence[Letter]) -> tuple[Word, int]:
    """Maximal root: ``word = r^k`` with ``k`` maximal (cyclically reduced input).

    Returns ``(r, k)``; the empty word yields ``((), 0)``.
    """
    w = reduce_word(word)
    n = len(w)
    if n == 0:
        return EMPTY, 0
    for d in range(1, n + 1):
        if n % d:
            continue
        cand = w[:d]
        if power(cand, n // d) == w:
            return cand, n // d
    return w, 1


# Text form: single lowercase letters are generators, uppercase their
# inverses (so "acBC" means a c b^-1 c^-1).  Multi-character generator names
# use the bracketed form "[name]" / "[name]^-1".


def word_from_str(text: str) -> Word:
    text = text.strip()
    if text in ("", "1"):
        return EMPTY
    letters: list[Letter] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "[":
            j = text.find("]", i)
            if j <= i + 1:
                raise ValueError(f"{'unclosed [' if j < 0 else 'empty generator name []'} in word {text!r}")
            name = text[i + 1 : j]
            i = j + 1
            sign = 1
            if text[i : i + 3] == "^-1":
                sign = -1
                i += 3
            letters.append((name, sign))
        elif ch.isalpha() and (ch.islower() or ch.isupper()):  # a caseless letter has no inverse spelling
            letters.append((ch, 1) if ch.islower() else (ch.lower(), -1))
            i += 1
        elif ch in " \t,.":
            i += 1
        else:
            raise ValueError(f"bad character {ch!r} in word {text!r}")
    return reduce_word(letters)


def word_to_str(word: Sequence[Letter]) -> str:
    if not word:
        return "1"
    parts = []
    simple = all(len(g) == 1 and g.isalpha() and g.islower() for g, _ in word)
    for g, s in word:
        if simple:
            parts.append(g if s > 0 else g.upper())
        else:
            parts.append(f"[{g}]" if s > 0 else f"[{g}]^-1")
    return "".join(parts)
