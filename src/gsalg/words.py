"""Words in the free monoid on d ordered letters, addressed by integers.

A word of degree k over d letters is stored as (k, idx) where idx is the
base-d value of its letter sequence, most significant digit first.  For
fixed degree, index order is exactly left-to-right lexicographic order
with letter 0 smallest.  Concatenation is then one multiply and one add,
and for d = 2 whole sets of words live comfortably in Python ints/sets.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

__all__ = [
    "num_words",
    "concat",
    "word_letters",
    "word_from_letters",
    "word_str",
    "parse_word",
    "letter_names",
    "all_subwords2",
]


def num_words(d: int, k: int) -> int:
    return d ** k


def concat(d: int, k1: int, i1: int, k2: int, i2: int) -> Tuple[int, int]:
    """Index of the concatenation of (k1, i1) and (k2, i2)."""
    return k1 + k2, i1 * d ** k2 + i2


def word_letters(d: int, k: int, idx: int) -> List[int]:
    """Letters of the word, leftmost first."""
    out = [0] * k
    for pos in range(k - 1, -1, -1):
        idx, r = divmod(idx, d)
        out[pos] = r
    return out


def word_from_letters(d: int, letters: Sequence[int]) -> Tuple[int, int]:
    idx = 0
    for a in letters:
        if not 0 <= a < d:
            raise ValueError(f"letter {a} out of range for alphabet size {d}")
        idx = idx * d + a
    return len(letters), idx


def letter_names(d: int) -> List[str]:
    if d == 2:
        return ["x", "y"]
    return [f"x{i + 1}" for i in range(d)]


def word_str(d: int, k: int, idx: int, names: Sequence[str] | None = None) -> str:
    """Human form with exponent runs, e.g. x^2*y*x; degree 0 prints as 1."""
    if k == 0:
        return "1"
    if names is None:
        names = letter_names(d)
    runs: List[Tuple[int, int]] = []
    for a in word_letters(d, k, idx):
        if runs and runs[-1][0] == a:
            runs[-1] = (a, runs[-1][1] + 1)
        else:
            runs.append((a, 1))
    return "*".join(names[a] if e == 1 else f"{names[a]}^{e}" for a, e in runs)


def parse_word(d: int, text: str) -> Tuple[int, int]:
    """Inverse of word_str for plain concatenations like x^2*y or xxy."""
    letters: List[int] = []
    names = letter_names(d)
    lookup = {nm: i for i, nm in enumerate(names)}
    if d <= 2:
        lookup.setdefault("x1", 0)
        if d == 2:
            lookup.setdefault("x2", 1)
    i = 0
    text = text.strip()
    while i < len(text):
        c = text[i]
        if c in "* \t":
            i += 1
            continue
        if not c.isalpha():
            raise ValueError(f"unexpected character {c!r} in word")
        j = i + 1
        while j < len(text) and text[j].isdigit():
            j += 1
        name = text[i:j]
        if name not in lookup:
            raise ValueError(f"unknown letter {name!r}")
        exp = 1
        i = j
        if i < len(text) and text[i] == "^":
            i += 1
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i:
                raise ValueError("missing exponent after ^")
            exp = int(text[i:j])
            i = j
        letters.extend([lookup[name]] * exp)
    return word_from_letters(d, letters)


def all_subwords2(k: int, idx: int, length: int) -> Iterator[int]:
    """Indices of all factors of given length of a degree-k word (d = 2)."""
    mask = (1 << length) - 1
    for shift in range(k - length, -1, -1):
        yield (idx >> shift) & mask
