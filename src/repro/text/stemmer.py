"""The Porter stemming algorithm (Porter, 1980), implemented from scratch.

Keyword search conflates "sensors"/"sensor", "measurements"/"measurement"
etc. through this stemmer. The implementation follows the original paper's
five steps and condition predicates (measure ``m``, ``*v*``, ``*d``,
``*o``); words of length <= 2 are returned unchanged, as Porter specifies.
The stem is a pure function of its word, so :func:`porter_stem` keeps
the most recent ``STEM_CACHE_SIZE`` words' stems.
"""

from __future__ import annotations

from functools import lru_cache

#: Words whose stems :func:`porter_stem` keeps; bounded, so a long-lived
#: server indexing ever-new serials and timestamps stays bounded too.
STEM_CACHE_SIZE = 65_536

_VOWELS = set("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Return m, the number of VC sequences in ``stem``."""
    forms = []
    for i in range(len(stem)):
        is_c = _is_consonant(stem, i)
        if not forms or forms[-1] != is_c:
            forms.append(is_c)
    # forms is like [C, V, C, V, ...]; count V->C transitions.
    count = 0
    for i in range(1, len(forms)):
        if forms[i] and not forms[i - 1]:
            count += 1
    return count


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """*o: stem ends CVC where the final C is not w, x or y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _replace_suffix(word: str, suffix: str, replacement: str, min_measure: int) -> str | None:
    """If ``word`` ends with ``suffix`` and the stem has measure > min, replace."""
    if not word.endswith(suffix):
        return None
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_measure:
        return stem + replacement
    return word  # matched but condition failed: stop scanning this step


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        if _measure(stem) > 0:
            return word[:-1]
        return word
    matched = None
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        matched = word[:-2]
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        matched = word[:-3]
    if matched is None:
        return word
    if matched.endswith(("at", "bl", "iz")):
        return matched + "e"
    if _ends_double_consonant(matched) and matched[-1] not in "lsz":
        return matched[:-1]
    if _measure(matched) == 1 and _ends_cvc(matched):
        return matched + "e"
    return matched


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2 = [
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
]

_STEP3 = [
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
]

_STEP4 = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


def _apply_rules(word: str, rules, min_measure: int = 0) -> str:
    for suffix, replacement in rules:
        result = _replace_suffix(word, suffix, replacement, min_measure)
        if result is not None:
            return result
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > 1:
                return stem
            return word
    # (m>1 and (*S or *T)) ION
    if word.endswith("ion"):
        stem = word[:-3]
        if _measure(stem) > 1 and stem and stem[-1] in "st":
            return stem
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1:
            return stem
        if m == 1 and not _ends_cvc(stem):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


@lru_cache(maxsize=STEM_CACHE_SIZE)
def porter_stem(word: str) -> str:
    """Return the Porter stem of ``word`` (assumed lower-case).

    >>> porter_stem("measurements")
    'measur'
    >>> porter_stem("sensors")
    'sensor'
    """
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_rules(word, _STEP2)
    word = _apply_rules(word, _STEP3)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
