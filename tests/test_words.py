import random

import pytest

from treelike.words import (
    DEFAULT_ALPHABET,
    concat,
    invert_word,
    is_reduced,
    letter_base,
    parse_word,
    random_reduced_word,
    reduced_word_sampler,
    reduce_word,
    word_str,
)

A = 1
B = 2


def test_letter_codec():
    assert letter_base(-2) == 1


def test_reduce_examples():
    assert reduce_word((A, -A)) == ()
    assert reduce_word((A, B, -B, A)) == (A, A)
    # stack oracle for the repeated-cancellation case
    assert reduce_word((B, -A, A, -B, A)) == (A,)


def _slow_reduce(w):
    w = list(w)
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] == -w[i + 1]:
                del w[i:i + 2]
                changed = True
                break
    return tuple(w)


def test_reduce_matches_rescan_oracle():
    rng = random.Random(0)
    for _ in range(300):
        w = tuple(rng.choice((A, -A, B, -B)) for _ in range(rng.randint(0, 64)))
        r = reduce_word(w)
        assert r == _slow_reduce(w)
        assert is_reduced(r)


def test_reduce_idempotent_and_congruent():
    rng = random.Random(1)
    for _ in range(300):
        u = tuple(rng.choice((A, -A, B, -B)) for _ in range(rng.randint(0, 64)))
        v = tuple(rng.choice((A, -A, B, -B)) for _ in range(rng.randint(0, 64)))
        assert reduce_word(reduce_word(u)) == reduce_word(u)
        assert reduce_word(u + v) == reduce_word(reduce_word(u) + reduce_word(v))
        assert len(reduce_word(u)) <= len(u)


def test_invert_examples():
    assert invert_word((A, B)) == (-B, -A)
    assert invert_word(()) == ()
    assert invert_word((A, A)) == (-A, -A)


def test_invert_cancels():
    rng = random.Random(2)
    for _ in range(100):
        w = random_reduced_word(rng, 2, rng.randint(0, 20))
        assert reduce_word(concat(w, invert_word(w))) == ()
        assert invert_word(invert_word(w)) == w


def test_concat_reduces():
    assert concat((A, B), (-B, A)) == (A, A)


def test_parse_word_basics():
    assert parse_word("a b^-1 a") == (A, -B, A)
    assert parse_word("") == ()
    assert parse_word("a^2 b^-2") == (A, A, -B, -B)
    assert parse_word("x y", ("x", "y")) == (A, B)


def test_parse_word_diagnostics():
    with pytest.raises(ValueError, match="token 1.*unknown letter"):
        parse_word("a q b", ("a", "b"))
    with pytest.raises(ValueError, match="bad power"):
        parse_word("a^x")


def test_word_str_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        w = random_reduced_word(rng, 2, rng.randint(0, 15))
        assert parse_word(word_str(w)) == w
    assert word_str(()) == ""
    assert word_str((A, -B), DEFAULT_ALPHABET) == "a b^-1"


@pytest.mark.parametrize("w", [(0,), (1, 0), (3,), (-3,)])
def test_word_str_refuses_letters_outside_the_alphabet(w):
    """Letter 0 is no letter: it does not read as the last inverse."""
    with pytest.raises(ValueError, match="outside alphabet"):
        word_str(w, ("a", "b"))


def _per_letter_word(rng, n_letters, length):
    """random_reduced_word as first written: the allowed letters are
    rebuilt before every draw."""
    out = []
    choices = [x for b in range(1, n_letters + 1) for x in (b, -b)]
    for _ in range(length):
        allowed = [x for x in choices if not out or x != -out[-1]]
        out.append(rng.choice(allowed))
    return tuple(out)


def test_sampler_keeps_the_per_letter_rng_stream():
    for n_letters in (1, 2, 3):
        for seed in range(4):
            got, want = random.Random(seed), random.Random(seed)
            draw = reduced_word_sampler(got, n_letters)
            for length in (0, 1, 2, 5, 13):
                assert draw(length) == _per_letter_word(want, n_letters,
                                                        length)
                assert random_reduced_word(got, n_letters, length) == \
                    _per_letter_word(want, n_letters, length)
            assert got.random() == want.random()
    with pytest.raises(ValueError, match="at least one letter"):
        reduced_word_sampler(random.Random(0), 0)


def test_random_reduced_word_properties():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 12)
        w = random_reduced_word(rng, 3, n)
        assert len(w) == n
        assert is_reduced(w)
        assert all(1 <= abs(x) <= 3 for x in w)
