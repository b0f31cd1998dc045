"""The tracked-fold inverse against the Nielsen reduction it replaced.

``_invert_tuple`` with its ``_whitehead_moves`` and
``_elementary_right_multiply`` is a verbatim copy of the earlier inversion:
Nielsen pair moves, and a Whitehead-move search at each plateau.  The
inverse is unique, so wherever the reference answers, ``inverse`` must give
the identical images; where it finds no reducing move, the new inverse must
compose to the identity on both sides.  Every non-automorphism (a squared
image, a letter outside the basis, a repeated image, an empty image) must
be refused.
"""

import itertools
import random
from typing import Callable, Sequence

import pytest

from propermaps import words as W
from propermaps.stallings import FreeGroupAutomorphism, NotAnAutomorphismError
from propermaps.words import Word
from tests.test_stallings import _nielsen_images

# -- reference: Nielsen reduction with Whitehead moves at plateaus ------------------------------


def _elementary_right_multiply(basis, i, j, side, sign):
    """Automorphism x_i -> x_i x_j^sign (side='R') or x_j^sign x_i (side='L')."""
    imgs = {x: W.gen(x) for x in basis}
    xi, xj = basis[i], basis[j]
    if side == "R":
        imgs[xi] = W.mul(W.gen(xi), W.gen(xj, sign))
    else:
        imgs[xi] = W.mul(W.gen(xj, sign), W.gen(xi))
    return FreeGroupAutomorphism(tuple(basis), imgs)


def _whitehead_moves(basis):
    """Type-II Whitehead automorphisms for a small basis."""
    n = len(basis)
    for a_idx in range(n):
        for a_sign in (1, -1):
            a = (basis[a_idx], a_sign)
            others = [x for x in basis if x != basis[a_idx]]
            for choice in itertools.product(range(4), repeat=len(others)):
                if all(c == 0 for c in choice):
                    continue
                imgs = {basis[a_idx]: W.gen(*a)}
                aw = (a,)
                for x, c in zip(others, choice):
                    if c == 0:
                        imgs[x] = W.gen(x)
                    elif c == 1:
                        imgs[x] = W.mul(W.gen(x), aw)
                    elif c == 2:
                        imgs[x] = W.mul(W.inv(aw), W.gen(x))
                    else:
                        imgs[x] = W.mul(W.inv(aw), W.gen(x), aw)
                yield FreeGroupAutomorphism(tuple(basis), imgs)


def _invert_tuple(basis: Sequence[str], images: Sequence[Word], is_basis: Callable[[], bool]) -> tuple[Word, ...]:
    """Carry (images) to a signed permutation of the basis by elementary moves.

    Tracks pre-moves nu and post-moves alpha so that
    alpha_total ∘ phi ∘ nu_total = pi, whence phi^-1 = nu_total ∘ pi^-1 ∘ alpha_total.
    The moves are automorphisms, so at a plateau ``is_basis()`` (whether the
    original images generate) decides whether a reducing move can exist.
    """
    basis = tuple(basis)
    n = len(basis)
    t = [W.reduce_word(w) for w in images]
    nu_total = FreeGroupAutomorphism.identity(basis)
    alpha_total = FreeGroupAutomorphism.identity(basis)

    def total_len():
        return sum(len(w) for w in t)

    if any(not w for w in t):
        raise NotAnAutomorphismError("image of a generator is trivial")

    while total_len() > n:
        best = None
        # Nielsen pair moves
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for side, sign in (("R", 1), ("R", -1), ("L", 1), ("L", -1)):
                    if side == "R":
                        cand = W.mul(t[i], t[j] if sign > 0 else W.inv(t[j]))
                    else:
                        cand = W.mul(t[j] if sign > 0 else W.inv(t[j]), t[i])
                    if len(cand) < len(t[i]):
                        best = ("pair", i, j, side, sign, cand)
                        break
                if best:
                    break
            if best:
                break
        if best and best[0] == "pair":
            _, i, j, side, sign, cand = best
            if not cand:
                raise NotAnAutomorphismError("tuple degenerated, not a basis")
            t[i] = cand
            nu_total = nu_total.compose(_elementary_right_multiply(basis, i, j, side, sign))
            continue
        # plateau: look for a strictly reducing Whitehead move applied to all coords
        if not is_basis():
            raise NotAnAutomorphismError("tuple is not a basis (it does not generate)")
        found = False
        for alpha in _whitehead_moves(basis):
            new_t = [alpha(w) for w in t]
            if sum(len(w) for w in new_t) < total_len():
                t = new_t
                alpha_total = alpha.compose(alpha_total)
                found = True
                break
        if not found:
            raise NotAnAutomorphismError("tuple is not a basis (no reducing move)")

    # t must now be a signed permutation of the basis
    seen = {}
    for i, w in enumerate(t):
        if len(w) != 1:
            raise NotAnAutomorphismError("reduced tuple is not a signed permutation")
        g, s = w[0]
        if g in seen:
            raise NotAnAutomorphismError("repeated generator in reduced tuple")
        seen[g] = (i, s)
    if set(seen) != set(basis):
        raise NotAnAutomorphismError("reduced tuple misses generators")
    # pi: x_i -> t_i ; build pi^-1 directly
    pi_inv_images = {}
    for g, (i, s) in seen.items():
        pi_inv_images[g] = W.gen(basis[i], s)
    pi_inv = FreeGroupAutomorphism(basis, pi_inv_images)
    inv = nu_total.compose(pi_inv).compose(alpha_total)
    return inv.tuple_images()


# -- the cases -----------------------------------------------------------------------------------


def _random_word(rng, basis, length):
    return W.reduce_word((rng.choice(basis), rng.choice((1, -1))) for _ in range(length))


def _non_automorphisms(rng, basis, images):
    i = rng.randrange(len(basis))
    out = [
        images[:i] + [W.power(images[i], 2)] + images[i + 1 :],
        images[:i] + [W.mul(images[i], W.gen("z"))] + images[i + 1 :],
        images[:i] + [W.EMPTY] + images[i + 1 :],
    ]
    if len(basis) > 1:
        j = rng.choice([j for j in range(len(basis)) if j != i])
        out.append(images[:i] + [images[j]] + images[i + 1 :])
    return out


@pytest.mark.parametrize("seed", range(6))
def test_fold_inverse_matches_nielsen_reduction(seed):
    rng = random.Random(seed)
    for n in range(1, 6):
        basis = tuple(f"x{i}" for i in range(n))
        for _ in range(20):
            aut = _nielsen_images(rng, basis, rng.randrange(16))
            by = _random_word(rng, basis, rng.randrange(4))
            for images in (aut, [W.conjugate(x, by) for x in aut]):
                phi = FreeGroupAutomorphism(basis, dict(zip(basis, images)))
                assert phi.is_automorphism()
                inv = phi.inverse()
                try:
                    # these images are a basis, as the fold of is_automorphism told the reference
                    want = _invert_tuple(basis, images, lambda: True)
                except NotAnAutomorphismError:
                    assert phi.compose(inv).is_identity() and inv.compose(phi).is_identity()
                else:
                    assert inv.tuple_images() == want
                for bad in _non_automorphisms(rng, basis, images):
                    endo = FreeGroupAutomorphism(basis, dict(zip(basis, bad)))
                    assert not endo.is_automorphism()
                    with pytest.raises(NotAnAutomorphismError):
                        endo.inverse()
