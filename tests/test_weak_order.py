"""Tests for the shared weak-order engine: one divided difference per chain
node on a cold cache, and the rank check on every chain move."""

from __future__ import annotations

import pytest

from invschub import weak_order
from invschub.involutions import identity_involution, inv_schubert, involutions
from invschub.mu_involutions import (
    Composition,
    identity_mu_involution,
    mu_inv_schubert,
    mu_involutions,
)
from invschub.weak_order import clear_cache, lhat_mu


def test_cold_descent_divides_once_per_node_below_the_top(monkeypatch):
    calls = []
    real = weak_order.divided_difference

    def counted(f, i):
        calls.append(i)
        return real(f, i)

    monkeypatch.setattr(weak_order, "divided_difference", counted)
    families = [(list(involutions(n)), inv_schubert) for n in (5, 6)] + [
        (list(mu_involutions(Composition(parts))), mu_inv_schubert)
        for parts in ((3, 2), (2, 2, 2), (1, 4))
    ]
    for elements, polynomial in families:
        clear_cache()
        calls.clear()
        for x in elements:
            polynomial(x)
        assert len(calls) == len(elements) - 1, elements[0]
    clear_cache()


def test_every_chain_move_is_rank_checked(monkeypatch):
    # A block that is not an involution is rejected by the rank itself.
    with pytest.raises(AssertionError):
        lhat_mu((3, 4, 2, 1), (0, 3, 4))
    monkeypatch.setattr(weak_order, "lhat_mu", lambda word, nu: 0)
    clear_cache()
    with pytest.raises(AssertionError):
        inv_schubert(identity_involution(3))
    with pytest.raises(AssertionError):
        mu_inv_schubert(identity_mu_involution(Composition((2, 1))))
    clear_cache()
