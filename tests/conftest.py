import pytest

import germforge.stdbasis as stdbasis


@pytest.fixture
def basis_calls(monkeypatch):
    """The ranks of every std_basis_vectors call."""
    real = stdbasis.std_basis_vectors
    calls = []

    def counted(vectors, rank):
        calls.append(rank)
        return real(vectors, rank)

    monkeypatch.setattr(stdbasis, "std_basis_vectors", counted)
    return calls


@pytest.fixture
def reduce_calls(monkeypatch):
    """The number of stdbasis.reduce_vector calls, one per global normal
    form, in a one-element list."""
    real = stdbasis.reduce_vector
    calls = [0]

    def counted(v, basis):
        calls[0] += 1
        return real(v, basis)

    monkeypatch.setattr(stdbasis, "reduce_vector", counted)
    return calls
