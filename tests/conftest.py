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
