import pytest

import infillbench.de as de


@pytest.fixture
def search_rows(monkeypatch):
    """Rows each ``de.minimize`` search hands its objective, one count per search in call order.

    The objective is wrapped, so a count is what the search evaluated, not
    what it reports.
    """
    counts, original = [], de.minimize

    def counting(objective, *args, **kwargs):
        counts.append(0)
        index = len(counts) - 1

        def counted(vectors):
            counts[index] += len(vectors)
            return objective(vectors)

        return original(counted, *args, **kwargs)

    monkeypatch.setattr(de, "minimize", counting)
    return counts
