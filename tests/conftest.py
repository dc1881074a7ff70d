import pytest

from pgot.engine import Tensor


@pytest.fixture
def tensor_bytes(monkeypatch):
    """The ``largest`` and the ``total`` storage bytes of the tensors built during the test.

    ``Tensor.__init__`` is wrapped, so op outputs count too: ``_make`` builds
    each through it. The count is two numbers, so it adds nothing that grows
    inside a pass whose peak tracemalloc reads.
    """
    counts = {"largest": 0, "total": 0}
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        counts["largest"] = max(counts["largest"], self.data.nbytes)
        counts["total"] += self.data.nbytes

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    return counts
