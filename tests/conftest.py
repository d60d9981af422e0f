import pytest

from softgrip import default_capacity_model, default_geometry


@pytest.fixture(scope="session")
def geom():
    return default_geometry()


@pytest.fixture(scope="session")
def capacity():
    return default_capacity_model()


@pytest.fixture
def dumps_calls(monkeypatch):
    """The row count of each block geometry.write_columns gives orjson.dumps."""
    import orjson

    seen, dumps = [], orjson.dumps

    def spy(block, **kwargs):
        seen.append(len(block))
        return dumps(block, **kwargs)

    monkeypatch.setattr(orjson, "dumps", spy)
    return seen
