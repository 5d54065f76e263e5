import pytest

from negsim import rowkernel


def pytest_addoption(parser):
    parser.addoption(
        "--long",
        action="store_true",
        default=False,
        help="run the long acceptance checks (transition-location collapse)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "long: long-running acceptance checks, enabled with --long"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--long"):
        return
    skip = pytest.mark.skip(reason="pass --long to run")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def numpy_path(monkeypatch):
    """Switch the compiled row kernel off for one test, so every caller runs
    its numpy path; the replay, property and golden tests rerun under it."""
    monkeypatch.setattr(rowkernel, "LIB", None)


@pytest.fixture(params=["kernel", "numpy"])
def both_paths(request):
    """Run a test once as is and once with the row kernel switched off."""
    if request.param == "numpy":
        request.getfixturevalue("numpy_path")
    return request.param
