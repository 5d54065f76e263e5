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


@pytest.fixture
def use_build(tmp_path, monkeypatch):
    """A function that builds the row kernel into tmp_path, with extra
    compiler flags and from its source passed through edit (text to text),
    and makes that build rowkernel.LIB for the rest of the test."""

    def build(extra=(), edit=None):
        if edit is not None:
            source = tmp_path / "rowkernel.c"
            source.write_text(edit(rowkernel.SOURCE.read_text()))
            monkeypatch.setattr(rowkernel, "SOURCE", source)
        monkeypatch.setattr(rowkernel, "FLAGS", rowkernel.FLAGS + tuple(extra))
        monkeypatch.setattr(rowkernel, "CACHE_DIRS", (tmp_path,))
        lib = rowkernel.load()
        assert lib is not None and len(list(tmp_path.glob("rowkernel-*.so"))) == 1
        monkeypatch.setattr(rowkernel, "LIB", lib)

    return build
