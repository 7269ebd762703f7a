import pytest


@pytest.fixture(autouse=True)
def default_cut_angle(monkeypatch):
    """Run every test under the default branch cut.

    ``main()`` reads ``HARMONIA_CUT_ANGLE`` in-process and the CLI tests start
    ``python -m harmonia`` children that inherit ``os.environ``, so a value
    exported in the caller's shell would rotate the cut under tests that
    expect the default one. A test that wants a rotated cut sets it itself.
    """
    monkeypatch.delenv("HARMONIA_CUT_ANGLE", raising=False)


@pytest.fixture
def no_quadrature(monkeypatch):
    """``integrate_path`` made to raise in every module that binds it, so a
    test fails on any quadrature its code runs."""
    # imported here, so that a tree where harmonia does not import still
    # collects each test module on its own
    from harmonia import numerics, operators, reflection

    def refuse(*args, **kwargs):
        raise AssertionError("integrate_path was called")

    for module in (numerics, operators, reflection):
        monkeypatch.setattr(module, "integrate_path", refuse)
