"""What ``import harmonia`` loads: the calculus and its oracles, and the
verification suite only on first use of one of its names."""

import subprocess
import sys

import pytest

import harmonia
from harmonia import verification

SUITE_NAMES = ("CheckRecord", "DEFAULT_SEED", "VerificationReport", "run_verification_suite")


def _python(code: str) -> str:
    """The stdout of a fresh interpreter that runs ``code``."""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    return result.stdout


def test_import_loads_neither_the_suite_nor_json():
    numpy_alone = _python("import sys, numpy\nprint('json' in sys.modules)")
    loaded = _python("import sys, harmonia\n"
                     "print('harmonia.verification' in sys.modules, 'json' in sys.modules)")
    assert loaded == f"False {numpy_alone}"


def test_the_suite_names_are_the_suite_own_objects():
    for name in SUITE_NAMES:
        assert getattr(harmonia, name) is getattr(verification, name), name
        assert name in dir(harmonia), name
    from harmonia import CheckRecord, DEFAULT_SEED, VerificationReport, run_verification_suite

    assert (CheckRecord, DEFAULT_SEED, VerificationReport, run_verification_suite) == tuple(
        getattr(verification, name) for name in SUITE_NAMES)
    star: dict = {}
    exec("from harmonia import *", star)
    assert all(star[name] is getattr(verification, name) for name in SUITE_NAMES)
    assert star["LogLaurentExpr"] is harmonia.LogLaurentExpr


def test_first_use_loads_the_suite_and_binds_none_of_its_names():
    # a cold first use imports the suite, and the import system binds the
    # submodule ``verification`` on the package, as any import of it does;
    # once the suite is loaded (say by ``import harmonia.cli``) a first use
    # binds nothing, so the package namespace keeps its keys
    code = (
        "import sys, harmonia\n"
        "{preload}"
        "before = set(vars(harmonia))\n"
        "value = harmonia.run_verification_suite\n"
        "from harmonia import CheckRecord, DEFAULT_SEED, VerificationReport\n"
        "print(sorted(set(vars(harmonia)) - before),"
        " value is sys.modules['harmonia.verification'].run_verification_suite)\n"
    )
    assert _python(code.format(preload="")) == "['verification'] True\n"
    assert _python(code.format(preload="import harmonia.verification\n")) == "[] True\n"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'harmonia' has no attribute 'no_such_name'"):
        harmonia.no_such_name
    assert not hasattr(harmonia, "worst_residual")  # the suite serves only its four names


def test_the_cli_loads_the_suite():
    assert _python("import sys, harmonia.cli\n"
                   "print('harmonia.verification' in sys.modules)") == "True\n"
