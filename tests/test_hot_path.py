"""The per-check code calls numpy's array methods, not its Python-level wrappers.

At the 1-24 points of a check's groups, a module-level wrapper such as
`np.moveaxis`, `np.sum` or `np.linalg.norm` spends more time parsing its
arguments than its reduction takes; the array method (`.transpose`, `.sum`,
`.max`, `.trace`, `.take`) runs the same ufunc over the same axes.  These
tests count the wrappers' calls made from `confsub` code during whole checks.
"""

import collections
import functools
import sys

import numpy as np
import pytest

from confsub import cli

WRAPPERS = ((np, "moveaxis"), (np, "any"), (np, "all"), (np, "sum"), (np, "max"), (np, "amax"),
            (np, "trace"), (np, "take"), (np, "where"), (np.linalg, "norm"))

CHECKS = (["example33", "--points", "4"], ["holo4", "--points", "4"], ["linproj63", "--points", "4"],
          ["example33", "--points", "128", "--structure-only"])


@pytest.fixture
def wrapper_calls(monkeypatch):
    """Counts, per wrapper, the calls whose caller is a module of `confsub`."""
    calls = collections.Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller == "confsub" or caller.startswith("confsub."):
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in WRAPPERS:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_a_wrapper_called_from_confsub_is_counted(wrapper_calls):
    exec("np.sum(np.ones(2)); np.linalg.norm(np.ones(2))", {"__name__": "confsub.probe", "np": np})
    exec("np.sum(np.ones(2))", {"__name__": "elsewhere", "np": np})
    assert wrapper_calls == {"sum": 1, "norm": 1}


@pytest.mark.parametrize("args", CHECKS, ids=" ".join)
def test_a_check_calls_no_numpy_wrapper(args, wrapper_calls, capsys):
    assert cli.main(["check", *args, "--seed", "1", "--format", "canonical"]) == 0
    assert ("[checker harmonicity]" in capsys.readouterr().out) == ("--structure-only" not in args)
    assert wrapper_calls == {}
