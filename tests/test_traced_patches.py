"""The traced benchmark run wraps package functions by name at run time;
every name it patches must still resolve, or ``--trace 1`` breaks."""
import os
import sys

import pytest

from defield.registration import RegistrationParams

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def traced():
    sys.path.insert(0, PERFBENCH)
    try:
        import traced
        yield traced
    finally:
        sys.path.remove(PERFBENCH)


def test_every_patch_target_resolves(traced):
    names = [(target, attr) for target, attrs in traced.PATCHES for attr in attrs]
    assert len(names) == 26
    missing = [f"{getattr(t, '__name__', t)}.{a}" for t, a in names
               if not callable(getattr(t, a, None))]
    assert missing == []
    # the classify replay swaps this one in for the manifest loader
    assert callable(traced.cli.load_manifest)


def test_default_config_gives_registration_params(traced):
    params = traced.cli.PipelineConfig().registration_params()
    assert type(params) is RegistrationParams
    assert params == RegistrationParams()
