import os
import pathlib

import hypothesis
import pytest

import twistedcubic
from twistedcubic import census, gfq, twisted
from twistedcubic.bulk import Engine

# the CLI and suite-script subprocesses import the package from where the
# tests found it, which pytest puts on sys.path but not on PYTHONPATH
_SRC = str(pathlib.Path(twistedcubic.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

hypothesis.settings.register_profile("suite", deadline=None, max_examples=50)
hypothesis.settings.load_profile("suite")

_fields = {}
_models = {}
_engines = {}
_runs = {}


@pytest.fixture(scope="session")
def field():
    def get(q, modulus=None):
        key = (q, modulus)
        if key not in _fields:
            _fields[key] = gfq.make_field(q, modulus)
        return _fields[key]
    return get


@pytest.fixture(scope="session")
def model(field):
    def get(q, modulus=None):
        key = (q, modulus)
        if key not in _models:
            _models[key] = twisted.build_cubic(field(q, modulus))
        return _models[key]
    return get


@pytest.fixture(scope="session")
def engine(field):
    def get(q, modulus=None):
        key = (q, modulus)
        if key not in _engines:
            _engines[key] = Engine(field(q, modulus))
        return _engines[key]
    return get


@pytest.fixture(scope="session")
def run():
    def get(q, modulus=None):
        key = (q, modulus)
        if key not in _runs:
            _runs[key] = census.CensusRun(q, modulus)
        return _runs[key]
    return get
