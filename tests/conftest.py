import json

import pytest

import blowdown
from blowdown import Construction, load_construction, run_script


@pytest.fixture(scope="session")
def main_construction() -> Construction:
    return load_construction("main_k3")


@pytest.fixture(scope="session")
def pencil2_construction() -> Construction:
    return load_construction("pencil2_k3")


@pytest.fixture(scope="session")
def k4_construction() -> Construction:
    return load_construction("k4")


@pytest.fixture(scope="session")
def main_model(main_construction):
    return run_script(main_construction.script)


@pytest.fixture(scope="session")
def pencil2_model(pencil2_construction):
    return run_script(pencil2_construction.script)


@pytest.fixture(scope="session")
def k4_model(k4_construction):
    return run_script(k4_construction.script)


@pytest.fixture()
def main_raw(main_construction):
    # A fresh mutable copy per test; mutation tests edit it in place.
    with open(main_construction.source_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture()
def write_mutant(tmp_path):
    """Writes a copy of a dataset with the field at ``path`` set to
    ``value`` and returns the copy's path."""

    def write(construction, path, value):
        with open(construction.source_path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        node = data
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
        target = tmp_path / f"{construction.name}-mutant.json"
        target.write_text(json.dumps(data))
        return str(target)

    return write


@pytest.fixture()
def pencil2_raw(pencil2_construction):
    with open(pencil2_construction.source_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture()
def count_calls(monkeypatch):
    """Counts every call of a function through any ``blowdown`` module
    binding: ``count_calls(fn)`` returns the list of each call's args."""
    from blowdown import cli

    modules = (blowdown.lattice, blowdown.contraction, blowdown.constructions,
               blowdown.topology, blowdown.tchains, cli)

    def count(fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, name, counted)
        return calls

    return count
