"""One exception hierarchy: every psygat exception lives in psygat.errors,
and the CLI maps each domain error to a one-line message and exit code."""

import importlib
import inspect
import pkgutil

import pytest

import psygat
from psygat import cli, errors

PROGRAMMING_ERRORS = {"ShapeError", "UsageError"}


def psygat_modules():
    return [importlib.import_module(f"psygat.{m.name}")
            for m in pkgutil.iter_modules(psygat.__path__)]


def domain_errors():
    return [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, errors.PsygatError)]


def test_every_exception_class_is_defined_in_errors():
    seen = set()
    for module in psygat_modules():
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__.startswith("psygat"):
                assert cls.__module__ == "psygat.errors", f"{cls.__qualname__} in {module.__name__}"
                seen.add(cls)
    for cls in seen:
        if cls.__name__ not in PROGRAMMING_ERRORS:
            assert issubclass(cls, errors.PsygatError), cls.__name__


def test_programming_errors_stay_outside_the_hierarchy():
    for name in PROGRAMMING_ERRORS:
        assert not issubclass(getattr(errors, name), errors.PsygatError)


@pytest.mark.parametrize("cls", domain_errors(), ids=lambda cls: cls.__name__)
def test_cli_maps_domain_errors_to_exit_codes(cls, monkeypatch, capsys):
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_gradcheck", fail)
    code = cli.main(["gradcheck"])
    assert code == (2 if issubclass(cls, errors.ConfigError) else 1)
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "boom" in err
