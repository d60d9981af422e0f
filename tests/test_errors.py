"""Every toolkit error carries the command-line exit code it maps to."""

import pytest

from softgrip import errors
from softgrip.cli import main

EXPECTED_EXIT_CODES = {
    errors.ConfigError: 2,
    errors.ParseError: 2,
    errors.InvalidPoseError: 2,
    errors.FrameMismatchError: 2,
    errors.InvariantViolationError: 2,
    errors.MissingCapacityDataError: 2,
    errors.InsufficientDataError: 2,
    errors.DomainError: 3,
    errors.OutOfRangeError: 3,
    errors.InvalidRangeError: 3,
    errors.EmptyCloudError: 4,
    errors.ObjectTooLargeError: 5,
    errors.SurfaceConflictError: 5,
    errors.NoContactError: 6,
    errors.ResourceError: 7,
}


def test_every_subclass_has_an_expected_code():
    assert set(errors.SoftgripError.__subclasses__()) == set(EXPECTED_EXIT_CODES)


@pytest.mark.parametrize("cls", list(EXPECTED_EXIT_CODES), ids=lambda c: c.__name__)
def test_cli_exits_with_the_error_exit_code(cls, monkeypatch, tmp_path, capsys):
    def fail(*args):
        raise cls("boom")

    assert cls.exit_code == EXPECTED_EXIT_CODES[cls]
    monkeypatch.setattr("softgrip.cli.cmd_fk", fail)
    # The parser binds the command function when it is built, so patch first.
    assert main(["fk", "--theta", "-0.8", "--out", str(tmp_path / "run")]) == cls.exit_code
    assert "softgrip: boom" in capsys.readouterr().err


def test_memory_the_system_refuses_exits_7_with_one_line(monkeypatch, tmp_path, capsys):
    def fail(*args):
        raise MemoryError("cannot map 10 points: Cannot allocate memory")

    monkeypatch.setattr("softgrip.cli.cmd_fk", fail)
    assert main(["fk", "--theta", "-0.8", "--out", str(tmp_path / "run")]) == 7
    assert capsys.readouterr().err == \
        "softgrip: out of memory: cannot map 10 points: Cannot allocate memory\n"
