"""One default bound per size-bounded operation, shared by the library and
the CLI, and checked by one helper whose messages stay as they were."""

import pytest

from woplab import counting, noncross, oracle, pring, summation
from woplab.cli import main
from woplab.errors import BoundExceededError, admit


class Built(Exception):
    """Raised in place of building W([n]), so that a test which reaches the
    build ends at once instead of spending seconds on n! templates."""


@pytest.fixture
def no_build(monkeypatch):
    def refuse(n):
        raise Built(f"built W([{n}])")

    monkeypatch.setattr(summation, "_build_templates", refuse)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


LIBRARY = {
    "decompose": lambda n, **kw: summation.decompose_W(n, **kw),
    "apply": lambda n, **kw: pring.apply_W(n, pring.parse_p("p1"), **kw),
    "count": lambda n, **kw: counting.verify_counts(n, **kw),
}
SPIED = {
    "decompose": (summation, "decompose_W"),
    "apply": (pring, "apply_W"),
    "count": (counting, "verify_counts"),
}


def cli_argv(command, n):
    return [command, str(n), *(["p1"] if command == "apply" else [])]


class TestOneBoundPerOperation:
    def test_defaults_are_the_library_constants(self):
        assert summation.DEFAULT_MAX_DECOMPOSE == 8
        assert noncross.DEFAULT_MAX_ENUMERATE == 12
        assert oracle.DEFAULT_MAX_TRACE_POWER == 3

    @pytest.mark.parametrize("command", LIBRARY)
    def test_library_default_refuses_9(self, no_build, command):
        with pytest.raises(BoundExceededError, match="bound is 8, got n=9"):
            LIBRARY[command](9)

    @pytest.mark.parametrize("command", LIBRARY)
    def test_library_max_n_9_reaches_the_build(self, no_build, command):
        with pytest.raises(Built, match=r"built W\(\[9\]\)"):
            LIBRARY[command](9, max_n=9)

    @pytest.mark.parametrize("command", LIBRARY)
    def test_the_library_and_the_cli_refuse_the_same_n(self, capsys, no_build, command):
        for n, refused in ((8, False), (9, True)):
            if refused:
                with pytest.raises(BoundExceededError):
                    LIBRARY[command](n)
                assert run(capsys, *cli_argv(command, n))[0] == 2
            else:
                with pytest.raises(Built):
                    LIBRARY[command](n)
                with pytest.raises(Built):
                    main(cli_argv(command, n))

    @pytest.mark.parametrize("command", LIBRARY)
    @pytest.mark.parametrize("override", ["--max-n", "WOPLAB_MAX_N"])
    def test_cli_override_9_reaches_the_library(self, monkeypatch, no_build, command, override):
        module, name = SPIED[command]
        bounds, real = [], getattr(module, name)

        def spy(n, *args, max_n):
            bounds.append((n, max_n))
            return real(n, *args, max_n=max_n)

        monkeypatch.setattr(module, name, spy)
        argv = cli_argv(command, 9)
        if override == "--max-n":
            argv += ["--max-n", "9"]
        else:
            monkeypatch.setenv(override, "9")
        with pytest.raises(Built):
            main(argv)
        assert bounds == [(9, 9)]


# Every admission message, byte for byte: (CLI argv or library call, message)
REFUSALS = [
    (["decompose", "9"], "decompose_W bound is 8, got n=9"),
    (["apply", "9", "p1"], "apply_W bound is 8, got n=9"),
    (["count", "9"], "count bound is 8, got n=9"),
    (["apply", "4", "--perm", "(4321)", "p1", "--max-n", "3"], "apply bound is 3, got n=4"),
    (["seq", "enumerate", "13", "1"], "enumeration bound is 12, got n=13"),
    (lambda: oracle.tr_Dn_apply(4, pring.parse_p("p1"), 6), "tr_Dn_apply bound is 3, got n=4"),
    (["count", "0"], "n must be at least 1"),
    (["decompose", "0"], "n must be at least 1"),
    (["apply", "0", "p1"], "n must be at least 1"),
    (["seq", "enumerate", "0", "1"], "n must be at least 1"),
    (lambda: oracle.tr_Dn_apply(0, pring.parse_p("p1"), 6), "n must be at least 1"),
]


@pytest.mark.parametrize(
    "call, message", REFUSALS, ids=[m if callable(c) else " ".join(c) for c, m in REFUSALS]
)
def test_admission_messages_are_unchanged(capsys, no_build, call, message):
    if callable(call):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
        assert isinstance(err.value, BoundExceededError) == ("bound" in message)
    else:
        assert run(capsys, *call) == (2, "", f"error: {message}\n")


def test_verify_counts_is_refused_by_its_census_bound(no_build):
    with pytest.raises(BoundExceededError) as err:
        counting.verify_counts(9)
    assert str(err.value) == "decompose_W bound is 8, got n=9"


class TestAdmit:
    def test_admits_1_to_max_n(self):
        for n in range(1, 5):
            assert admit(n, 4, "thing") is None

    def test_refuses_below_1_before_the_bound(self):
        for n in (0, -7):
            with pytest.raises(ValueError, match="^n must be at least 1$") as err:
                admit(n, 0, "thing")
            assert not isinstance(err.value, BoundExceededError)

    def test_refuses_above_max_n_naming_what(self):
        with pytest.raises(BoundExceededError, match="^thing bound is 4, got n=5$"):
            admit(5, 4, "thing")
