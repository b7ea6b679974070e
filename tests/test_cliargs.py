"""Tests for the shared argument-parsing helpers."""

import argparse

import pytest

from repro.cliargs import checked, csv_list, parse_args, protocol_list


def _parser():
    parser = argparse.ArgumentParser(prog="demo")
    parser.add_argument("paths", nargs="*")
    parser.add_argument("--count", type=checked(int, lambda n: n >= 1,
                                                ">= 1"), default=1)
    parser.add_argument("--protocols", type=protocol_list)
    parser.add_argument("--flag", action="store_true")
    return parser


class TestParseArgs:
    def test_options_and_positionals_interleave(self):
        args = parse_args(_parser(), ["a", "--flag", "b", "--count", "3"])
        assert args.paths == ["a", "b"]
        assert args.flag and args.count == 3

    def test_help_returns_0(self, capsys):
        assert parse_args(_parser(), ["--help"]) == 0
        assert "usage: demo" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["--count"], ["--count", "x"],
                                      ["--count", "0"], ["--nope"]])
    def test_bad_argument_returns_2(self, argv, capsys):
        assert parse_args(_parser(), argv) == 2
        assert "demo: error:" in capsys.readouterr().err


class TestValueParsers:
    def test_checked_messages(self):
        parse = checked(float, lambda x: 0 <= x <= 1, "in [0, 1]")
        assert parse("0.5") == 0.5
        with pytest.raises(argparse.ArgumentTypeError, match="a number"):
            parse("half")
        with pytest.raises(argparse.ArgumentTypeError, match=r"in \[0, 1\]"):
            parse("2")

    def test_csv_list_skips_blanks_and_rejects_duplicates(self):
        parse = csv_list(int)
        assert parse("8, 32,") == (8, 32)
        with pytest.raises(argparse.ArgumentTypeError, match="duplicate"):
            parse("4,4")
        with pytest.raises(argparse.ArgumentTypeError, match="at least one"):
            parse(",")

    def test_protocol_list(self):
        assert protocol_list("srv,brv") == ("srv", "brv")
        with pytest.raises(argparse.ArgumentTypeError,
                           match="unknown protocol 'vv'"):
            protocol_list("srv,vv")
