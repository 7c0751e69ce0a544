"""Tests for the Click configuration-language parser."""

import pytest

from repro.click import (ConfigError, ConnectionSpec, parse_config)
from repro.click.parser import split_args, strip_comments


class TestSplitArgs:
    def test_simple_commas(self):
        assert split_args("a, b, c") == ["a", "b", "c"]

    def test_nested_parens_protected(self):
        assert split_args("f(a, b), c") == ["f(a, b)", "c"]

    def test_brackets_protected(self):
        assert split_args("x[1, 2], y") == ["x[1, 2]", "y"]

    def test_quotes_protected(self):
        assert split_args('"a, b", c') == ['"a, b"', "c"]

    def test_empty_string(self):
        assert split_args("") == []

    def test_whitespace_trimmed(self):
        assert split_args("  a ,  b  ") == ["a", "b"]

    def test_unbalanced_raises(self):
        with pytest.raises(ConfigError):
            split_args("f(a, b")


class TestStripComments:
    def test_line_comment(self):
        assert "secret" not in strip_comments("a -> b; // secret")

    def test_block_comment(self):
        assert "hidden" not in strip_comments("a /* hidden */ -> b;")

    def test_multiline_block(self):
        text = "a -> b;\n/* line1\nline2 */\nc -> d;"
        cleaned = strip_comments(text)
        assert "line1" not in cleaned
        assert "c -> d" in cleaned


class TestDeclarations:
    def test_simple_declaration(self):
        config = parse_config("u :: Unqueue(BURST 3);")
        assert config.elements["u"].class_name == "Unqueue"
        assert config.elements["u"].config == "BURST 3"

    def test_declaration_without_args(self):
        config = parse_config("c :: Counter;")
        assert config.elements["c"].config == ""

    def test_comma_list_declaration(self):
        config = parse_config("c1, c2, c3 :: Counter;")
        assert set(config.elements) == {"c1", "c2", "c3"}
        assert all(spec.class_name == "Counter"
                   for spec in config.elements.values())

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("c :: Counter; c :: Queue;")

    def test_config_args_split(self):
        config = parse_config("s :: StringMatcher(xyz, BURST 10);")
        assert config.elements["s"].config_args() == ["xyz", "BURST 10"]


class TestConnections:
    def test_simple_chain(self):
        config = parse_config("a :: Counter; b :: Counter; a -> b;")
        assert config.connections == [ConnectionSpec("a", 0, "b", 0)]

    def test_ports(self):
        config = parse_config(
            "cl :: IPClassifier(tcp, -); d :: Discard;"
            "cl [1] -> [0] d;")
        assert config.connections == [ConnectionSpec("cl", 1, "d", 0)]

    def test_multi_hop_chain(self):
        config = parse_config("a, b, c :: Counter; a -> b -> c;")
        assert config.connections == [ConnectionSpec("a", 0, "b", 0),
                                      ConnectionSpec("b", 0, "c", 0)]

    def test_inline_named_declaration_in_chain(self):
        config = parse_config(
            "src :: FromDevice(in0) -> cnt :: Counter -> Discard;")
        assert set(config.elements) == {"src", "cnt", "Discard@1"}
        assert len(config.connections) == 2

    def test_anonymous_element_with_args(self):
        config = parse_config("Idle -> Counter() -> Discard;")
        names = list(config.elements)
        assert any(name.startswith("Counter@") for name in names)

    def test_bare_class_name_becomes_anonymous(self):
        config = parse_config("Idle -> Discard;")
        assert len(config.elements) == 2
        assert len(config.connections) == 1

    def test_undeclared_reference_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("nosuchelement -> Discard;")

    def test_lone_reference_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("c :: Counter; c;")

    def test_lone_declaration_allowed(self):
        config = parse_config("c :: Counter;")
        assert config.connections == []

    def test_port_on_both_sides(self):
        config = parse_config(
            "t :: Tee; a, b :: Counter; i :: Idle;"
            "i -> t; t[0] -> a; t[1] -> b;")
        assert ConnectionSpec("t", 1, "b", 0) in config.connections

    def test_statement_without_semicolon_at_end(self):
        config = parse_config("a :: Counter; Idle -> a -> Discard")
        assert len(config.connections) == 2

    def test_empty_config(self):
        config = parse_config("  //nothing\n")
        assert not config.elements
        assert not config.connections

    def test_unexpected_character_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("a :: Counter; a $ b;")
