"""Tests for the YANG parser, schema compiler and instance validation."""

import xml.etree.ElementTree as ET

import pytest

from repro.netconf.yang import (ValidationError, YangSyntaxError,
                                compile_module, parse_yang)
from repro.netconf.vnf_yang import VNF_NS, VNF_YANG

SIMPLE_MODULE = """
module demo {
  namespace "urn:demo";
  prefix "d";

  typedef percent {
    type uint8 { range "0..100"; }
  }

  container settings {
    leaf name { type string { length "1..16"; } }
    leaf level { type percent; }
    leaf enabled { type boolean; }
    leaf mode {
      type enumeration {
        enum fast;
        enum slow;
      }
    }
    list rule {
      key id;
      leaf id { type string; }
      leaf action { type string; }
    }
  }

  rpc configure {
    input {
      leaf name { type string { length "1..16"; } }
      leaf level { type percent; }
      leaf enabled { type boolean; }
      leaf mode {
        type enumeration {
          enum fast;
          enum slow;
        }
      }
      list rule {
        key id;
        leaf id { type string; }
        leaf action { type string; }
      }
    }
  }

  rpc reboot {
    input {
      leaf delay { type uint16; default "0"; }
      leaf reason { type string; mandatory true; }
    }
    output {
      leaf status { type string; }
    }
  }
}
"""


def el(tag, text=None, ns="urn:demo", children=()):
    node = ET.Element("{%s}%s" % (ns, tag))
    if text is not None:
        node.text = text
    for child in children:
        node.append(child)
    return node


class TestParser:
    def test_statement_tree(self):
        root = parse_yang(SIMPLE_MODULE)
        assert root.keyword == "module"
        assert root.argument == "demo"
        assert root.arg_of("namespace") == "urn:demo"

    def test_nested_statements(self):
        root = parse_yang(SIMPLE_MODULE)
        container = root.find_one("container")
        assert container.argument == "settings"
        assert len(container.find_all("leaf")) == 4

    def test_comments_ignored(self):
        root = parse_yang("""
        module m { // a line comment
          namespace "urn:m"; /* block
             comment */ prefix "m";
        }""")
        assert root.arg_of("prefix") == "m"

    def test_string_concatenation(self):
        root = parse_yang('module m { namespace "urn:" + "joined";'
                          ' prefix "m"; }')
        assert root.arg_of("namespace") == "urn:joined"

    def test_escaped_string(self):
        root = parse_yang(r'module m { namespace "a\"b"; prefix "m"; }')
        assert root.arg_of("namespace") == 'a"b'

    def test_missing_brace_rejected(self):
        with pytest.raises(YangSyntaxError):
            parse_yang("module m { namespace 'urn:m';")

    def test_top_level_must_be_module(self):
        with pytest.raises(YangSyntaxError):
            parse_yang("container c { leaf x { type string; } }")

    def test_two_top_level_rejected(self):
        with pytest.raises(YangSyntaxError):
            parse_yang("module a { prefix a; } module b { prefix b; }")


class TestCompile:
    def test_module_structure(self):
        module = compile_module(parse_yang(SIMPLE_MODULE))
        assert module.name == "demo"
        assert module.namespace == "urn:demo"
        assert "settings" in module.top
        assert "reboot" in module.rpcs

    def test_typedef_resolution(self):
        module = compile_module(parse_yang(SIMPLE_MODULE))
        level = module.top["settings"].children["level"]
        assert level.type.int_range == (0, 100)

    def test_rpc_schema(self):
        module = compile_module(parse_yang(SIMPLE_MODULE))
        rpc = module.rpc("reboot")
        assert set(rpc.input.children) == {"delay", "reason"}
        assert set(rpc.output.children) == {"status"}

    def test_unknown_rpc_raises(self):
        module = compile_module(parse_yang(SIMPLE_MODULE))
        with pytest.raises(ValidationError):
            module.rpc("shutdown")


class TestValidation:
    def setup_method(self):
        self.module = compile_module(parse_yang(SIMPLE_MODULE))

    def configure(self, *children):
        """Validate a ``configure`` call carrying ``children``."""
        self.module.validate_rpc_input(
            "configure", el("configure", children=children))

    def test_valid_container(self):
        self.configure(el("name", "box-1"), el("level", "50"),
                       el("enabled", "true"), el("mode", "fast"))

    def test_unknown_top_level_rejected(self):
        with pytest.raises(ValidationError):
            self.module.validate_rpc_input("mystery", el("mystery"))

    def test_unknown_child_rejected(self):
        with pytest.raises(ValidationError):
            self.configure(el("surprise", "x"))

    def test_integer_range_enforced(self):
        with pytest.raises(ValidationError):
            self.configure(el("level", "150"))

    def test_non_integer_rejected(self):
        with pytest.raises(ValidationError):
            self.configure(el("level", "many"))

    def test_boolean_enforced(self):
        with pytest.raises(ValidationError):
            self.configure(el("enabled", "maybe"))

    def test_enumeration_enforced(self):
        self.configure(el("mode", "slow"))
        with pytest.raises(ValidationError):
            self.configure(el("mode", "medium"))

    def test_string_length_enforced(self):
        with pytest.raises(ValidationError):
            self.configure(el("name", "x" * 17))

    def test_list_entry_needs_key(self):
        with pytest.raises(ValidationError):
            self.configure(el("rule", children=[el("action", "drop")]))

    def test_list_entry_with_key_ok(self):
        self.configure(el("rule", children=[el("id", "r1"),
                                            el("action", "drop")]))

    def test_rpc_input_mandatory_enforced(self):
        operation = el("reboot", children=[el("delay", "5")])
        with pytest.raises(ValidationError) as exc:
            self.module.validate_rpc_input("reboot", operation)
        assert "reason" in str(exc.value)

    def test_rpc_input_valid(self):
        operation = el("reboot", children=[el("reason", "maintenance")])
        self.module.validate_rpc_input("reboot", operation)

    def test_rpc_input_type_checked(self):
        operation = el("reboot", children=[el("reason", "x"),
                                           el("delay", "never")])
        with pytest.raises(ValidationError):
            self.module.validate_rpc_input("reboot", operation)


class TestVNFModule:
    def test_vnf_yang_compiles(self):
        module = compile_module(parse_yang(VNF_YANG))
        assert module.name == "vnf"
        assert module.namespace == VNF_NS
        for rpc_name in ("startVNF", "stopVNF", "connectVNF",
                         "disconnectVNF", "getVNFInfo", "listHandlers",
                         "writeVNFHandler"):
            assert rpc_name in module.rpcs

    def test_status_enumeration(self):
        module = compile_module(parse_yang(VNF_YANG))
        status = module.rpc("startVNF").output.children["status"].type
        assert status.enums == ["INITIALIZING", "UP", "STOPPED", "FAILED"]
        status.validate("UP", "status")
        with pytest.raises(ValidationError):
            status.validate("SLEEPING", "status")

    def test_start_vnf_input_validation(self):
        module = compile_module(parse_yang(VNF_YANG))
        operation = ET.Element("{%s}startVNF" % VNF_NS)
        ET.SubElement(operation, "{%s}id" % VNF_NS).text = "v1"
        with pytest.raises(ValidationError):
            module.validate_rpc_input("startVNF", operation)
        ET.SubElement(operation,
                      "{%s}click-config" % VNF_NS).text = "Idle;"
        module.validate_rpc_input("startVNF", operation)
