"""Compile a YANG statement tree into a schema and validate RPC input."""

import re
import xml.etree.ElementTree as ET
from typing import Dict, List, Optional

from repro.netconf.messages import local_name
from repro.netconf.yang.parser import Statement, YangSyntaxError


class ValidationError(Exception):
    pass


_INT_RANGES = {
    "int8": (-128, 127), "int16": (-32768, 32767),
    "int32": (-2 ** 31, 2 ** 31 - 1), "int64": (-2 ** 63, 2 ** 63 - 1),
    "uint8": (0, 255), "uint16": (0, 65535),
    "uint32": (0, 2 ** 32 - 1), "uint64": (0, 2 ** 64 - 1),
}


class YangType:
    """A resolved leaf type."""

    def __init__(self, name: str, enums: Optional[List[str]] = None,
                 int_range: Optional[tuple] = None,
                 length: Optional[tuple] = None):
        self.name = name
        self.enums = enums
        self.int_range = int_range
        self.length = length

    def validate(self, text: Optional[str], context: str) -> None:
        value = (text or "").strip()
        if self.name in _INT_RANGES or self.int_range is not None:
            low, high = self.int_range or _INT_RANGES[self.name]
            try:
                number = int(value)
            except ValueError:
                raise ValidationError("%s: %r is not an integer"
                                      % (context, value))
            if not low <= number <= high:
                raise ValidationError("%s: %d outside [%d, %d]"
                                      % (context, number, low, high))
        elif self.name == "boolean":
            if value not in ("true", "false"):
                raise ValidationError("%s: %r is not a boolean"
                                      % (context, value))
        elif self.name == "decimal64":
            try:
                float(value)
            except ValueError:
                raise ValidationError("%s: %r is not a decimal"
                                      % (context, value))
        elif self.name == "enumeration":
            if value not in (self.enums or []):
                raise ValidationError("%s: %r not in enumeration %s"
                                      % (context, value, self.enums))
        elif self.name == "string":
            if self.length is not None:
                low, high = self.length
                if not low <= len(value) <= high:
                    raise ValidationError(
                        "%s: string length %d outside [%d, %d]"
                        % (context, len(value), low, high))
        elif self.name in ("empty",):
            if value:
                raise ValidationError("%s: empty leaf carries a value"
                                      % context)
        # any other type (union, identityref, ...) accepts anything

    def __repr__(self) -> str:
        return "YangType(%s)" % self.name


class SchemaNode:
    def __init__(self, name: str):
        self.name = name
        self.description = ""


class Leaf(SchemaNode):
    def __init__(self, name: str, yang_type: YangType,
                 mandatory: bool = False, default: Optional[str] = None):
        super().__init__(name)
        self.type = yang_type
        self.mandatory = mandatory
        self.default = default

    def __repr__(self) -> str:
        return "Leaf(%s: %s)" % (self.name, self.type.name)


class LeafList(SchemaNode):
    def __init__(self, name: str, yang_type: YangType):
        super().__init__(name)
        self.type = yang_type

    def __repr__(self) -> str:
        return "LeafList(%s: %s)" % (self.name, self.type.name)


class Container(SchemaNode):
    def __init__(self, name: str,
                 children: Optional[Dict[str, SchemaNode]] = None):
        super().__init__(name)
        self.children: Dict[str, SchemaNode] = dict(children or {})

    def __repr__(self) -> str:
        return "Container(%s, %d children)" % (self.name,
                                               len(self.children))


class ListNode(SchemaNode):
    def __init__(self, name: str, key: Optional[str],
                 children: Optional[Dict[str, SchemaNode]] = None):
        super().__init__(name)
        self.key = key
        self.children: Dict[str, SchemaNode] = dict(children or {})

    def __repr__(self) -> str:
        return "ListNode(%s, key=%s)" % (self.name, self.key)


class Rpc(SchemaNode):
    def __init__(self, name: str, input: Optional[Container] = None,
                 output: Optional[Container] = None):
        super().__init__(name)
        self.input = input
        self.output = output

    def __repr__(self) -> str:
        return "Rpc(%s)" % self.name


class Module:
    """A compiled YANG module."""

    def __init__(self, name: str, namespace: str, prefix: str):
        self.name = name
        self.namespace = namespace
        self.prefix = prefix
        self.top: Dict[str, SchemaNode] = {}
        self.rpcs: Dict[str, Rpc] = {}
        self.typedefs: Dict[str, YangType] = {}

    # -- queries -----------------------------------------------------------

    def rpc(self, name: str) -> Rpc:
        if name not in self.rpcs:
            raise ValidationError("module %s has no rpc %r"
                                  % (self.name, name))
        return self.rpcs[name]

    # -- instance validation --------------------------------------------------

    def validate_rpc_input(self, rpc_name: str,
                           element: ET.Element) -> None:
        """Validate an rpc invocation payload (children = input leaves)."""
        rpc = self.rpc(rpc_name)
        schema = rpc.input or Container(rpc_name)
        self._validate_children(element, schema.children,
                                "rpc %s" % rpc_name)

    def _validate_node(self, element: ET.Element, node: SchemaNode,
                       context: str) -> None:
        if isinstance(node, Leaf):
            node.type.validate(element.text, context)
        elif isinstance(node, LeafList):
            node.type.validate(element.text, context)
        elif isinstance(node, Container):
            self._validate_children(element, node.children, context)
        elif isinstance(node, ListNode):
            if node.key is not None:
                key_values = [child.text for child in element
                              if local_name(child.tag) == node.key]
                if not key_values:
                    raise ValidationError("%s: list entry missing key %r"
                                          % (context, node.key))
            self._validate_children(element, node.children, context)

    def _validate_children(self, element: ET.Element,
                           schema: Dict[str, SchemaNode],
                           context: str) -> None:
        seen = set()
        for child in element:
            name = local_name(child.tag)
            node = schema.get(name)
            if node is None:
                raise ValidationError("%s: unexpected element <%s>"
                                      % (context, name))
            seen.add(name)
            self._validate_node(child, node, "%s/%s" % (context, name))
        for name, node in schema.items():
            if isinstance(node, Leaf) and node.mandatory \
                    and name not in seen:
                raise ValidationError("%s: mandatory leaf %r missing"
                                      % (context, name))

    def __repr__(self) -> str:
        return "Module(%s, %d top nodes, %d rpcs)" % (
            self.name, len(self.top), len(self.rpcs))


# -- compilation --------------------------------------------------------------


def compile_module(root: Statement) -> Module:
    """Turn a parsed ``module`` statement into a :class:`Module`."""
    if root.keyword != "module":
        raise YangSyntaxError("expected a module statement")
    namespace = root.arg_of("namespace", "")
    prefix = root.arg_of("prefix", "")
    module = Module(root.argument or "", namespace, prefix)
    for stmt in root.find_all("typedef"):
        module.typedefs[stmt.argument] = _compile_type(
            stmt.find_one("type"), module)
    for stmt in root.children:
        if stmt.keyword in ("container", "list", "leaf", "leaf-list"):
            node = _compile_data_node(stmt, module)
            module.top[node.name] = node
        elif stmt.keyword == "rpc":
            rpc = _compile_rpc(stmt, module)
            module.rpcs[rpc.name] = rpc
    return module


def _compile_rpc(stmt: Statement, module: Module) -> Rpc:
    input_stmt = stmt.find_one("input")
    output_stmt = stmt.find_one("output")
    input_container = None
    output_container = None
    if input_stmt is not None:
        input_container = Container(
            "input", _compile_children(input_stmt, module))
    if output_stmt is not None:
        output_container = Container(
            "output", _compile_children(output_stmt, module))
    return Rpc(stmt.argument or "", input_container, output_container)


def _compile_children(stmt: Statement,
                      module: Module) -> Dict[str, SchemaNode]:
    children: Dict[str, SchemaNode] = {}
    for child in stmt.children:
        if child.keyword in ("container", "list", "leaf", "leaf-list"):
            node = _compile_data_node(child, module)
            children[node.name] = node
    return children


def _compile_data_node(stmt: Statement, module: Module) -> SchemaNode:
    name = stmt.argument or ""
    if stmt.keyword == "leaf":
        leaf = Leaf(name, _compile_type(stmt.find_one("type"), module),
                    mandatory=stmt.arg_of("mandatory") == "true",
                    default=stmt.arg_of("default"))
        leaf.description = stmt.arg_of("description", "")
        return leaf
    if stmt.keyword == "leaf-list":
        return LeafList(name, _compile_type(stmt.find_one("type"), module))
    if stmt.keyword == "container":
        return Container(name, _compile_children(stmt, module))
    if stmt.keyword == "list":
        return ListNode(name, stmt.arg_of("key"),
                        _compile_children(stmt, module))
    raise YangSyntaxError("unsupported data node %s" % stmt.keyword)


def _compile_type(type_stmt: Optional[Statement],
                  module: Module) -> YangType:
    if type_stmt is None:
        return YangType("string")
    name = type_stmt.argument or "string"
    # strip an optional prefix ("t:my-type")
    bare = name.split(":")[-1]
    if bare in module.typedefs:
        return module.typedefs[bare]
    if bare == "enumeration":
        enums = [enum.argument for enum in type_stmt.find_all("enum")]
        return YangType("enumeration", enums=enums)
    int_range = None
    range_stmt = type_stmt.find_one("range")
    if range_stmt is not None and bare in _INT_RANGES:
        int_range = _parse_range(range_stmt.argument, _INT_RANGES[bare])
    length = None
    length_stmt = type_stmt.find_one("length")
    if length_stmt is not None and bare == "string":
        length = _parse_range(length_stmt.argument, (0, 2 ** 64))
    return YangType(bare, int_range=int_range, length=length)


def _parse_range(text: Optional[str], bounds: tuple) -> tuple:
    if not text:
        return bounds
    match = re.match(r"\s*(\S+)\s*\.\.\s*(\S+)\s*$", text)
    if match is None:
        value = int(text.strip())
        return (value, value)
    low_text, high_text = match.group(1), match.group(2)
    low = bounds[0] if low_text == "min" else int(low_text)
    high = bounds[1] if high_text == "max" else int(high_text)
    return (low, high)
