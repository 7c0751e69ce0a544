"""The declarative ``Scenario`` description.

A scenario is everything one reproducible experiment needs::

    name: fattree-baseline
    description: steady-state fat-tree campaign
    duration: 8.0
    seeds: [1, 2]
    topology:
      kind: fat_tree
      k: 4
    chains:
      count: 3
      templates: [web, bump]
    workload:
      subscribers_per_sap: 100
      flows_per_subscriber: 0.004
      diurnal: {period: 8.0, trough: 0.4}
    sla:
      max_delay: 0.05
    chaos:                      # optional fault schedule
      faults:
        - {kind: link_down, at: 2.0, duration: 1.5}

Files may be JSON or the indentation-based YAML subset above (nested
maps, ``-`` lists, inline ``{}``/``[]``, scalars, comments), read by the
parser below and by nothing else: an installed PyYAML is never
consulted, because it reads some scalars differently (``1e3``, ``yes``,
``010``, ``12:30``, dates) and one file must mean one scenario on every
machine.
"""

import json
import os
from typing import Any, Dict, List, Optional, Union

from repro.core.escape import ESCAPE
from repro.scenario.zoo import TOPOLOGY_KINDS


class SpecError(Exception):
    pass


# -- minimal YAML subset ------------------------------------------------------

def _strip_comment(line: str) -> str:
    out = []
    quote = None
    for ch in line:
        if quote:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch == "#":
            break
        out.append(ch)
    return "".join(out).rstrip()


def _parse_scalar(text: str) -> Any:
    text = text.strip()
    if not text or text in ("null", "~", "None"):
        return None
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    if (text[0] == text[-1] and text[0] in "\"'" and len(text) >= 2):
        return text[1:-1]
    if text[0] in "[{":
        try:
            return json.loads(text)
        except ValueError:
            return _parse_flow(text)
    try:
        return int(text, 0)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _split_flow(body: str) -> List[str]:
    """Split a flow collection body on top-level commas."""
    parts, depth, quote, current = [], 0, None, []
    for ch in body:
        if quote:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
            continue
        current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_flow(text: str) -> Any:
    """YAML flow collections that are not valid JSON (bare keys)."""
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        return [_parse_scalar(part) for part in _split_flow(text[1:-1])]
    if text.startswith("{") and text.endswith("}"):
        mapping = {}
        for part in _split_flow(text[1:-1]):
            if ":" not in part:
                raise SpecError("bad inline map entry %r" % part)
            key, _, value = part.partition(":")
            mapping[_parse_scalar(key)] = _parse_scalar(value)
        return mapping
    raise SpecError("cannot parse %r" % text)


def _parse_block(lines: List[tuple], start: int, indent: int):
    """Parse lines[start:] at exactly ``indent``; returns (value, next)."""
    if start >= len(lines):
        return None, start
    first_indent, first_text = lines[start]
    if first_indent < indent:
        return None, start
    is_list = first_text.startswith("- ") or first_text == "-"
    if is_list:
        items = []
        index = start
        while index < len(lines):
            line_indent, text = lines[index]
            if line_indent != first_indent or not (
                    text.startswith("- ") or text == "-"):
                if line_indent >= first_indent:
                    raise SpecError("bad list structure near %r" % text)
                break
            body = text[1:].strip()
            if not body:
                value, index = _parse_block(lines, index + 1,
                                            first_indent + 1)
                items.append(value)
                continue
            if ":" in body and not body.startswith(("{", "[")):
                # '- key: value' opens an inline map item whose extra
                # keys continue on deeper-indented lines
                synthetic = [(first_indent + 2, body)]
                probe = index + 1
                while probe < len(lines) and lines[probe][0] \
                        > first_indent:
                    synthetic.append(lines[probe])
                    probe += 1
                value, _ = _parse_block(synthetic, 0, first_indent + 2)
                items.append(value)
                index = probe
                continue
            items.append(_parse_scalar(body))
            index += 1
        return items, index
    mapping: Dict[str, Any] = {}
    index = start
    while index < len(lines):
        line_indent, text = lines[index]
        if line_indent < first_indent:
            break
        if line_indent > first_indent:
            raise SpecError("unexpected indent near %r" % text)
        if ":" not in text:
            raise SpecError("expected 'key: value', got %r" % text)
        key, _, rest = text.partition(":")
        key = _parse_scalar(key)
        rest = rest.strip()
        if rest:
            mapping[key] = _parse_scalar(rest)
            index += 1
        else:
            value, index = _parse_block(lines, index + 1,
                                        first_indent + 1)
            mapping[key] = value if value is not None else {}
    return mapping, index


def parse_simple_yaml(text: str) -> Any:
    """The one scenario-file parser: JSON, or the YAML subset."""
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        return json.loads(text)
    lines = []
    for raw in text.splitlines():
        line = _strip_comment(raw)
        if not line.strip():
            continue
        leading = line[:len(line) - len(line.lstrip())]
        if "\t" in leading:
            raise SpecError("tabs are not allowed in indentation")
        indent = len(leading)
        lines.append((indent, line.strip()))
    if not lines:
        return {}
    value, consumed = _parse_block(lines, 0, lines[0][0])
    if consumed != len(lines):
        raise SpecError("trailing content near %r" % (lines[consumed][1],))
    return value


# -- the scenario object ------------------------------------------------------

class Scenario:
    """A validated experiment description."""

    def __init__(self, name: str, topology: Dict[str, Any],
                 duration: float = 5.0,
                 description: str = "",
                 seeds: Optional[List[int]] = None,
                 workload: Optional[Dict[str, Any]] = None,
                 chains: Optional[Dict[str, Any]] = None,
                 sla: Optional[Dict[str, Any]] = None,
                 chaos: Optional[Dict[str, Any]] = None,
                 mapper: str = "shortest-path",
                 profile: bool = False,
                 flowtrace: Optional[Dict[str, Any]] = None,
                 escape_options: Optional[Dict[str, Any]] = None):
        if not name:
            raise SpecError("scenario needs a name")
        if duration <= 0:
            raise SpecError("duration must be > 0 (got %r)" % duration)
        if not topology or "kind" not in topology:
            raise SpecError("scenario needs a topology with a 'kind'")
        self.name = name
        self.description = description
        self.topology = dict(topology)
        self.duration = float(duration)
        self.seeds = [int(seed) for seed in (seeds or [0])]
        self.workload = dict(workload or {})
        self.chains = dict(chains or {})
        self.sla = dict(sla) if sla else None
        self.chaos = dict(chaos) if chaos else None
        self.mapper = mapper
        if not isinstance(profile, bool):
            raise SpecError("profile must be true or false, got %r"
                            % (profile,))
        self.profile = profile
        # sampled per-packet path tracing: {"rate": N, "seed": S,
        # "chains": {name: coarser-rate}}; seed defaults to the run
        # seed so sampled sets replay bit-identically
        if flowtrace is not None and not isinstance(flowtrace, dict):
            raise SpecError("flowtrace must be a mapping (rate/seed/"
                            "chains), got %r" % (flowtrace,))
        self.flowtrace = dict(flowtrace) if flowtrace else None
        self.escape_options = dict(escape_options or {})
        self._check_constructors()

    def _check_constructors(self) -> None:
        """The topology generator and ESCAPE must accept the keys given
        to them: a misspelt one fails here, not mid-run."""
        import inspect  # here: importing it costs every ladder launch ~9 ms
        params = dict(self.topology)
        kind = params.pop("kind")
        if kind not in TOPOLOGY_KINDS:
            raise SpecError("topology: unknown kind %r (have: %s)"
                            % (kind, ", ".join(sorted(TOPOLOGY_KINDS))))
        for key, constructor, positional, keywords in (
                ("topology", TOPOLOGY_KINDS[kind], (), params),
                ("escape_options", ESCAPE, ("topo",), self.escape_options)):
            try:
                inspect.signature(constructor).bind(*positional, **keywords)
            except TypeError as exc:
                raise SpecError("%s: %s" % (key, exc))

    KNOWN_KEYS = ("name", "description", "topology", "duration", "seeds",
                  "workload", "chains", "sla", "chaos", "mapper",
                  "profile", "flowtrace", "escape_options")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        if not isinstance(data, dict):
            raise SpecError("scenario must be a mapping, got %s"
                            % type(data).__name__)
        unknown = sorted(set(data) - set(cls.KNOWN_KEYS))
        if unknown:
            raise SpecError("unknown scenario key(s): %s (known: %s)"
                            % (", ".join(unknown),
                               ", ".join(cls.KNOWN_KEYS)))
        try:
            return cls(**{key: data[key] for key in cls.KNOWN_KEYS
                          if key in data})
        except (TypeError, ValueError) as exc:
            raise SpecError("bad scenario: %s" % exc)

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "name": self.name,
            "description": self.description,
            "topology": self.topology,
            "duration": self.duration,
            "seeds": self.seeds,
            "workload": self.workload,
            "chains": self.chains,
            "mapper": self.mapper,
            "profile": self.profile,
        }
        if self.sla:
            data["sla"] = self.sla
        if self.chaos:
            data["chaos"] = self.chaos
        if self.flowtrace:
            data["flowtrace"] = self.flowtrace
        if self.escape_options:
            data["escape_options"] = self.escape_options
        return data

    def __repr__(self) -> str:
        return "Scenario(%s, topology=%s, duration=%.3gs, seeds=%r)" % (
            self.name, self.topology.get("kind"), self.duration,
            self.seeds)


def load_scenario(source: Union[str, Dict[str, Any], os.PathLike]
                  ) -> Scenario:
    """Build a Scenario from a dict, a YAML/JSON string, or a file
    path (``.yaml`` / ``.yml`` / ``.json``)."""
    if isinstance(source, dict):
        return Scenario.from_dict(source)
    text = os.fspath(source)
    if not text.lstrip().startswith(("{", "[")) and "\n" not in text:
        if not os.path.exists(text):
            raise SpecError("no such scenario file: %s" % text)
        with open(text) as handle:
            text = handle.read()
    return Scenario.from_dict(parse_simple_yaml(text))
