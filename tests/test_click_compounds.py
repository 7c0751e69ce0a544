"""Tests for Click elementclass compound elements."""

import pytest

from repro.click import ClickPacket, ConfigError, Router, parse_config
from repro.packet import Ethernet, IPv4, TCP, UDP
from tests.feed import feed, fed_router


def ip_packet(proto_payload=None, protocol=17):
    return ClickPacket.from_header(Ethernet(
        src="00:00:00:00:00:01", dst="00:00:00:00:00:02",
        type=Ethernet.IP_TYPE,
        payload=IPv4(srcip="10.0.0.1", dstip="10.0.0.2",
                     protocol=protocol, payload=proto_payload)))


class TestExpansion:
    def test_simple_inline(self):
        config = parse_config(
            "elementclass Bump { input -> c :: Counter -> output; }"
            "src :: FromDevice(in0) -> b :: Bump -> Discard;")
        assert "b/c" in config.elements
        assert "b" not in config.elements
        assert not any("input" in (conn.from_element, conn.to_element)
                       for conn in config.connections)

    def test_runs_end_to_end(self):
        router = fed_router(
            "elementclass Bump { input -> c :: Counter -> output; }"
            "FromDevice(in0) -> b :: Bump -> Discard;", 5)
        router.sim.run(until=1.0)
        assert router.read_handler("b/c.count") == "5"

    def test_two_instances_are_independent(self):
        router = fed_router(
            "elementclass Bump { input -> c :: Counter -> output; }"
            "FromDevice(in0) -> b1 :: Bump -> Discard;"
            "FromDevice(in1) -> b2 :: Bump -> d2 :: Discard;", 2,
            devices=("in0", "in1"))
        feed(router.sim, router.device_map["in1"], 7)
        router.sim.run(until=1.0)
        assert router.read_handler("b1/c.count") == "2"
        assert router.read_handler("b2/c.count") == "7"

    def test_multi_port_compound(self):
        router = Router.from_config(
            "elementclass Split {"
            "  input -> cl :: IPClassifier(tcp, -);"
            "  cl[0] -> [0]output; cl[1] -> [1]output;"
            "}"
            "i :: Idle -> sp :: Split;"
            "sp[0] -> tcp_c :: Counter -> Discard;"
            "sp[1] -> rest_c :: Counter -> Discard;")
        router.start()
        router.element("sp/cl").push(0, ip_packet(TCP(), protocol=6))
        router.element("sp/cl").push(0, ip_packet(UDP(), protocol=17))
        assert router.read_handler("tcp_c.count") == "1"
        assert router.read_handler("rest_c.count") == "1"

    def test_nested_compounds(self):
        router = fed_router(
            "elementclass Inner { input -> c :: Counter -> output; }"
            "elementclass Outer { input -> i :: Inner -> output; }"
            "FromDevice(in0) -> o :: Outer -> Discard;", 4)
        router.sim.run(until=1.0)
        assert router.read_handler("o/i/c.count") == "4"

    def test_passthrough_port(self):
        router = fed_router(
            "elementclass Wire { input -> output; }"
            "FromDevice(in0) -> w :: Wire -> c :: Counter -> Discard;", 3)
        router.sim.run(until=1.0)
        assert router.read_handler("c.count") == "3"

    def test_anonymous_instance(self):
        router = fed_router(
            "elementclass Bump { input -> c :: Counter -> output; }"
            "FromDevice(in0) -> Bump -> Discard;", 2)
        router.sim.run(until=1.0)
        counter = [name for name in router.elements if name.endswith("/c")]
        assert len(counter) == 1
        assert router.read_handler("%s.count" % counter[0]) == "2"

    def test_compound_used_before_definition(self):
        # Click resolves elementclasses at expansion, not in order
        router = fed_router(
            "FromDevice(in0) -> b :: Bump -> Discard;"
            "elementclass Bump { input -> c :: Counter -> output; }", 1)
        router.sim.run(until=1.0)
        assert router.read_handler("b/c.count") == "1"


class TestErrors:
    def test_duplicate_definition_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(
                "elementclass X { input -> output; }"
                "elementclass X { input -> Counter -> output; }")

    def test_unknown_input_port_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(
                "elementclass One { input -> c :: Counter -> output; }"
                "Idle -> [3]o :: One; o -> Discard;")
        assert "no input port 3" in str(exc.value)

    def test_unknown_output_port_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(
                "elementclass One { input -> c :: Counter -> output; }"
                "Idle -> o :: One; o[5] -> Discard;")
        assert "no output port 5" in str(exc.value)

    def test_configuration_on_compound_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(
                "elementclass Bump { input -> Counter -> output; }"
                "Idle -> Bump(42) -> Discard;")

    def test_recursive_compound_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(
                "elementclass Loop { input -> l :: Loop -> output; }"
                "Idle -> x :: Loop -> Discard;")

    def test_reversed_pseudo_ports_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(
                "elementclass Bad { output -> c :: Counter -> input; }"
                "Idle -> b :: Bad -> Discard;")

    def test_missing_body_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("elementclass Nope;")


class TestRealisticCompound:
    """A catalog-style VNF written as a compound element."""

    CONFIG = """
    elementclass MonitoredFirewall {
      input -> cnt_in :: Counter
            -> fw :: IPFilter(allow icmp, drop all)
            -> cnt_out :: Counter -> output;
    }
    FromDevice(in0) -> mfw :: MonitoredFirewall -> ToDevice(out0);
    """

    def test_vnf_as_compound(self):
        from repro.click.elements.device import Device
        from repro.sim import Simulator
        router = Router.from_config(self.CONFIG, sim=Simulator())
        in_dev, out_dev = Device("in0"), Device("out0")
        sent = []
        out_dev.transmit = sent.append
        router.device_map = {"in0": in_dev, "out0": out_dev}
        router.start()
        icmp_frame = Ethernet(
            src="00:00:00:00:00:01", dst="00:00:00:00:00:02",
            type=Ethernet.IP_TYPE,
            payload=IPv4(srcip="10.0.0.1", dstip="10.0.0.2",
                         protocol=1)).pack()
        udp_frame = ip_packet(UDP(payload=b"x")).data
        in_dev.deliver(icmp_frame)
        in_dev.deliver(udp_frame)
        assert len(sent) == 1  # ICMP passed, UDP dropped
        assert router.read_handler("mfw/fw.passed") == "1"
        assert router.read_handler("mfw/cnt_in.count") == "2"


class TestParameterizedCompounds:
    def test_single_parameter(self):
        router = fed_router(
            "elementclass Limit { $rate |"
            "  input -> Queue(100) -> Shaper($rate) -> Unqueue -> output;"
            "}"
            "FromDevice(in0) -> l :: Limit(50) -> c :: Counter"
            " -> Discard;", 500, interval=0.001)
        router.sim.run(until=2.0)
        count = int(router.read_handler("c.count"))
        assert 90 <= count <= 110  # ~50 pps over 2 s

    def test_two_parameters(self):
        router = Router.from_config(
            "elementclass Tagged { $rate, $limit |"
            "  input -> q :: Queue($limit) -> Shaper($rate)"
            "  -> Unqueue -> output;"
            "}"
            "Idle -> t :: Tagged(3, 17) -> Discard;")
        assert router.element("t/q").capacity == 17
        shaper = [e for name, e in router.elements.items()
                  if name.startswith("t/Shaper")]
        assert shaper[0].rate == 3

    def test_instances_with_different_arguments(self):
        router = Router.from_config(
            "elementclass Q { $cap | input -> q :: Queue($cap)"
            " -> Unqueue -> output; }"
            "Idle -> a :: Q(5) -> Discard;"
            "Idle -> b :: Q(500) -> d2 :: Discard;")
        assert router.element("a/q").capacity == 5
        assert router.element("b/q").capacity == 500

    def test_wrong_arity_rejected(self):
        with pytest.raises(ConfigError) as exc:
            Router.from_config(
                "elementclass Q { $cap | input -> Queue($cap)"
                " -> Unqueue -> output; }"
                "Idle -> Q(5, 9) -> Discard;")
        assert "parameter" in str(exc.value)

    def test_missing_argument_rejected(self):
        with pytest.raises(ConfigError):
            Router.from_config(
                "elementclass Q { $cap | input -> Queue($cap)"
                " -> Unqueue -> output; }"
                "Idle -> Q -> Discard;")

    def test_longest_name_substituted_first(self):
        router = Router.from_config(
            "elementclass TwoQ { $cap, $cap2 |"
            "  input -> a :: Queue($cap) -> Unqueue"
            "  -> b :: Queue($cap2) -> Unqueue -> output;"
            "}"
            "Idle -> t :: TwoQ(11, 22) -> Discard;")
        assert router.element("t/a").capacity == 11
        assert router.element("t/b").capacity == 22
