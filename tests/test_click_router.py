"""Tests for Router construction, validation and handler namespace."""

import pytest

from repro.click import (ClickPacket, ConfigError, HandlerError, Router,
                         lookup_element, parse_config, registered_elements)
from repro.core.catalog import default_catalog
from repro.sim import Simulator
from tests.feed import fed_router


class TestConstruction:
    def test_unknown_element_class(self):
        with pytest.raises(ConfigError):
            Router.from_config("x :: NoSuchElement;")

    def test_bad_element_config_surfaces(self):
        with pytest.raises(ConfigError):
            Router.from_config("q :: Queue(not-a-number) -> Unqueue"
                               " -> Discard; Idle -> q;")

    def test_port_out_of_range(self):
        # Counter has exactly one output
        with pytest.raises(ConfigError):
            Router.from_config(
                "c :: Counter; Idle -> c; c[1] -> Discard; c[0] -> Discard;")

    def test_double_connected_output_rejected(self):
        with pytest.raises(ConfigError):
            Router.from_config(
                "c :: Counter; Idle -> c;"
                "c -> d1 :: Discard; c -> d2 :: Discard;")

    def test_fan_in_on_push_input_allowed(self):
        router = Router.from_config(
            "a :: FromDevice(in0); b :: FromDevice(in1);"
            "c :: Counter; a -> c; b -> c; c -> Discard;")
        assert router.element("c").inputs[0].connected

    def test_unconnected_input_rejected(self):
        with pytest.raises(ConfigError) as exc:
            Router.from_config("c :: Counter; c -> Discard;")
        assert "unconnected" in str(exc.value)

    def test_unconnected_output_rejected(self):
        with pytest.raises(ConfigError):
            Router.from_config("Idle -> c :: Counter;")

    def test_idle_may_dangle(self):
        Router.from_config("i :: Idle;")  # no error

    def test_variable_port_elements_sized_by_connections(self):
        router = Router.from_config(
            "t :: Tee; Idle -> t;"
            "t[0] -> d0 :: Discard; t[1] -> d1 :: Discard;"
            "t[2] -> d2 :: Discard;")
        assert router.element("t").noutputs == 3


class TestPersonalityResolution:
    def test_push_to_pull_conflict(self):
        with pytest.raises(ConfigError) as exc:
            Router.from_config(
                "FromDevice(in0) -> Shaper(10) -> Discard;")
        assert "Queue" in str(exc.value)

    def test_queue_resolves_boundary(self):
        router = Router.from_config(
            "src :: FromDevice(in0) -> Queue -> Shaper(10)"
            " -> Unqueue -> Discard;")
        assert router is not None

    def test_agnostic_inherits_push(self):
        router = Router.from_config(
            "src :: FromDevice(in0) -> c :: Counter -> Discard;")
        element = router.element("c")
        assert element.inputs[0].resolved == "push"
        assert element.outputs[0].resolved == "push"

    def test_agnostic_inherits_pull(self):
        router = Router.from_config(
            "src :: FromDevice(in0) -> Queue"
            " -> c :: Counter -> Unqueue -> Discard;")
        element = router.element("c")
        assert element.inputs[0].resolved == "pull"

    def test_agnostic_conflict_through_element(self):
        # a Counter cannot be push on the input side and pull on the
        # output side at once
        with pytest.raises(ConfigError):
            Router.from_config(
                "FromDevice(in0) -> c :: Counter"
                " -> Shaper(5) -> Unqueue -> Discard;")

    def test_pull_fan_in_rejected(self):
        with pytest.raises(ConfigError):
            Router.from_config(
                "s1 :: FromDevice(in0) -> q1 :: Queue;"
                "s2 :: FromDevice(in1) -> q2 :: Queue;"
                "u :: Unqueue -> Discard;"
                "q1 -> u; q2 -> u;")


class TestHandlers:
    def test_read_handler_path(self):
        router = fed_router(
            "src :: FromDevice(in0) -> c :: Counter -> Discard;", 2)
        router.sim.run(until=1.0)
        assert router.read_handler("c.count") == "2"

    def test_default_handlers_exist(self):
        router = Router.from_config("i :: Idle;")
        assert router.read_handler("i.class") == "Idle"
        assert router.read_handler("i.config") == ""

    def test_write_handler(self):
        router = fed_router(
            "src :: FromDevice(in0) -> c :: Counter -> Discard;", 5)
        router.sim.run(until=1.0)
        router.write_handler("c.reset", "")
        assert router.read_handler("c.count") == "0"

    def test_missing_element(self):
        router = Router.from_config("i :: Idle;")
        with pytest.raises(HandlerError):
            router.read_handler("ghost.count")

    def test_missing_handler(self):
        router = Router.from_config("i :: Idle;")
        with pytest.raises(HandlerError):
            router.read_handler("i.nonexistent")

    def test_malformed_path(self):
        router = Router.from_config("i :: Idle;")
        with pytest.raises(HandlerError):
            router.read_handler("justonename")

    def test_handlers_listing(self):
        router = Router.from_config(
            "Idle -> q :: Queue -> Unqueue -> Discard;")
        listing = router.handlers()
        reads, writes = listing["q"]
        assert "length" in reads
        assert "reset" in writes


class TestLifecycle:
    def test_start_idempotent(self):
        router = fed_router("src :: FromDevice(in0) -> Discard;", 1)
        router.start()
        router.sim.run(until=1.0)
        assert router.read_handler("src.count") == "1"

    def test_stop_halts_sources(self):
        sim = Simulator()
        router = fed_router(
            "src :: FromDevice(in0) -> c :: Counter -> Discard;", 100,
            interval=0.01, sim=sim)
        sim.run(until=0.1)
        count_at_stop = int(router.read_handler("c.count"))
        router.stop()
        sim.run(until=1.0)
        assert int(router.read_handler("c.count")) == count_at_stop

    def test_flat_config_regenerates(self):
        router = Router.from_config("src :: FromDevice(in0) -> Discard;")
        flat = router.flat_config()
        assert "src :: FromDevice" in flat
        assert "->" in flat or "[0]" in flat


class TestRegistry:
    def test_stock_library_registered(self):
        names = registered_elements()
        for expected in ("Counter", "Queue", "IPFilter", "IPRewriter",
                         "FromDevice", "ToDevice", "StringMatcher"):
            assert expected in names

    def test_lookup_unknown_raises(self):
        with pytest.raises(ConfigError):
            lookup_element("Bogus")

    def test_library_is_what_the_catalog_composes(self):
        """Every stock element is named by a catalog entry's config; an
        element only tests reach does not belong in the library."""
        catalog = default_catalog()
        composed = set()
        for name in catalog.names():
            params = {"nat_ip": "10.0.0.100"} if name == "nat" else {}
            config = parse_config(catalog.get(name).render(params))
            composed.update(spec.class_name
                            for spec in config.elements.values())
        library = {name for name in registered_elements()
                   if lookup_element(name).__module__.startswith("repro.")}
        # the examples cap unused ports with Idle, the stand-in device
        assert library - composed == {"Idle"}


class TestClickPacket:
    def test_parsed_view_cached_and_invalidated(self):
        from repro.packet import Ethernet
        frame = Ethernet(src="00:00:00:00:00:01",
                         dst="00:00:00:00:00:02", type=0x0800)
        packet = ClickPacket(frame.pack())
        first = packet.parsed()
        assert first is packet.parsed()  # cached
        packet.data = b""
        assert packet.parsed() is None  # invalidated

    def test_clone_is_independent(self):
        packet = ClickPacket(b"abc")
        clone = packet.clone()
        clone.data = b"xyz"
        assert packet.data == b"abc"
        assert clone is not packet

    def test_from_header(self):
        from repro.packet import Ethernet
        packet = ClickPacket.from_header(Ethernet(type=0x1234))
        assert len(packet) == 14
