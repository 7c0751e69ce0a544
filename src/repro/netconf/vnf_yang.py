"""The VNF-container YANG module.

This is the data model the paper describes: "The operation of the agent
is described by the YANG data modeling language and implemented by
low-level instrumentation codes."  The module is its RPCs: initiate
(start), terminate (stop), connect/disconnect VNF ports, and read,
list and write Clicky handlers.  The orchestrator reads "real-time
management information on running VNFs" through ``getVNFInfo``; the
module has no data nodes and the agent no ``<get>``.
"""

VNF_NS = "urn:escape:params:xml:ns:yang:vnf"

VNF_YANG = """
module vnf {
  namespace "urn:escape:params:xml:ns:yang:vnf";
  prefix "vnf";

  description
    "Management model for ESCAPE VNF containers: start/stop Click-based
     VNFs, splice their virtual devices to switch-facing interfaces, and
     read and write their Clicky-style handlers.";

  typedef vnf-status {
    type enumeration {
      enum INITIALIZING;
      enum UP;
      enum STOPPED;
      enum FAILED;
    }
  }

  rpc startVNF {
    description "Launch a Click-based VNF in this container.";
    input {
      leaf id { type string; mandatory true; }
      leaf click-config { type string; mandatory true; }
      leaf devices { type string;
        description "comma-separated virtual device names"; }
      leaf cpu { type decimal64; default "0.5"; }
      leaf mem { type decimal64; default "256"; }
    }
    output {
      leaf status { type vnf-status; }
    }
  }

  rpc stopVNF {
    input {
      leaf id { type string; mandatory true; }
    }
  }

  rpc connectVNF {
    description "Splice a VNF device to a switch-facing interface.";
    input {
      leaf id { type string; mandatory true; }
      leaf device { type string; mandatory true; }
      leaf interface { type string; mandatory true; }
    }
  }

  rpc disconnectVNF {
    input {
      leaf id { type string; mandatory true; }
      leaf device { type string; mandatory true; }
    }
  }

  rpc getVNFInfo {
    description "Read one Clicky handler of a running VNF.";
    input {
      leaf id { type string; mandatory true; }
      leaf handler { type string; mandatory true; }
    }
    output {
      leaf value { type string; }
    }
  }

  rpc listHandlers {
    description "Enumerate the read handlers of a running VNF.";
    input {
      leaf id { type string; mandatory true; }
    }
    output {
      leaf handlers { type string;
        description "newline-separated element.handler paths"; }
    }
  }

  rpc writeVNFHandler {
    description "Write one handler of a running VNF (reconfigure).";
    input {
      leaf id { type string; mandatory true; }
      leaf handler { type string; mandatory true; }
      leaf value { type string; mandatory true; }
    }
  }
}
"""
