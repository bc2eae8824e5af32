// Package udr implements UDR, the OSDC's high-speed transfer tool (paper
// §7.2): "a tool that provides the familiar interface of rsync while
// utilizing the high performance UDT protocol". It holds the tool
// configurations of Table 3 (udr vs rsync × none/blowfish/3des), their
// host-side caps, and the simulated end-to-end transfers over the OSDC WAN.
package udr

import (
	"fmt"

	"osdc/internal/cipher"
	"osdc/internal/sim"
	"osdc/internal/simdisk"
	"osdc/internal/tcpmodel"
	"osdc/internal/transport"
	"osdc/internal/udt"
)

// Tool selects the transfer engine: UDR (rsync interface over UDT) or plain
// rsync (over TCP; over ssh when a cipher is configured).
type Tool string

// The two tools compared in Table 3.
const (
	ToolUDR   Tool = "udr"
	ToolRsync Tool = "rsync"
)

// Host-side calibration constants for the paper's testbed (2012 Xeon-class
// servers; see DESIGN.md "Substitutions").
const (
	// UDRSenderCPUBps is UDR's single-stream UDP send-path throughput:
	// per-packet syscall and checksum cost bound a 2012 host near
	// 750 Mbit/s regardless of the 10G NIC.
	UDRSenderCPUBps = 753e6
	// RsyncSocketBufBytes is the effective TCP window with 2012 default
	// socket-buffer tuning; on a 104 ms path it caps TCP near 405 Mbit/s.
	RsyncSocketBufBytes = 5_270_000
	// SSHWindowBytes is the ssh channel flow-control window that caps all
	// encrypted rsync runs near 280 Mbit/s on a 104 ms path, regardless of
	// cipher.
	SSHWindowBytes = 3_640_000
)

// Config describes one row of Table 3.
type Config struct {
	Tool   Tool
	Cipher cipher.Name
}

func (c Config) String() string {
	if c.Cipher == cipher.None {
		return fmt.Sprintf("%s (no encryption)", c.Tool)
	}
	return fmt.Sprintf("%s (%s)", c.Tool, c.Cipher)
}

// Table3Configs returns the five tool/cipher combinations of Table 3, in
// the paper's row order.
func Table3Configs() []Config {
	return []Config{
		{ToolUDR, cipher.None},
		{ToolRsync, cipher.None},
		{ToolUDR, cipher.Blowfish},
		{ToolRsync, cipher.Blowfish},
		{ToolRsync, cipher.TripleDES},
	}
}

// Caps builds the pipeline caps for a configuration against the paper's
// disks.
func (c Config) Caps() transport.Caps {
	caps := transport.Caps{
		DiskReadBps:  simdisk.PaperSourceReadBps,
		DiskWriteBps: simdisk.PaperTargetWriteBps,
	}
	impl := cipher.ImplSSH
	if c.Tool == ToolUDR {
		impl = cipher.ImplUDR
		caps.SenderBps = UDRSenderCPUBps
	}
	if cbps := cipher.ThroughputBps(c.Cipher, impl); cbps > 0 {
		if caps.SenderBps == 0 || cbps < caps.SenderBps {
			caps.SenderBps = cbps
		}
	}
	return caps
}

// Controller builds the congestion controller for a configuration.
func (c Config) Controller(path transport.Path) transport.Controller {
	if c.Tool == ToolUDR {
		return udt.NewRateControl(path)
	}
	window := RsyncSocketBufBytes
	if c.Cipher != cipher.None {
		window = SSHWindowBytes // rsync tunnels through ssh when encrypting
	}
	return tcpmodel.NewReno(path, window)
}

// Transfer simulates moving totalBytes over path with this configuration
// and returns the result plus the caps used (for LLR computation).
func Transfer(rng *sim.RNG, cfg Config, path transport.Path, totalBytes int64) (transport.Result, transport.Caps) {
	caps := cfg.Caps()
	ctrl := cfg.Controller(path)
	res := transport.Simulate(rng, path, ctrl, totalBytes, caps)
	res.Protocol = cfg.String()
	return res, caps
}
