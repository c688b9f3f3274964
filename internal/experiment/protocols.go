package experiment

import (
	"fmt"

	"teleadjust/internal/core"
	"teleadjust/internal/ctp"
	"teleadjust/internal/drip"
	"teleadjust/internal/node"
	"teleadjust/internal/protocol"
	"teleadjust/internal/rpl"
	"teleadjust/internal/sim"
)

// Proto is a control-protocol key. The experiment runners are
// protocol-agnostic: they build networks by key and drive whatever the
// key's builder returns through the protocol.ControlProtocol interface.
type Proto string

// Keys of the paper's comparison (Tele is TeleAdjusting without the
// destination-unreachable countermeasure, ReTele with it, TeleStrict the
// non-opportunistic ablation) plus the raw TeleAdjusting stack used by
// the coding and scope studies.
const (
	// ProtoNone builds a collection-only network without a control plane.
	ProtoNone Proto = ""
	// ProtoTeleAdjust runs TeleAdjusting exactly as the scenario
	// configures it (coding and scope studies; scenario defaults keep the
	// rescue countermeasure on).
	ProtoTeleAdjust Proto = "teleadjust"
	ProtoTele       Proto = "tele"
	ProtoReTele     Proto = "retele"
	ProtoTeleStrict Proto = "strict"
	ProtoDrip       Proto = "drip"
	ProtoRPL        Proto = "rpl"
)

// Builder assembles one node's control-protocol instance during Build.
// Builders run once per node in node-index order and must derive their
// randomness from cfg.Seed and the node index (not from shared streams) so
// replications stay independent and reproducible.
type Builder func(cfg *Config, n *node.Node, c *ctp.CTP, idx int) protocol.ControlProtocol

// protoInfo is one row of the protocol table.
type protoInfo struct {
	key Proto
	// name is the display name the paper's figures use.
	name  string
	build Builder
	// codec reports that the protocol runs path coding, so a scenario's
	// Codec applies to it.
	codec bool
}

// protocols is the protocol table, sorted by key.
var protocols = []protoInfo{
	{ProtoDrip, "Drip", func(cfg *Config, n *node.Node, c *ctp.CTP, idx int) protocol.ControlProtocol {
		return drip.New(n, c, cfg.Drip, sim.DeriveRNG(cfg.Seed, 0x4000+uint64(idx)))
	}, false},
	{ProtoReTele, "Re-Tele", teleBuilder(func(c core.Config) core.Config {
		c.Rescue = true
		return c
	}), true},
	{ProtoRPL, "RPL", func(cfg *Config, n *node.Node, c *ctp.CTP, idx int) protocol.ControlProtocol {
		return rpl.New(n, c, cfg.Rpl, sim.DeriveRNG(cfg.Seed, 0x5000+uint64(idx)))
	}, false},
	{ProtoTeleStrict, "Tele-strict", teleBuilder(func(c core.Config) core.Config {
		c.Rescue = false
		c.Opportunistic = false
		return c
	}), true},
	{ProtoTele, "Tele", teleBuilder(func(c core.Config) core.Config {
		c.Rescue = false
		return c
	}), true},
	{ProtoTeleAdjust, "TeleAdjusting", teleBuilder(func(c core.Config) core.Config { return c }), true},
}

// info looks the key up in the protocol table; ProtoNone and unknown keys
// return the zero row.
func (p Proto) info() protoInfo {
	for _, e := range protocols {
		if e.key == p {
			return e
		}
	}
	return protoInfo{}
}

// String returns the protocol's display name as used in the paper's
// figures.
func (p Proto) String() string {
	if p == ProtoNone {
		return "none"
	}
	if e := p.info(); e.build != nil {
		return e.name
	}
	return string(p)
}

// TakesCodec reports whether a scenario's Codec applies to the protocol:
// true for the TeleAdjusting variants.
func (p Proto) TakesCodec() bool { return p.info().codec }

// Protocols lists the protocol keys in sorted order.
func Protocols() []Proto {
	out := make([]Proto, len(protocols))
	for i, e := range protocols {
		out[i] = e.key
	}
	return out
}

// builderFor resolves a protocol key; ProtoNone resolves to a nil builder.
func builderFor(p Proto) (Builder, error) {
	if p == ProtoNone {
		return nil, nil
	}
	b := p.info().build
	if b == nil {
		return nil, fmt.Errorf("experiment: unknown protocol %q", p)
	}
	return b, nil
}

// teleBuilder returns a builder for a TeleAdjusting variant; tweak maps
// the scenario's core config to the variant's (the Rescue and
// Opportunistic switches of the paper's comparison).
func teleBuilder(tweak func(core.Config) core.Config) Builder {
	return func(cfg *Config, n *node.Node, c *ctp.CTP, idx int) protocol.ControlProtocol {
		return core.New(n, c, tweak(cfg.Tele), sim.DeriveRNG(cfg.Seed, 0x3000+uint64(idx)))
	}
}
