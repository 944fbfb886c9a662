package core

import (
	"mobiletel/internal/obs"
	"mobiletel/internal/sim"
	"mobiletel/internal/xrand"
)

// BlindGossip is the Section VI algorithm for b = 0: each round, flip a fair
// coin to send or receive; senders propose to a uniformly random neighbor;
// a connected pair trades the smallest UIDs each has seen, and both adopt
// the minimum as their leader.
//
// Theorem VI.1: stabilizes in O((1/α)Δ²log²n) rounds for any τ >= 1. The
// same protocol run on a rumor (Corollary VI.6) is classical PUSH-PULL.
type BlindGossip struct {
	uid  uint64
	best uint64
}

var (
	_ sim.Protocol    = (*BlindGossip)(nil)
	_ sim.Corruptible = (*BlindGossip)(nil)
)

// NewBlindGossip returns the protocol instance for one node with the given
// UID. Leader is initialized to the node's own UID per Section IV.
func NewBlindGossip(uid uint64) *BlindGossip {
	return &BlindGossip{uid: uid, best: uid}
}

// Advertise returns 0: blind gossip uses no advertisement bits (b = 0).
//
//mtmlint:hotpath
func (p *BlindGossip) Advertise(*sim.Context) uint64 { return 0 }

// Decide flips a fair coin; senders target a uniformly random neighbor.
//
//mtmlint:hotpath
func (p *BlindGossip) Decide(ctx *sim.Context) (int32, bool) {
	if ctx.RNG.Bool() {
		return 0, false // receive
	}
	target, ok := ctx.RandomNeighbor()
	if !ok {
		return 0, false // isolated this round; nothing to send to
	}
	return target, true
}

// Outgoing sends the smallest UID seen so far.
//
//mtmlint:hotpath
func (p *BlindGossip) Outgoing(*sim.Context, int32) sim.Message {
	return sim.Message{}.WithUID(p.best)
}

// Deliver adopts the peer's UID if smaller.
//
//mtmlint:hotpath
func (p *BlindGossip) Deliver(ctx *sim.Context, _ int32, msg sim.Message) {
	if msg.NUIDs() == 1 && msg.UID(0) < p.best {
		ctx.EmitTransition(obs.KindLeader, p.best, msg.UID(0))
		p.best = msg.UID(0)
	}
}

// EndRound is a no-op: state updates happen on delivery.
//
//mtmlint:hotpath
func (p *BlindGossip) EndRound(*sim.Context) {}

// Leader returns the current leader variable: the smallest UID seen.
func (p *BlindGossip) Leader() uint64 { return p.best }

// CorruptState implements sim.Corruptible: the node forgets every UID it
// has seen and restarts from its own, exactly as a fresh activation.
func (p *BlindGossip) CorruptState(*xrand.RNG) { p.best = p.uid }

// UID returns the node's own immutable UID.
func (p *BlindGossip) UID() uint64 { return p.uid }

// NewBlindGossipNetwork builds one BlindGossip protocol per node for the
// given UID assignment.
func NewBlindGossipNetwork(uids []uint64) []sim.Protocol {
	protocols := make([]sim.Protocol, len(uids))
	for i, uid := range uids {
		protocols[i] = NewBlindGossip(uid)
	}
	return protocols
}
