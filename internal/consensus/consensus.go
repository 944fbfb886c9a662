// Package consensus builds single-value consensus on top of the paper's
// leader election primitive — the application its introduction motivates
// ("a key primitive that supports ... event ordering, agreement, and
// synchronization") and its conclusion lists as future work for the model.
//
// The construction piggybacks each node's proposal value on the bit
// convergence ID pairs: whenever a node adopts a smaller ID pair it also
// adopts the value proposed by that pair's owner. When the network
// stabilizes to one leader, every node holds that leader's proposal.
// Agreement and validity are therefore inherited directly from leader
// election's stabilization guarantee:
//
//   - Validity: the decided value is the input of some node (the leader).
//   - Agreement: once stabilized, all nodes hold the same value.
//   - Termination: with probability 1, within the leader election bound
//     (Theorem VIII.2 for the asynchronous-activation variant used here).
//
// The protocol runs the non-synchronized bit convergence algorithm
// (Section VIII), so it tolerates asynchronous activations and component
// merges like its substrate.
package consensus

import (
	"fmt"

	"mobiletel/internal/core"
	"mobiletel/internal/sim"
	"mobiletel/internal/xrand"
)

// Proposer is a consensus node: an AsyncBitConv leader election machine
// carrying a proposal value with its smallest ID pair.
type Proposer struct {
	params core.BitConvParams
	self   core.IDPair

	best  core.IDPair
	value uint64 // proposal of best's owner

	localRound int
	position   int
}

var _ sim.Protocol = (*Proposer)(nil)

// NewProposer creates a consensus node with the given UID, random tag, and
// proposal value.
func NewProposer(uid, tag, value uint64, params core.BitConvParams) *Proposer {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if tag == 0 || tag >= uint64(1)<<uint(params.K) {
		panic(fmt.Sprintf("consensus: tag %d outside [1, 2^%d)", tag, params.K))
	}
	pair := core.IDPair{UID: uid, Tag: tag}
	return &Proposer{params: params, self: pair, best: pair, value: value}
}

// bitValue returns the advertised bit of the current smallest tag at the
// node's current position.
func (p *Proposer) bitValue() uint64 {
	return (p.best.Tag >> uint(p.params.K-p.position)) & 1
}

// encodeTag packs (position, bit) exactly as AsyncBitConv does.
func encodeTag(position int, bit uint64) uint64 {
	return uint64(position-1)*2 + bit
}

// Advertise starts a new local group when due and advertises
// (position, bit).
func (p *Proposer) Advertise(ctx *sim.Context) uint64 {
	if p.localRound%p.params.GroupLen == 0 {
		p.position = 1 + ctx.RNG.Intn(p.params.K)
	}
	return encodeTag(p.position, p.bitValue())
}

// Decide follows the AsyncBitConv PPUSH rule.
func (p *Proposer) Decide(ctx *sim.Context) (int32, bool) {
	if p.bitValue() != 0 {
		return 0, false
	}
	want := encodeTag(p.position, 1)
	target, ok := ctx.RandomNeighborTagged(want)
	if !ok {
		return 0, false
	}
	return target, true
}

// Outgoing sends (pair, proposal-of-pair-owner). The UID and the value are
// the two UID-sized payload slots; the tag travels in the auxiliary bits.
func (p *Proposer) Outgoing(*sim.Context, int32) sim.Message {
	return sim.Message{Aux: p.best.Tag}.WithUID(p.best.UID).WithUID(p.value)
}

// Deliver adopts the peer's pair and value together when the pair is
// smaller.
func (p *Proposer) Deliver(_ *sim.Context, _ int32, msg sim.Message) {
	if msg.NUIDs() != 2 {
		return
	}
	got := core.IDPair{UID: msg.UID(0), Tag: msg.Aux}
	if got.Less(p.best) {
		p.best = got
		p.value = msg.UID(1)
	}
}

// EndRound advances the local round counter.
func (p *Proposer) EndRound(*sim.Context) { p.localRound++ }

// Leader returns the UID of the current smallest ID pair.
func (p *Proposer) Leader() uint64 { return p.best.UID }

// Value returns the proposal currently associated with the node's smallest
// pair — after stabilization, the decided consensus value.
func (p *Proposer) Value() uint64 { return p.value }

// Best returns the node's current smallest ID pair.
func (p *Proposer) Best() core.IDPair { return p.best }

// AllAgree is the consensus stop condition: every node holds the same
// (leader, value).
func AllAgree(_ int, protocols []sim.Protocol) bool {
	first := protocols[0].(*Proposer)
	for _, p := range protocols[1:] {
		q := p.(*Proposer)
		if q.best != first.best || q.value != first.value {
			return false
		}
	}
	return true
}

// NewNetwork builds a consensus network: one Proposer per node with the
// given proposal values. UIDs and tags are drawn from seed. It returns the
// protocols and the tag assignment.
func NewNetwork(values []uint64, params core.BitConvParams, seed uint64) ([]sim.Protocol, []uint64) {
	n := len(values)
	uids := core.UniqueUIDs(n, xrand.Mix3(seed, 0xc05, 0))
	tags := core.AssignTags(n, params.K, xrand.Mix3(seed, 0xc05, 1))
	protocols := make([]sim.Protocol, n)
	for i := range protocols {
		protocols[i] = NewProposer(uids[i], tags[i], values[i], params)
	}
	return protocols, tags
}

// TagBits returns the advertisement width the consensus protocol needs
// (same as AsyncBitConv).
func TagBits(params core.BitConvParams) int { return core.TagBitsNeeded(params) }
