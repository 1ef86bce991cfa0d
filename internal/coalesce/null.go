// Package coalesce provides the baseline memory-path designs that the
// paper compares MAC against:
//
//   - Null: the "without MAC" path — every raw request becomes its own
//     FLIT-granularity HMC transaction, the configuration all of the
//     paper's with/without comparisons (Figs. 10, 12, 13, 14, 17) use;
//   - MSHR: the conventional miss-status-holding-register coalescer of
//     §2.3 — fixed 64B cache-line transactions dispatched immediately
//     on first miss, with subsequent same-line requests merged while
//     the original is outstanding. It illustrates the limitation
//     argued in §2.3.2: fixed-size, dispatch-on-allocate coalescing
//     cannot exploit the HMC's large flexible packets;
//   - Warp: the SIMT warp-lane coalescer of GPU memory units, which
//     groups only what one warp exhibits at one instant;
//   - MemCache: the die-stacked "part memory, part cache" design of
//     Bakhshalipour et al., which spends stacked capacity on a cache
//     instead of coalescing the request stream.
//
// All four implement memreq.Coalescer on one shared frontend (input
// FIFO, held-fence rule, statistics, in-flight count, target-slab
// pool), so the node model and the experiment harness can swap them
// freely with the real MAC.
package coalesce

import (
	"fmt"

	"mac3d/internal/memreq"
	"mac3d/internal/sim"
)

// NullConfig parameterizes the raw request path.
type NullConfig struct {
	// QueueDepth sizes the dispatch FIFO decoupling cores from the
	// memory interface.
	QueueDepth int
}

// DefaultNullConfig returns the paper's no-MAC configuration.
func DefaultNullConfig() NullConfig {
	return NullConfig{QueueDepth: 64}
}

// Null is the identity "coalescer": raw requests pass through
// unmodified as single-FLIT (or raw-sized) transactions, one per cycle
// — the rate at which the ARQ accepts raw requests.
type Null struct {
	frontend
}

var _ memreq.Coalescer = (*Null)(nil)

// NewNull builds the pass-through path.
func NewNull(cfg NullConfig) *Null {
	if cfg.QueueDepth <= 0 {
		panic(fmt.Sprintf("coalesce: QueueDepth must be positive, got %d", cfg.QueueDepth))
	}
	return &Null{newFrontend(cfg.QueueDepth, 1)}
}

// Tick dispatches the queued head request as its own transaction.
func (n *Null) Tick(sim.Cycle) []memreq.Built {
	head, ok := n.head()
	if !ok {
		return nil
	}
	n.q.Pop()
	b := n.single(head, false)
	n.Stats().TargetsPerTx.Observe(1)
	return n.emit(b)
}
