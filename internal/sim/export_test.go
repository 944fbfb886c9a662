package sim

// WithPool returns cfg with the pool's node-count and single-P gates
// dropped: any Workers > 1 then runs every phase on the persistent worker
// pool, so tests exercise the parallel path on small networks and on
// single-P hosts, where the production resolution would run inline.
func WithPool(cfg Config) Config {
	cfg.forcePool = true
	return cfg
}

// LooksAhead reports whether e builds the schedule's next round on a
// helper goroutine (see lookahead).
func LooksAhead(e *Engine) bool { return e.ahead != nil }

// LookaheadRequests reports how many GraphAt requests e's lookahead has
// published so far: each is one advance of its pool's epoch.
func LookaheadRequests(e *Engine) uint64 { return e.ahead.pool.epoch.Load() }
