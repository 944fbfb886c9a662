package sim

// WithPool returns cfg with the pool's node-count and single-P gates
// dropped: any Workers > 1 then runs every phase on the persistent worker
// pool, so tests exercise the parallel path on small networks and on
// single-P hosts, where the production resolution would run inline.
func WithPool(cfg Config) Config {
	cfg.forcePool = true
	return cfg
}
