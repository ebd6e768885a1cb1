package sim

// ClonePool is a free list of retired Configurations used as pooled-clone
// destinations (CloneInto, Successor.Commit). Package explore keeps the
// allocation rate of its searches flat by recycling every configuration that
// leaves the search through a pool; the parallel frontier search keeps one
// pool per worker so that the hot commit/release cycle never contends on
// shared state.
//
// A ClonePool is NOT safe for concurrent use; that is the point — give each
// goroutine its own. Configurations put into a pool must no longer be
// referenced by the caller: their allocations are reused by the next Get.
type ClonePool struct {
	free []*Configuration
}

// Get pops a retired configuration to reuse as a CloneInto destination, or
// returns nil when the pool is empty (CloneInto then allocates fresh).
func (p *ClonePool) Get() *Configuration {
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return c
	}
	return nil
}

// Put returns a configuration to the free list. The caller must not touch it
// afterwards.
func (p *ClonePool) Put(c *Configuration) {
	if c == nil {
		return
	}
	p.free = append(p.free, c)
}

// Len reports the number of pooled configurations.
func (p *ClonePool) Len() int { return len(p.free) }
