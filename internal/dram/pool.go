package dram

// Pool recycles Request objects so the simulator's per-access hot path
// runs allocation-free in steady state. It is deliberately not a
// sync.Pool: a simulated system is single-threaded by design (the
// deterministic coordinator), so a plain freelist with no atomics is
// both faster and exactly reproducible. Each Controller owns one pool;
// parallel experiment runners therefore never share a freelist.
//
// Lifetime rules:
//
//   - Get returns a zeroed request owned by the caller (one reference).
//   - Ref adds an owner — the controller takes one on the leaf-PT
//     request a TEMPO prefetch pairs with, since schedulers compare
//     that pointer while the prefetch is queued.
//   - Release drops one owner; the last release returns the request to
//     the freelist. Requests created directly with &Request{} are not
//     pool-managed: Ref/Release ignore them and the GC owns them, so
//     tests and external callers need no changes.
//   - AutoRelease marks fire-and-forget transactions (writebacks,
//     TEMPO prefetches): the controller releases them itself after the
//     serve completes and every hook has run.
type Pool struct {
	free []*Request
}

// Get returns a zeroed pool-managed request with one reference.
func (p *Pool) Get() *Request {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		*r = Request{pooled: true, refs: 1}
		return r
	}
	return &Request{pooled: true, refs: 1}
}

// Release drops one reference; the last one recycles the request.
// Non-pool requests are ignored. Releasing a request nobody owns is a
// lifetime bug and panics rather than corrupting a future reuse.
func (p *Pool) Release(r *Request) {
	if r == nil || !r.pooled {
		return
	}
	if r.refs <= 0 {
		panic("dram: release of an already-free request")
	}
	r.refs--
	if r.refs == 0 {
		p.free = append(p.free, r)
	}
}

// Ref adds an owner to a pool-managed request (no-op for others).
func (r *Request) Ref() {
	if r.pooled {
		r.refs++
	}
}

// FreeLen reports the current freelist depth (tests).
func (p *Pool) FreeLen() int { return len(p.free) }
