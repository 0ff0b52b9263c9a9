package service

import (
	"encoding/json"
	"io"

	"repro/internal/obsv"
)

// registerMetrics exposes the coordinator's counts as the canonical
// svc/* series. Every series is a gauge over the coordinator's own
// fields, so /metrics reads what /queue reads and a snapshot always
// satisfies the obsv.Audit conservation law (submitted = queued +
// running + completed + failed + canceled). Snapshot calls the gauges
// under the registry lock and each takes c.mu, so the coordinator
// never calls the registry while it holds c.mu. New calls this before
// any worker starts, so the restored tenant table is stable.
func (c *Coordinator) registerMetrics() {
	for name, read := range map[string]func() uint64{
		obsv.MetricSvcSubmitted:     func() uint64 { return c.submitted },
		obsv.MetricSvcQueued:        func() uint64 { return uint64(len(c.queue)) },
		obsv.MetricSvcRunning:       func() uint64 { return uint64(c.running) },
		obsv.MetricSvcCompleted:     func() uint64 { return c.completed },
		obsv.MetricSvcFailed:        func() uint64 { return c.failed },
		obsv.MetricSvcCanceled:      func() uint64 { return c.canceled },
		obsv.MetricSvcCacheHits:     func() uint64 { return c.cacheHits },
		obsv.MetricSvcDedupHits:     func() uint64 { return c.dedupHits },
		obsv.MetricSvcRejectedQuota: func() uint64 { return c.rejectedQuota },
		obsv.MetricSvcRejectedQueue: func() uint64 { return c.rejectedQueue },
	} {
		c.opts.Registry.Gauge(name, c.gauge(read))
	}
	for name := range c.tenants {
		c.registerTenant(name)
	}
}

// registerTenant exposes one tenant's admission counts as the
// svc/tenant/<name>/admitted and /rejected gauges. Registering takes
// the registry lock, so callers must not hold c.mu.
func (c *Coordinator) registerTenant(name string) {
	field := func(read func(*tenantState) uint64) func() uint64 {
		return c.gauge(func() uint64 {
			if t := c.tenants[name]; t != nil {
				return read(t)
			}
			return 0
		})
	}
	c.opts.Registry.Gauge("svc/tenant/"+name+"/admitted", field(func(t *tenantState) uint64 { return t.admitted }))
	c.opts.Registry.Gauge("svc/tenant/"+name+"/rejected", field(func(t *tenantState) uint64 { return t.rejected }))
}

// gauge wraps a coordinator-state read in the mutex for snapshot-time
// evaluation.
func (c *Coordinator) gauge(read func() uint64) func() uint64 {
	return func() uint64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return read()
	}
}

// writeEvent marshals one lifecycle event onto the broadcast stream.
func writeEvent(w io.Writer, ev Event) {
	blob, err := json.Marshal(ev)
	if err != nil {
		return
	}
	w.Write(append(blob, '\n'))
}
