package service

import (
	"encoding/json"
	"io"

	"repro/internal/obsv"
)

// metricsInto is the coordinator's registry source: from one hold of
// mu it emits the canonical svc/* series and, for each tenant /queue
// lists, svc/tenant/<name>/admitted and /rejected. So /metrics reads
// what /queue reads, and every snapshot satisfies the obsv.Audit
// conservation law (submitted = queued + running + completed + failed
// + canceled). Snapshot calls it outside the registry's lock, and the
// coordinator never calls the registry after New, so the two locks are
// never held together.
func (c *Coordinator) metricsInto(emit func(name string, v uint64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	emit(obsv.MetricSvcSubmitted, c.submitted)
	emit(obsv.MetricSvcQueued, uint64(len(c.queue)))
	emit(obsv.MetricSvcRunning, uint64(c.running))
	emit(obsv.MetricSvcCompleted, c.completed)
	emit(obsv.MetricSvcFailed, c.failed)
	emit(obsv.MetricSvcCanceled, c.canceled)
	emit(obsv.MetricSvcCacheHits, c.cacheHits)
	emit(obsv.MetricSvcDedupHits, c.dedupHits)
	emit(obsv.MetricSvcRejectedQuota, c.rejectedQuota)
	emit(obsv.MetricSvcRejectedQueue, c.rejectedQueue)
	for name, t := range c.tenants {
		emit("svc/tenant/"+name+"/admitted", t.admitted)
		emit("svc/tenant/"+name+"/rejected", t.rejected)
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
