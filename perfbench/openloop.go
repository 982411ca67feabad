package main

import "time"

// openLoop is a fixed-rate send schedule: request i is due at
// start + i·interval whether or not earlier requests have been answered, so
// a stall in the system delays every later request instead of thinning the
// load (a closed loop would hide it).
type openLoop struct {
	start    time.Time
	interval time.Duration
}

func (o openLoop) due(i int) time.Time { return o.start.Add(time.Duration(i) * o.interval) }

// openLoopStats returns, per request, the latency measured from when it was
// due (what a caller on the schedule waits) and how late the generator sent
// it.
func openLoopStats(recs []batchRec) (latencyMs, lateMs []float64) {
	for _, r := range recs {
		latencyMs = append(latencyMs, ms(r.done.Sub(r.due)))
		lateMs = append(lateMs, ms(r.sent.Sub(r.due)))
	}
	return latencyMs, lateMs
}
