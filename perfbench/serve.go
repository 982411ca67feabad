package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	fairmove "repro"
	"repro/internal/policy"
	"repro/internal/serve"
)

// The serve-full-fairmove workload streams a recorded full-scale feed into
// the dispatch service over loopback HTTP from one sender goroutine on one
// keep-alive connection.
//
// Phase 1 replays open-loop at a fixed offered rate, about a third of the
// capacity phase 2 measures on the reference host: the headroom keeps a
// momentarily slower host from turning into queueing, which would swamp
// the decision latencies. It runs at least serveMeasuredSlots slots after
// one warm-up slot: at 100 samples the p90 still has ten beyond it. Phase 2
// then replays back to back (closed loop) for the capacity figure.
const (
	serveRate          = 70000.0 // offered events/s in phase 1
	serveBatch         = 256     // events per ingest body
	serveWarmSlots     = 1
	serveMeasuredSlots = 100
	serveCapacitySlots = 20
	// serveQueueCap holds three slots of events, so a slot being stepped
	// never backs ingest up into 429s; any that happen are honoured and
	// counted.
	serveQueueCap = 1 << 16
)

type serveBench struct {
	seed   int64 // episode seed: the recorded day and the served run
	sys    *fairmove.System
	pol    policy.Policy
	bodies [][]byte
	events []int // events per body
	// release[k] is the body whose events first carry the watermark past
	// the end of slot k: ingesting it releases slot k.
	release []int
	slots1  int // warm-up plus measured slots (phase 1)
	slots   int // all slots in the feed

	// Decision digests the service reported, one per pass.
	served []servedDigest
}

type servedDigest struct {
	slots  int
	digest string
}

// setupServe builds the full-scale city, saves the seeded FairMove policy
// and reloads it through .fmck exactly as `fairmove serve -load-policy`
// does, records the feed with serve.RecordFeed and pre-encodes it into
// NDJSON bodies.
func setupServe(seed int64, seconds int) (bench, error) {
	sys, err := fairmove.NewSystem(fullScaleConfig())
	if err != nil {
		return nil, err
	}
	if _, path, err := savePolicy(sys, "serve"); err != nil {
		return nil, err
	} else if err := sys.LoadPolicy(path); err != nil {
		return nil, err
	}
	pol, err := sys.PolicyFor(fairmove.FairMove)
	if err != nil {
		return nil, err
	}
	perSlot := float64(sys.Config().Fleet) // GPS fixes; requests add a few percent
	slots1 := max(serveWarmSlots+serveMeasuredSlots, int(float64(seconds)*serveRate/perSlot))
	b := &serveBench{seed: seed, sys: sys, pol: pol, slots1: slots1, slots: slots1 + serveCapacitySlots}

	feed := serve.RecordFeed(sys.City(), sys.EvalOptions(), seed, b.slots)
	slotLen := sys.Config().SlotMinutes
	for i := 0; i < len(feed); i += serveBatch {
		batch := feed[i:min(i+serveBatch, len(feed))]
		body, err := serve.EncodeBatch(batch)
		if err != nil {
			return nil, err
		}
		for _, ev := range batch {
			for len(b.release) < b.slots && ev.TimeMin >= (len(b.release)+1)*slotLen {
				b.release = append(b.release, len(b.bodies))
			}
		}
		b.bodies = append(b.bodies, body)
		b.events = append(b.events, len(batch))
	}
	if len(b.release) != b.slots {
		return nil, fmt.Errorf("serve: feed releases %d slots, want %d", len(b.release), b.slots)
	}
	return b, nil
}

// batchRec is one ingest POST: when it was due, sent and answered.
type batchRec struct{ due, sent, done time.Time }

func (b *serveBench) measure(_ int, ins *instruments) (*measurement, error) {
	m := &measurement{layers: map[string]float64{}}
	var tr *tracer
	root := -1
	env := b.sys.EvalEnv()
	var srvCfg serve.Config
	if ins != nil {
		tr, root = ins.tr, ins.root
		env.SetTelemetry(ins.reg)
		srvCfg.Telemetry = ins.reg
	}
	p := newProbe(tr, root)
	// Sized to the number of sends: the service loop never blocks on it.
	p.stepped = make(chan int, b.slots)
	srvCfg.Env = probeEnv{env, p}
	srvCfg.Policy = probePolicy{b.pol, p}
	srvCfg.Seed = b.seed
	srvCfg.QueueCap = serveQueueCap
	srv, err := serve.New(srvCfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	srv.Start()
	url := "http://" + ln.Addr().String()
	transport := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	client := &http.Client{Transport: transport}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	shutdown := func() error {
		err := srv.Drain(ctx)
		if e := hs.Shutdown(ctx); err == nil {
			err = e
		}
		transport.CloseIdleConnections()
		if e := <-serveErr; err == nil && !errors.Is(e, http.ErrServerClosed) {
			err = e
		}
		return err
	}
	waitSlots := func(n int) error {
		for {
			select {
			case k := <-p.stepped:
				if k >= n {
					return nil
				}
			case <-ctx.Done():
				return fmt.Errorf("serve: waiting for slot %d: %w", n, ctx.Err())
			}
		}
	}

	// Phase 1: open loop. Batch i is due at start + i·interval whatever
	// happened to earlier batches; latencies are measured from the due time.
	phase1 := b.release[b.slots1] // first body of phase 2
	recs := make([]batchRec, len(b.bodies))
	sched := openLoop{start: time.Now(), interval: time.Duration(math.Round(1e9 * serveBatch / serveRate))}
	p1span := tr.begin("serve.phase1", root, -1)
	queueMax, rejected := 0, 0
	post := func(i, parent int) error {
		recs[i].sent = time.Now()
		n, err := postBody(ctx, client, url, b.bodies[i])
		recs[i].done = time.Now()
		tr.add("ingest.post", recs[i].sent, recs[i].done, parent, -1)
		rejected += n
		queueMax = max(queueMax, srv.QueueDepth())
		return err
	}
	for i := 0; i < phase1; i++ {
		recs[i].due = sched.due(i)
		if d := time.Until(recs[i].due); d > 0 {
			time.Sleep(d)
		}
		if err := post(i, p1span); err != nil {
			shutdown()
			return nil, err
		}
	}
	if err := waitSlots(b.slots1); err != nil {
		shutdown()
		return nil, err
	}
	tr.end(p1span)

	// Phase 2: closed loop, back to back, until the service has stepped
	// every slot of the feed.
	p2span := tr.begin("serve.phase2", root, -1)
	p2start := time.Now()
	p2events := 0
	for i := phase1; i < len(b.bodies); i++ {
		recs[i].due = time.Now()
		if err := post(i, p2span); err != nil {
			shutdown()
			return nil, err
		}
		p2events += b.events[i]
	}
	if err := waitSlots(b.slots); err != nil {
		shutdown()
		return nil, err
	}
	tr.end(p2span)

	slots, _, digest, err := (&serve.Client{URL: url, HTTPClient: client}).Digest(ctx)
	if err != nil {
		shutdown()
		return nil, err
	}
	b.served = append(b.served, servedDigest{slots, digest})
	if err := shutdown(); err != nil {
		return nil, err
	}

	// The service loop has exited (Drain waited for it): its records are final.
	p.closeEpisode(env)
	p2end := p.slots[len(p.slots)-1].stepEnd
	m.probe = p
	period := time.Duration(float64(time.Second) * float64(sumInts(b.events[:phase1])) / float64(b.slots1) / serveRate)
	// The blocking path of a phase-1 slot is wait + decide + step; coverage
	// is the share of the measured latencies those three account for.
	var waits []float64
	var covered, total, busy time.Duration
	for k, s := range p.slots[:b.slots1] {
		due := recs[b.release[k]].due
		lat := s.stepEnd.Sub(due)
		if k < serveWarmSlots {
			m.layers["serve.first_slot_ms"] = ms(lat)
			continue
		}
		m.decisionsMs = append(m.decisionsMs, ms(lat))
		waits = append(waits, ms(s.actStart.Sub(due)))
		covered += s.actEnd.Sub(due) + s.stepEnd.Sub(s.stepStart)
		total += lat
		busy += s.stepEnd.Sub(s.actStart)
		if lat > period {
			m.failed++
		}
	}
	m.coverage = float64(covered) / float64(total)
	// The service loop's slot rate: measured slots per second of decide + step.
	// The closed-loop capacity of phase 2 is reported per layer instead: it
	// depends on how two cores are shared between ingest and the service loop, and
	// on the reference host it moves by a fifth with the load of other
	// tenants.
	m.slotsPerSec = float64(len(m.decisionsMs)) / busy.Seconds()
	m.attempted = b.slots
	ingest, late := openLoopStats(recs[:phase1])
	var rtt []float64
	for _, r := range recs[:phase1] {
		rtt = append(rtt, us(r.done.Sub(r.sent)))
	}
	m.allocOps = float64(sumInts(b.events))
	m.layers["serve.capacity_eps"] = float64(p2events) / p2end.Sub(p2start).Seconds()
	m.layers["serve.ingest_rtt_us"] = mean(rtt)
	if m.layers["serve.ingest_p50_ms"], err = quantile(ingest, 0.5); err != nil {
		return nil, err
	}
	if m.layers["serve.ingest_p99_ms"], err = quantile(ingest, 0.99); err != nil {
		return nil, err
	}
	if m.layers["serve.gen_late_p99_ms"], err = quantile(late, 0.99); err != nil {
		return nil, err
	}
	m.layers["serve.slot_wait_ms"] = mean(waits)
	m.layers["serve.queue_depth_max"] = float64(queueMax)
	m.layers["serve.rejected_batches"] = float64(rejected)
	return m, nil
}

// postBody posts one pre-encoded NDJSON body, honouring 429 backpressure by
// waiting the server's Retry-After hint and resending. It returns how many
// times the body was refused.
func postBody(ctx context.Context, c *http.Client, url string, body []byte) (int, error) {
	for refused := 0; ; refused++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/ingest", bytes.NewReader(body))
		if err != nil {
			return refused, err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		resp, err := c.Do(req)
		if err != nil {
			return refused, err
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			return refused, nil
		case http.StatusTooManyRequests:
			after := time.Second
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
				after = time.Duration(secs) * time.Second
			}
			select {
			case <-time.After(after):
			case <-ctx.Done():
				return refused, ctx.Err()
			}
		default:
			return refused, fmt.Errorf("serve: /ingest: %s: %s", resp.Status, bytes.TrimSpace(msg))
		}
	}
}

func sumInts(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// verify checks the serve ≡ batch contract: every pass's served decision
// digest equals the digest of a batch policy.Runner over the same slots.
func (b *serveBench) verify() error {
	r := policy.NewRunner(b.pol, b.sys.EvalEnv(), b.seed)
	var all []policy.Decision
	for s := 0; s < b.slots && !r.Done(); s++ {
		all = append(all, r.StepSlot()...)
	}
	want := serve.DigestDecisions(all)
	for i, got := range b.served {
		if got.slots != b.slots || got.digest != want {
			return fmt.Errorf("serve: pass %d served %d slots with digest %s; batch runner over %d slots gives %s",
				i, got.slots, got.digest, b.slots, want)
		}
	}
	return nil
}
