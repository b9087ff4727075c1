package brisa

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// placement is where a wall-clock run's peers live and how the executor
// reaches them. The executor owns the scenario life cycle — bootstrap,
// readiness, churn, workload pacing, drain and the Report fold — exactly
// once; a placement only starts, drives and reads peers. inProcess
// (LiveRuntime) binds them in this process; agentPlacement (DistRuntime)
// spawns them as worker processes behind brisa-agent daemons.
type placement interface {
	// stabilize bounds the readiness poll when the topology sets no
	// StabilizeTime.
	stabilize() time.Duration
	// check reports why a valid peer config cannot run on this placement.
	check(cfg Config) error
	// spawn starts the peer at join index idx, filling in the member's id,
	// address and handle.
	spawn(ctx context.Context, idx int, cfg Config) (*member, error)
	// join bootstraps m through contacts. With wait it returns once the
	// overlay accepted m; without, m may still be bootstrapping.
	join(ctx context.Context, m *member, contacts []string, wait bool) error
	// neighbors is m's active-view size (0 when unreachable).
	neighbors(ctx context.Context, m *member) int
	// publish injects the i-th message (blob) of workload wi from m.
	publish(ctx context.Context, m *member, wi, i int, blob bool) error
	// kill crashes m.
	kill(ctx context.Context, m *member)
	// delivered counts m's deliveries of workload wi so far (drain polls).
	delivered(m *member, wi int, blob bool) int
	// barrier makes everything ms measured so far readable through
	// metrics, traffic, streamSnap and blobStats.
	barrier(ctx context.Context, ms []*member) error
	metrics(m *member) Metrics
	traffic(m *member) WireTraffic
	// gather completes the collector's accumulators for the fold; no
	// delivery is recorded after it.
	gather(survivors []*member)
	streamSnap(m *member, wi int) peerSnapshot
	blobStats(m *member, wi int) BlobStats
	// close stops every peer the placement started.
	close(all []*member)
}

// statePoll paces the executor's state polls (readiness, drain).
const statePoll = 20 * time.Millisecond

// member is one peer slot. Slots keep their join index after death, like
// the simulator's crashed peers.
type member struct {
	index int
	id    NodeID
	addr  string
	alive bool
	// base is the peer's wire traffic at dissemination start (zero for
	// churn joiners, which start mid-run).
	base WireTraffic

	node   *Node      // inProcess
	agent  *agentConn // agentPlacement
	worker int        // the agent's handle on the worker process
}

// job is one workload, message stream or blob, as the executor paces it.
type job struct {
	wi     int
	blob   bool
	n      int // messages or blobs
	source int
	start  time.Duration
	every  time.Duration
	// cut is the member count at the first publish: members below it are
	// the ones the drain waits for. Guarded by executor.mu.
	cut int
}

// executor runs one scenario on a placement: creation-ordered members,
// their liveness, and the churn plumbing. Spawns are serialized (spawn
// phase, then the single churn goroutine), but kills, polls and the fold
// race them from other goroutines, so membership state is guarded.
type executor struct {
	sc   Scenario
	ctx  context.Context
	pl   placement
	col  *collector
	jobs []*job

	mu      sync.Mutex
	rng     *rand.Rand
	members []*member
	protect map[NodeID]bool
	firstEr error
	joins   sync.WaitGroup // in-flight churn-join bootstraps
}

// execute runs sc on the peers that open's placement starts and folds the
// run into a Report labelled with the runtime's name. open receives the
// normalized scenario and the run's collector.
func execute(ctx context.Context, name string, sc Scenario, open func(Scenario, *collector) (placement, error)) (*Report, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	wallStart := time.Now()
	col := newCollector(sc)
	pl, err := open(sc, col)
	var rep *Report
	if err == nil {
		e := newExecutor(ctx, sc, pl, col)
		rep, err = e.run()
		e.shutdown()
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("brisa: %s %q aborted: %w", name, sc.Name, cerr)
		}
		return nil, fmt.Errorf("brisa: %s %q: %w", name, sc.Name, err)
	}
	rep.Runtime = name
	rep.Wall = time.Since(wallStart)
	return rep, nil
}

func newExecutor(ctx context.Context, sc Scenario, pl placement, col *collector) *executor {
	e := &executor{
		sc:      sc,
		ctx:     ctx,
		pl:      pl,
		col:     col,
		rng:     rand.New(rand.NewSource(sc.Seed)),
		protect: make(map[NodeID]bool),
	}
	for wi, w := range sc.Workloads {
		e.jobs = append(e.jobs, &job{wi: wi, n: w.Messages, source: w.Source, start: w.Start, every: w.Interval})
	}
	for wi, w := range sc.BlobWorkloads {
		e.jobs = append(e.jobs, &job{wi: wi, blob: true, n: w.Blobs, source: w.Source, start: w.Start, every: w.Interval})
	}
	return e
}

// run executes the life cycle: spawn one peer per topology slot, bootstrap
// with a readiness poll, replay the churn script and pace the workloads in
// wall time, drain, and fold the survivors — in node-id order — into a
// Report of the same shape the simulator produces.
func (e *executor) run() (*Report, error) {
	sc, pl, ctx := e.sc, e.pl, e.ctx
	// Each initial config is derived exactly once, as on the simulator, and
	// all are checked before any peer starts.
	n := sc.Topology.Nodes
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = sc.Topology.configFor(i)
		if err := e.check(cfgs[i]); err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
	}
	for i, cfg := range cfgs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, err := e.spawn(i, cfg); err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
	}
	initial := e.aliveMembers()

	// Bootstrap: every node joins through the first node plus its
	// predecessor — two contacts, exercising the multi-contact retry path.
	// A join returns once the overlay accepted the node, so no fixed
	// inter-join sleep is needed.
	for i := 1; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		contacts := []string{initial[0].addr}
		if i > 1 {
			contacts = append(contacts, initial[i-1].addr)
		}
		if err := pl.join(ctx, initial[i], contacts, true); err != nil {
			return nil, fmt.Errorf("node %d join: %w", i, err)
		}
	}
	if n > 1 {
		settle := sc.Topology.StabilizeTime
		if settle == 0 {
			settle = pl.stabilize()
		}
		if err := e.awaitReady(settle); err != nil {
			return nil, err
		}
	}
	for _, j := range e.jobs {
		src := initial[j.source].id
		if j.blob {
			e.col.setBlobSource(j.wi, src)
		} else {
			e.col.setSource(j.wi, src)
		}
		e.protect[src] = true
	}

	t0 := time.Now()
	// Traffic baseline: bytes before dissemination start are the
	// stabilization phase.
	if sc.probed(ProbeTraffic) {
		alive := e.aliveMembers()
		if err := pl.barrier(ctx, alive); err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
		for _, m := range alive {
			m.base = pl.traffic(m)
		}
	}

	// Churn: replay the script's directives in wall time on a dedicated
	// goroutine, bracketed by metric snapshots for ProbeRepairs.
	var churnDone chan struct{}
	var before, after map[NodeID]Metrics
	if sc.Churn != nil {
		// Parse errors were caught by Validate; a failure here is a bug.
		parsed, err := trace.Parse(sc.Churn.Script)
		if err != nil {
			panic("brisa: churn script: " + err.Error())
		}
		sched := &churnSchedule{}
		parsed.Replay(sched, e)
		sort.SliceStable(sched.events, func(i, j int) bool {
			return sched.events[i].at < sched.events[j].at
		})
		window, _ := sc.Churn.window()
		anchor := t0.Add(sc.Churn.Start)
		churnDone = make(chan struct{})
		go func() {
			defer close(churnDone)
			if !sleepUntil(ctx, anchor) {
				return
			}
			before = e.metricsSnapshot()
			for _, ev := range sched.events {
				if !sleepUntil(ctx, anchor.Add(ev.at)) {
					return
				}
				ev.fn()
			}
			if !sleepUntil(ctx, anchor.Add(window)) {
				return
			}
			after = e.metricsSnapshot()
		}()
	}

	var wg sync.WaitGroup
	for _, j := range e.jobs {
		wg.Add(1)
		go e.pace(&wg, j, initial[j.source])
	}
	wg.Wait()
	if churnDone != nil {
		<-churnDone
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := e.err(); err != nil {
		return nil, err
	}

	// Drain: poll until every counted member delivered every workload in
	// full, bounded by the scenario's drain budget.
	deadline := time.Now().Add(sc.Drain)
	for time.Now().Before(deadline) && ctx.Err() == nil && !e.complete() {
		time.Sleep(statePoll)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	elapsed := time.Since(t0)

	// Fold, in node-id order so float summation order is stable for a given
	// measurement set.
	survivors := e.aliveMembers()
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].id < survivors[j].id })
	if err := pl.barrier(ctx, survivors); err != nil {
		return nil, fmt.Errorf("final flush: %w", err)
	}
	pl.gather(survivors)
	rep := &Report{Name: sc.Name, Nodes: n, Alive: len(survivors), Elapsed: elapsed}
	for wi := range sc.Workloads {
		snaps := make([]peerSnapshot, len(survivors))
		for i, m := range survivors {
			snaps[i] = pl.streamSnap(m, wi)
		}
		rep.Streams = append(rep.Streams, e.col.streamReport(wi, snaps))
	}
	for wi, w := range sc.BlobWorkloads {
		snaps := make([]blobSnap, len(survivors))
		for i, m := range survivors {
			snaps[i] = blobSnap{id: m.id, stats: pl.blobStats(m, wi)}
		}
		src := pl.blobStats(initial[w.Source], wi)
		rep.Blobs = append(rep.Blobs, e.col.blobStreamReport(wi, src, snaps))
	}
	if sc.probed(ProbeTraffic) {
		rep.Traffic = e.trafficReport(survivors, elapsed)
	}
	if sc.Churn != nil && sc.probed(ProbeRepairs) {
		rep.Churn = e.churnReport(elapsed, before, after)
	}
	return rep, nil
}

// pace injects one workload from src, j.n publishes j.every apart from
// j.start, in wall time.
func (e *executor) pace(wg *sync.WaitGroup, j *job, src *member) {
	defer wg.Done()
	if !sleepFor(e.ctx, j.start) {
		return
	}
	e.mu.Lock()
	j.cut = len(e.members)
	e.mu.Unlock()
	for i := 0; i < j.n; i++ {
		if err := e.pl.publish(e.ctx, src, j.wi, i, j.blob); err != nil {
			kind := "workload"
			if j.blob {
				kind = "blob workload"
			}
			e.fail(fmt.Errorf("%s %d publish %d: %w", kind, j.wi, i+1, err))
			return
		}
		if i < j.n-1 && !sleepFor(e.ctx, j.every) {
			return
		}
	}
}

// complete reports whether every alive member spawned before a workload's
// first publish delivered that workload in full — the drain's early exit.
// Later joiners are not waited for: they missed the sequences published
// before they existed and can never catch up. A workload that starts after
// the churn window closes counts its joiners, which then hold it in full.
func (e *executor) complete() bool {
	e.mu.Lock()
	cuts := make([]int, len(e.jobs))
	for k, j := range e.jobs {
		cuts[k] = j.cut
	}
	e.mu.Unlock()
	members := e.aliveMembers()
	for k, j := range e.jobs {
		for _, m := range members {
			if m.index < cuts[k] && e.pl.delivered(m, j.wi, j.blob) < j.n {
				return false
			}
		}
	}
	return true
}

func (e *executor) fail(err error) {
	e.mu.Lock()
	if e.firstEr == nil {
		e.firstEr = err
	}
	e.mu.Unlock()
}

func (e *executor) err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.firstEr
}

// check validates a derived peer config for this placement.
func (e *executor) check(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	return e.pl.check(cfg)
}

// nextIndex returns the join index the next spawn will occupy. Spawns are
// serialized, so the index stays valid until that spawn.
func (e *executor) nextIndex() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.members)
}

// spawn starts one peer at join index idx and adds it to the members.
func (e *executor) spawn(idx int, cfg Config) (*member, error) {
	m, err := e.pl.spawn(e.ctx, idx, cfg)
	if err != nil {
		return nil, err
	}
	m.index, m.alive = idx, true
	e.mu.Lock()
	e.members = append(e.members, m)
	e.mu.Unlock()
	return m, nil
}

// aliveMembers snapshots the currently alive members in creation order.
func (e *executor) aliveMembers() []*member {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*member, 0, len(e.members))
	for _, m := range e.members {
		if m.alive {
			out = append(out, m)
		}
	}
	return out
}

// awaitReady polls until every alive member holds at least one active
// neighbor — the overlay accepted everyone — bounded by the given budget.
func (e *executor) awaitReady(bound time.Duration) error {
	deadline := time.Now().Add(bound)
	for {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		ready := true
		for _, m := range e.aliveMembers() {
			if e.pl.neighbors(e.ctx, m) == 0 {
				ready = false
				break
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("overlay not connected within %v", bound)
		}
		time.Sleep(statePoll)
	}
}

// metricsSnapshot reads every alive member's protocol counters behind a
// barrier — the churn brackets. Unlike the simulator, counters of peers
// that die afterwards are lost with them, the same data loss a real
// deployment has.
func (e *executor) metricsSnapshot() map[NodeID]Metrics {
	alive := e.aliveMembers()
	if err := e.pl.barrier(e.ctx, alive); err != nil {
		e.fail(fmt.Errorf("churn bracket: %w", err))
		return nil
	}
	out := make(map[NodeID]Metrics, len(alive))
	for _, m := range alive {
		out[m.id] = e.pl.metrics(m)
	}
	return out
}

// shutdown stops every peer ever started and waits for in-flight churn
// joins to observe it.
func (e *executor) shutdown() {
	e.mu.Lock()
	all := append([]*member(nil), e.members...)
	e.mu.Unlock()
	e.pl.close(all)
	e.joins.Wait()
}

// trafficReport folds the wire-counter deltas into the simulator-shaped
// TrafficReport: per-node rates over the dissemination window, averages
// split into stabilization (before dissemination start) and dissemination
// phases, workload sources excluded.
func (e *executor) trafficReport(survivors []*member, elapsed time.Duration) *TrafficReport {
	tr := &TrafficReport{
		DownRate: &stats.Sample{},
		UpRate:   &stats.Sample{},
		Elapsed:  elapsed,
	}
	secs := elapsed.Seconds()
	var stab, diss uint64
	counted := 0
	for _, m := range survivors {
		if e.protect[m.id] {
			continue // workload sources, as in the simulator's fold
		}
		counted++
		delta := e.pl.traffic(m).Sub(m.base)
		stab += m.base.BytesOut
		diss += delta.BytesOut
		if secs > 0 {
			tr.DownRate.Add(float64(delta.BytesIn) / 1024 / secs)
			tr.UpRate.Add(float64(delta.BytesOut) / 1024 / secs)
		}
	}
	if counted > 0 {
		tr.StabMB = float64(stab) / float64(counted) / (1 << 20)
		tr.DissMB = float64(diss) / float64(counted) / (1 << 20)
	}
	return tr
}

// churnReport folds the bracketing metric snapshots into the
// simulator-shaped ChurnReport. Deltas are summed per node in sorted id
// order, so peers that churned in mid-window count from zero and dead ones
// drop out.
func (e *executor) churnReport(elapsed time.Duration, before, after map[NodeID]Metrics) *ChurnReport {
	window, _ := e.sc.Churn.window()
	minutes := window.Minutes()
	if minutes <= 0 {
		minutes = elapsed.Minutes()
	}
	cr := &ChurnReport{Window: window, HardDelays: e.col.hardRepairDelays()}
	var lost, orphans, soft, hardN float64
	for _, id := range sortedKeys(after) {
		a, b := after[id], before[id] // b is zero for peers spawned after the bracket opened
		lost += float64(a.ParentsLost - b.ParentsLost)
		orphans += float64(a.Orphans - b.Orphans)
		soft += float64(a.SoftRepairs - b.SoftRepairs)
		hardN += float64(a.HardRepairs - b.HardRepairs)
	}
	if minutes > 0 {
		cr.ParentsLostPerMin = lost / minutes
		cr.OrphansPerMin = orphans / minutes
	}
	if soft+hardN > 0 {
		cr.SoftPct = 100 * soft / (soft + hardN)
		cr.HardPct = 100 * hardN / (soft + hardN)
	}
	return cr
}

// ---------------------------------------------------------------- churn

// churnSchedule collects the trace replayer's directives so the executor
// can run them, sorted, on one goroutine in wall time.
type churnSchedule struct {
	events []churnEvent
}

type churnEvent struct {
	at time.Duration
	fn func()
}

// At implements trace.Scheduler.
func (s *churnSchedule) At(offset time.Duration, fn func()) {
	s.events = append(s.events, churnEvent{at: offset, fn: fn})
}

// Fail implements trace.Target: crash one random unprotected alive peer —
// a real crash, mid-connection.
func (e *executor) Fail() {
	e.mu.Lock()
	var cands []*member
	for _, m := range e.members {
		if m.alive && !e.protect[m.id] {
			cands = append(cands, m)
		}
	}
	if len(cands) == 0 {
		e.mu.Unlock()
		return
	}
	victim := cands[e.rng.Intn(len(cands))]
	victim.alive = false
	e.mu.Unlock()
	e.pl.kill(e.ctx, victim)
}

// Join implements trace.Target: start a fresh peer at the next join index
// and bootstrap it through up to two random alive members. The bootstrap
// runs on its own goroutine so the churn schedule keeps pace.
func (e *executor) Join() {
	idx := e.nextIndex()
	cfg := e.sc.Topology.configFor(idx)
	if err := e.check(cfg); err != nil {
		// A replay-time invalid PeerConfig is a bug in the caller's
		// derivation, as on the simulator: silently skipping the join would
		// shrink the population the script specifies.
		panic("brisa: churn join: " + err.Error())
	}
	m, err := e.spawn(idx, cfg)
	if err != nil {
		// Starting a peer can fail under load or fd pressure; like a node
		// that dies during bootstrap, the join is lost.
		return
	}
	e.mu.Lock()
	var contacts []string
	for _, i := range e.rng.Perm(len(e.members)) {
		c := e.members[i]
		if c.alive && c != m {
			contacts = append(contacts, c.addr)
			if len(contacts) == 2 {
				break
			}
		}
	}
	e.mu.Unlock()
	if len(contacts) == 0 {
		return
	}
	e.joins.Add(1)
	go func() {
		defer e.joins.Done()
		// A failed join leaves the node isolated but alive, like a real
		// bootstrap loss; the report's Connected metric surfaces it.
		_ = e.pl.join(e.ctx, m, contacts, false)
	}()
}

// Size implements trace.Target.
func (e *executor) Size() int { return len(e.aliveMembers()) }

// Stop implements trace.Target.
func (e *executor) Stop() {}

// ---------------------------------------------------------------- sleeps

// sleepFor waits d, returning false early when the context is cancelled.
func sleepFor(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// sleepUntil waits for a wall-clock instant, returning false early when the
// context is cancelled.
func sleepUntil(ctx context.Context, at time.Time) bool {
	return sleepFor(ctx, time.Until(at))
}
