package brisa

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// collector accumulates in-run measurements for every workload.
//
// Concurrency/determinism design, shared by three execution shapes — the
// sequential simulator (one goroutine), the sharded simulator (one
// goroutine per scheduler shard) and the live runtime (one goroutine per
// node): all hot-path accounting goes into per-node accumulators owned by
// that node's actor, so deliveries need no cross-node lock and every
// accumulator fills in a deterministic order. Shared state (publish
// timestamps, registration) sits behind an RWMutex that the delivery path
// only read-locks. Report folding iterates nodes in sorted id order, so
// float summation order — and with it the Report JSON — is bit-identical
// across runs and across simulator worker counts.
type collector struct {
	sc Scenario

	mu  sync.RWMutex
	ws  []*workloadState
	bws []*blobWorkloadState
	// hard collects per-node hard-repair recovery delays (ProbeRepairs),
	// merged in sorted node order by hardRepairDelays.
	hard    map[NodeID]*stats.Sample
	cancels []func()
}

// workloadState is the in-run state of one workload.
type workloadState struct {
	w      Workload
	source NodeID
	pubAt  map[uint32]time.Time
	pubs   int
	// accs holds one accumulator per instrumented node (the source's stays
	// empty: the paper measures receptions).
	accs map[NodeID]*nodeAcc
	// hist streams every measured delivery delay of this workload into a
	// fixed-size log-binned histogram. Its atomic bins commute, so shard
	// goroutines add to it without locks and the final counts are
	// worker-count-invariant; the fold rebuilds the Delays distribution
	// from it and calibrates the exact moments from the per-node
	// accumulators. This is what keeps a 100k-node run's delay accounting
	// at O(nodes) scalars instead of O(deliveries) buffered samples.
	hist *stats.LogHist
}

// nodeAcc is one node's delivery accounting for one workload. It is only
// ever touched from that node's actor callbacks, serially. Deliberately
// O(1): at 100k nodes these accumulators are the collector's footprint.
type nodeAcc struct {
	n           uint64  // measured deliveries
	sum         float64 // total delay, seconds
	min, max    float64 // exact delay extremes, seconds
	first, last time.Time
	dups        uint64
}

// record adds one measured delivery delay (in seconds).
func (acc *nodeAcc) record(d float64) {
	if acc.n == 0 || d < acc.min {
		acc.min = d
	}
	if acc.n == 0 || d > acc.max {
		acc.max = d
	}
	acc.n++
	acc.sum += d
}

// blobWorkloadState is the in-run state of one blob workload.
type blobWorkloadState struct {
	w      BlobWorkload
	source NodeID
	pubs   int
	bytes  int64
	// hashes holds the FNV-64a content hash of every published blob, keyed
	// by blob id. Receivers' reassembled bytes are verified against it at
	// fold time, so Reliability means byte-identical reconstruction, not
	// just "something completed".
	hashes map[uint32]uint64
	accs   map[NodeID]*blobAcc
}

// blobAcc is one node's blob accounting for one workload. Like nodeAcc it is
// only ever touched from that node's actor callbacks, serially; the fold
// reads it after the collector detaches.
type blobAcc struct {
	recs map[uint32]blobRec
}

// blobRec is one reconstructed blob on one node, measured at completion on
// the node's own clock so no cross-node state is needed at delivery time.
type blobRec struct {
	hash uint64
	lat  float64 // first chunk received → reconstruction, seconds
	mbps float64 // payload MB over lat (0 when lat is 0: single-event blobs)
}

func newCollector(sc Scenario) *collector {
	col := &collector{sc: sc, hard: make(map[NodeID]*stats.Sample)}
	for _, w := range sc.Workloads {
		col.ws = append(col.ws, &workloadState{
			w:     w,
			pubAt: make(map[uint32]time.Time),
			accs:  make(map[NodeID]*nodeAcc),
			hist:  stats.NewLogHist(),
		})
	}
	for _, w := range sc.BlobWorkloads {
		col.bws = append(col.bws, &blobWorkloadState{
			w:      w,
			hashes: make(map[uint32]uint64),
			accs:   make(map[NodeID]*blobAcc),
		})
	}
	return col
}

// setSource records a workload's resolved source node.
func (col *collector) setSource(wi int, id NodeID) {
	col.mu.Lock()
	col.ws[wi].source = id
	col.mu.Unlock()
}

// setBlobSource records a blob workload's resolved source node.
func (col *collector) setBlobSource(wi int, id NodeID) {
	col.mu.Lock()
	col.bws[wi].source = id
	col.mu.Unlock()
}

// blobPublished records one blob injection: its id, payload size and content
// hash. Unlike published it may run after remote deliveries — verification
// happens at fold time, which every publish strictly precedes.
func (col *collector) blobPublished(wi int, id uint32, size int, hash uint64) {
	col.mu.Lock()
	bs := col.bws[wi]
	bs.hashes[id] = hash
	bs.pubs++
	bs.bytes += int64(size)
	col.mu.Unlock()
}

// published records one injection. Call it before the Publish so a delivery
// racing ahead on another node still finds the timestamp.
func (col *collector) published(wi int, seq uint32, at time.Time) {
	col.mu.Lock()
	ws := col.ws[wi]
	ws.pubAt[seq] = at
	ws.pubs++
	col.mu.Unlock()
}

// delivered records one delivery into the node's accumulator.
func (col *collector) delivered(wi int, acc *nodeAcc, id NodeID, seq uint32, at time.Time) {
	col.mu.RLock()
	ws := col.ws[wi]
	src := ws.source
	var t0 time.Time
	measured := false
	if int(seq) > ws.w.Warmup {
		t0, measured = ws.pubAt[seq]
	}
	col.mu.RUnlock()
	if id == src {
		return
	}
	if acc.first.IsZero() {
		acc.first = at
	}
	acc.last = at
	if measured {
		d := at.Sub(t0).Seconds()
		acc.record(d)
		ws.hist.Add(d)
	}
}

// instrument attaches the collector to one peer: a delivery listener per
// workload (when the latency probe is on) and one event listener for
// duplicates and repair delays. It covers peers added mid-run by churn.
// Delivery timestamps come from the peer's own clock (virtual and
// shard-local on the simulator, wall on the live runtime).
func (col *collector) instrument(p *Peer) {
	id := p.ID()
	now := p.brisa.Now
	accs := make([]*nodeAcc, len(col.ws))
	baccs := make([]*blobAcc, len(col.bws))
	var hard *stats.Sample
	wantDups := col.sc.probed(ProbeDuplicates)
	wantRepairs := col.sc.probed(ProbeRepairs)
	col.mu.Lock()
	for wi := range col.ws {
		acc := &nodeAcc{}
		col.ws[wi].accs[id] = acc
		accs[wi] = acc
	}
	for wi := range col.bws {
		acc := &blobAcc{recs: make(map[uint32]blobRec)}
		col.bws[wi].accs[id] = acc
		baccs[wi] = acc
	}
	if wantRepairs {
		hard = &stats.Sample{}
		col.hard[id] = hard
	}
	col.mu.Unlock()
	// Blob completions are always recorded when blob workloads exist: the
	// content-hash verification behind Reliability needs them regardless of
	// probes, and blobs are few.
	for wi := range col.bws {
		acc := baccs[wi]
		cancel := p.brisa.SubscribeBlobFn(col.bws[wi].w.Stream, func(d core.BlobDelivery) {
			lat := d.At.Sub(d.FirstChunkAt).Seconds()
			rec := blobRec{hash: blobHash(d.Data), lat: lat}
			if lat > 0 {
				rec.mbps = float64(len(d.Data)) / (1 << 20) / lat
			}
			acc.recs[d.ID] = rec
		})
		col.addCancel(cancel)
	}
	if col.sc.probed(ProbeLatency) {
		for wi := range col.ws {
			wi, acc := wi, accs[wi]
			cancel := p.brisa.SubscribeFn(col.ws[wi].w.Stream, func(seq uint32, _ []byte) {
				col.delivered(wi, acc, id, seq, now())
			})
			col.addCancel(cancel)
		}
	}
	if !wantDups && !wantRepairs {
		return
	}
	cancel := p.brisa.SubscribeEvents(func(ev Event) {
		switch {
		case wantDups && ev.Type == EvDuplicate:
			for wi := range col.ws {
				if col.ws[wi].w.Stream != ev.Stream {
					continue
				}
				col.mu.RLock()
				src := col.ws[wi].source
				col.mu.RUnlock()
				if id != src {
					accs[wi].dups++
				}
			}
		case wantRepairs && ev.Type == EvRepaired && ev.Hard:
			hard.AddDuration(ev.Dur)
		}
	})
	col.addCancel(cancel)
}

// hardRepairDelays folds the per-node hard-repair samples in sorted node
// order.
func (col *collector) hardRepairDelays() *stats.Sample {
	col.mu.Lock()
	defer col.mu.Unlock()
	out := &stats.Sample{}
	for _, id := range sortedKeys(col.hard) {
		out.Merge(col.hard[id])
	}
	return out
}

func (col *collector) addCancel(fn func()) {
	col.mu.Lock()
	col.cancels = append(col.cancels, fn)
	col.mu.Unlock()
}

// detach unregisters every listener.
func (col *collector) detach() {
	col.mu.Lock()
	cancels := col.cancels
	col.cancels = nil
	col.mu.Unlock()
	for _, fn := range cancels {
		fn()
	}
}

// streamReport folds one workload's collected state plus end-of-run polls
// into its report. poll abstracts over the two runtimes: it reads a peer
// state snapshot for every surviving node.
type peerSnapshot struct {
	id           NodeID
	delivered    uint64
	orphan       bool
	parents      []NodeID
	depth        int
	depthOK      bool
	construction time.Duration
	constructOK  bool
}

func (col *collector) streamReport(wi int, survivors []peerSnapshot) *StreamReport {
	col.mu.Lock()
	defer col.mu.Unlock()
	ws := col.ws[wi]
	sr := &StreamReport{
		Stream:    ws.w.Stream,
		Source:    ws.source,
		Published: ws.pubs,
	}

	var complete, connected, counted int
	for _, snap := range survivors {
		if snap.id == ws.source {
			continue
		}
		counted++
		// A workload that published nothing is vacuously complete.
		if snap.delivered == uint64(ws.pubs) {
			complete++
		}
		if snap.delivered > 0 && !snap.orphan {
			connected++
		}
	}
	if counted == 0 {
		sr.Reliability, sr.Connected = 1, 1
	} else {
		sr.Reliability = float64(complete) / float64(counted)
		sr.Connected = float64(connected) / float64(counted)
	}

	if col.sc.probed(ProbeLatency) {
		all, nodeMean, spread := &stats.Sample{}, &stats.Sample{}, &stats.Sample{}
		// The delay distribution streams through the workload's log-binned
		// histogram (shard goroutines add to it lock-free; the bins
		// commute, so the counts are worker-count-invariant). The exact
		// moments — sum, min, max — fold from the O(1) per-node
		// accumulators in sorted node order: float summation order must not
		// depend on map iteration, so the Report JSON stays bit-identical
		// across runs and across simulator worker counts.
		var (
			n      uint64
			sum    float64
			lo, hi float64
		)
		for _, id := range sortedKeys(ws.accs) {
			acc := ws.accs[id]
			if acc.n > 0 {
				if n == 0 || acc.min < lo {
					lo = acc.min
				}
				if n == 0 || acc.max > hi {
					hi = acc.max
				}
				n += acc.n
				sum += acc.sum
				nodeMean.Add(acc.sum / float64(acc.n))
			}
			if !acc.first.IsZero() && acc.last.After(acc.first) {
				spread.AddDuration(acc.last.Sub(acc.first))
			}
		}
		ws.hist.FoldInto(all)
		if n > 0 {
			all.Calibrate(sum, lo, hi)
		}
		sr.Delays, sr.NodeDelays, sr.Spread = all, nodeMean, spread
	}

	if col.sc.probed(ProbeDuplicates) {
		d := &stats.Sample{}
		denom := float64(ws.pubs)
		if denom == 0 {
			denom = 1
		}
		for _, snap := range survivors {
			if snap.id == ws.source {
				continue
			}
			var dups uint64
			if acc := ws.accs[snap.id]; acc != nil {
				dups = acc.dups
			}
			d.Add(float64(dups) / denom)
		}
		sr.Duplicates = d
	}

	if col.sc.probed(ProbeStructure) {
		sr.Parents = make(map[NodeID][]NodeID)
		sr.Degrees = stats.NewIntHistogram()
		degrees := make(map[NodeID]int, len(survivors))
		for _, snap := range survivors {
			degrees[snap.id] += 0
			if snap.id == ws.source {
				continue
			}
			sr.Parents[snap.id] = snap.parents
			for _, par := range snap.parents {
				degrees[par]++
			}
		}
		for _, d := range degrees {
			sr.Degrees.Add(d)
		}
		sr.Depths = depthHistogram(ws.source, sr.Parents)
	}

	if col.sc.probed(ProbeConstruction) {
		c := &stats.Sample{}
		for _, snap := range survivors {
			if snap.constructOK {
				c.AddDuration(snap.construction)
			}
		}
		sr.Construction = c
	}
	return sr
}

// blobSnap is one surviving node's end-of-run blob counters for one stream.
type blobSnap struct {
	id    NodeID
	stats BlobStats
}

// blobStreamReport folds one blob workload's collected state plus
// end-of-run counter polls into its report. Folding runs in sorted node
// order and ascending blob-id order within a node, so float summation order
// — and with it the Report JSON — is bit-identical across runs and across
// simulator worker counts.
func (col *collector) blobStreamReport(wi int, srcStats BlobStats, survivors []blobSnap) *BlobStreamReport {
	col.mu.Lock()
	defer col.mu.Unlock()
	bs := col.bws[wi]
	br := &BlobStreamReport{
		Stream:    bs.w.Stream,
		Source:    bs.source,
		Published: bs.pubs,
		BlobBytes: bs.bytes,
	}

	ids := make([]uint32, 0, len(bs.hashes))
	for id := range bs.hashes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	slices.SortFunc(survivors, func(a, b blobSnap) int {
		return int(int64(a.id) - int64(b.id))
	})

	lat, thr := &stats.Sample{}, &stats.Sample{}
	var complete, counted int
	var pulled, received uint64
	for _, snap := range survivors {
		if snap.id == bs.source {
			continue
		}
		counted++
		pulled += snap.stats.ChunksPulled
		received += snap.stats.ChunksReceived
		acc := bs.accs[snap.id]
		intact := true
		for _, id := range ids {
			var rec blobRec
			ok := false
			if acc != nil {
				rec, ok = acc.recs[id]
			}
			if !ok || rec.hash != bs.hashes[id] {
				intact = false
				continue
			}
			lat.Add(rec.lat)
			if rec.mbps > 0 {
				thr.Add(rec.mbps)
			}
		}
		// A workload that published nothing is vacuously complete.
		if intact {
			complete++
		}
	}
	if counted == 0 {
		br.Reliability = 1
	} else {
		br.Reliability = float64(complete) / float64(counted)
	}
	br.Latency, br.Throughput = lat, thr
	if bs.bytes > 0 {
		br.UploadOverheadPct = 100 * float64(srcStats.ChunkBytesSent) / float64(bs.bytes)
	}
	if received > 0 {
		br.PulledPct = 100 * float64(pulled) / float64(received)
	}
	return br
}

// blobPayload derives the content of a blob workload's idx-th blob. The
// pattern (splitmix64 keyed by stream and index) is a pure function, so both
// runtimes generate identical bytes without any global RNG and receivers'
// reassembled payloads verify against the source's content hash.
func blobPayload(stream StreamID, idx, size int) []byte {
	out := make([]byte, size)
	x := (uint64(stream)+1)*0x9e3779b97f4a7c15 ^ (uint64(idx)+1)*0xbf58476d1ce4e5b9
	for i := 0; i < size; i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		for j := 0; j < 8 && i+j < size; j++ {
			out[i+j] = byte(z >> (8 * j))
		}
	}
	return out
}

// blobHash is the FNV-64a content hash blob verification runs on.
func blobHash(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// usageDelta subtracts a baseline usage snapshot, element-wise.
func usageDelta(cur, base simnet.Usage) simnet.Usage {
	for p := range cur.UpBytes {
		for c := range cur.UpBytes[p] {
			cur.UpBytes[p][c] -= base.UpBytes[p][c]
			cur.DownBytes[p][c] -= base.DownBytes[p][c]
		}
	}
	return cur
}

// sortedKeys returns a map's NodeID keys ascending.
func sortedKeys[V any](m map[NodeID]V) []NodeID {
	out := make([]NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// depthHistogram derives the longest-path-from-source depth of every node
// (the paper's Figure 6 definition) from the captured parent links, via
// memoized DFS with cycle detection. Nodes on a residual cycle (possible
// only transiently) get no entry.
func depthHistogram(source NodeID, parents map[NodeID][]NodeID) *IntDist {
	const (
		unvisited = 0
		onStack   = 1
		done      = 2
	)
	depths := make(map[NodeID]int, len(parents))
	state := make(map[NodeID]int, len(parents))
	var depthOf func(id NodeID) (int, bool)
	depthOf = func(id NodeID) (int, bool) {
		if id == source {
			return 0, true
		}
		if d, ok := depths[id]; ok {
			return d, true
		}
		if state[id] == onStack || state[id] == done {
			return 0, false // cycle or previously found unrooted
		}
		state[id] = onStack
		best := -1
		for _, par := range parents[id] {
			if d, ok := depthOf(par); ok && d+1 > best {
				best = d + 1
			}
		}
		state[id] = done
		if best < 0 {
			return 0, false
		}
		depths[id] = best
		return best, true
	}
	h := stats.NewIntHistogram()
	h.Add(0) // the source
	// Sorted: a node reached through one still on the stack is marked done
	// without a depth, so under parent cycles the visit order decides which
	// nodes get one.
	for _, id := range sortedKeys(parents) {
		if d, ok := depthOf(id); ok {
			h.Add(d)
		}
	}
	return h
}

// sumMetrics totals the BRISA counters over every peer ever created,
// crashed ones included — churn rates count events, not survivors.
func (c *Cluster) sumMetrics() Metrics {
	var m Metrics
	for _, p := range c.Peers() {
		pm := p.Metrics()
		m.ParentsLost += pm.ParentsLost
		m.Orphans += pm.Orphans
		m.SoftRepairs += pm.SoftRepairs
		m.HardRepairs += pm.HardRepairs
	}
	return m
}

// snapshot reads one peer's end-of-run state.
func snapshotPeer(p *Peer, stream StreamID) peerSnapshot {
	snap := peerSnapshot{
		id:        p.ID(),
		delivered: p.DeliveredCount(stream),
		orphan:    p.IsOrphan(stream),
		parents:   p.Parents(stream),
	}
	snap.depth, snap.depthOK = p.Depth(stream)
	snap.construction, snap.constructOK = p.ConstructionTime(stream)
	return snap
}

// Run executes the scenario on the simulator: against rt.Cluster when set,
// else on a fresh cluster built from the scenario's topology and seed.
// Prefer the package-level Run, which applies defaults and stamps run
// metadata; this method re-normalizes defensively (withDefaults is
// idempotent) for direct interface calls, and runScenario is the single
// validation point.
func (rt SimRuntime) Run(ctx context.Context, sc Scenario) (*Report, error) {
	sc = sc.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	c := rt.Cluster
	if c == nil {
		cfg := sc.Topology.clusterConfig(sc.Seed)
		cfg.Faults = sc.Faults
		cfg.Workers = rt.Workers
		var err error
		if c, err = NewCluster(cfg); err != nil {
			return nil, err
		}
		defer c.Close()
	}
	return c.runScenario(ctx, sc)
}

// simChunk is the virtual-time slice runScenario advances per context
// check: cancellation is observed at this granularity.
const simChunk = time.Second

// runScenario executes a scenario on this cluster: bootstrap (unless
// already done), workload injection, optional churn, and probe collection
// into a Report. The scenario's Topology is only consulted when the cluster
// is built from it; running against a hand-built cluster uses the cluster
// as-is (a zero Topology is filled in from it), so workload source indices
// must fit its size. Delivery and traffic accounting is relative to the
// state at entry, so a cluster — and even a stream — can be reused across
// runs.
func (c *Cluster) runScenario(ctx context.Context, sc Scenario) (*Report, error) {
	if sc.Topology.Nodes == 0 {
		// Hand-built cluster, Topology left empty: adopt the cluster's
		// dimensions so validation reflects what actually runs.
		sc.Topology.Nodes = len(c.order)
		sc.Topology.Peer = c.cfg.Peer
		if c.cfg.PeerConfigAt != nil || c.cfg.PeerConfig != nil {
			// Mirror the cluster's per-peer derivation by creation index so
			// validation skips the (possibly unused) shared Peer config.
			sc.Topology.PeerConfig = func(i int) Config {
				if i < len(c.order) {
					return c.peerConfig(i, c.order[i])
				}
				return c.cfg.Peer
			}
		}
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.Faults != nil && c.cfg.Faults == nil {
		// Fault injection lives in the simulator's send/receive paths and is
		// wired at construction; a pre-built cluster cannot adopt it late.
		return nil, fmt.Errorf("brisa: Scenario %q has Faults, but the cluster was built without them: set ClusterConfig.Faults (or let the runtime build the cluster)", sc.Name)
	}
	for i, w := range sc.Workloads {
		if w.Source >= len(c.order) {
			return nil, fmt.Errorf("brisa: Scenario %q: workload %d sources from node index %d, cluster has %d nodes",
				sc.Name, i, w.Source, len(c.order))
		}
	}
	for i, w := range sc.BlobWorkloads {
		if w.Source >= len(c.order) {
			return nil, fmt.Errorf("brisa: Scenario %q: blob workload %d sources from node index %d, cluster has %d nodes",
				sc.Name, i, w.Source, len(c.order))
		}
	}

	wallStart := time.Now()

	// Baselines: everything already delivered or sent before this run is
	// subtracted, so reports stay correct when a cluster (or stream) is
	// reused. Peers that churn in mid-run start from zero.
	deliveredBase := make([]map[NodeID]uint64, len(sc.Workloads))
	for wi, w := range sc.Workloads {
		m := make(map[NodeID]uint64)
		for _, p := range c.Peers() {
			if n := p.DeliveredCount(w.Stream); n > 0 {
				m[p.ID()] = n
			}
		}
		deliveredBase[wi] = m
	}
	var usageBase map[NodeID]simnet.Usage
	if sc.probed(ProbeTraffic) {
		usageBase = make(map[NodeID]simnet.Usage, len(c.order))
		for _, id := range c.order {
			usageBase[id] = c.Net.Usage(id)
		}
	}
	var faultsBase FaultStats
	if c.cfg.Faults != nil {
		faultsBase = c.Net.FaultStats()
	}

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("brisa: Scenario %q aborted: %w", sc.Name, err)
	}
	if !c.bootstrapped {
		c.Bootstrap()
	}
	peers := c.Peers()

	col := newCollector(sc)
	for wi, w := range sc.Workloads {
		col.setSource(wi, peers[w.Source].ID())
	}
	for wi, w := range sc.BlobWorkloads {
		col.setBlobSource(wi, peers[w.Source].ID())
	}
	for _, p := range peers {
		col.instrument(p)
	}
	c.onAddPeer = col.instrument
	defer func() {
		c.onAddPeer = nil
		col.detach()
	}()

	t0 := c.Net.Now()
	c.Net.SetPhase(simnet.PhaseDissemination)

	// Workload injection.
	for wi, w := range sc.Workloads {
		wi, w := wi, w
		src := peers[w.Source]
		for i := 0; i < w.Messages; i++ {
			i := i
			c.Net.After(w.Start+time.Duration(i)*w.Interval, func() {
				at := c.Net.Now()
				seq := src.Publish(w.Stream, make([]byte, w.Payload))
				// Recording after the call is race-free here: remote
				// deliveries only run in later simulator events.
				col.published(wi, seq, at)
			})
		}
	}
	for wi, w := range sc.BlobWorkloads {
		wi, w := wi, w
		src := peers[w.Source]
		prm := w.params()
		for i := 0; i < w.Blobs; i++ {
			i := i
			c.Net.After(w.Start+time.Duration(i)*w.Interval, func() {
				data := blobPayload(w.Stream, i, w.Size)
				id, err := src.brisa.PublishBlob(w.Stream, data, prm)
				if err != nil {
					// Geometry was caught by Validate; a failure here is a bug.
					panic("brisa: blob publish: " + err.Error())
				}
				col.blobPublished(wi, id, len(data), blobHash(data))
			})
		}
	}

	// Churn, with metric snapshots bracketing the script's window.
	var churnWindow time.Duration
	var before, after Metrics
	if sc.Churn != nil {
		churnWindow, _ = sc.Churn.window()
		protect := make([]NodeID, 0, len(sc.Workloads)+len(sc.BlobWorkloads))
		for _, w := range sc.Workloads {
			protect = append(protect, peers[w.Source].ID())
		}
		for _, w := range sc.BlobWorkloads {
			protect = append(protect, peers[w.Source].ID())
		}
		script := sc.Churn.Script
		c.Net.After(sc.Churn.Start, func() {
			before = c.sumMetrics()
			// Parse errors were caught by Validate; a failure here is a bug.
			if err := c.RunChurnScript(script, protect...); err != nil {
				panic("brisa: churn script: " + err.Error())
			}
		})
		c.Net.After(sc.Churn.Start+churnWindow, func() {
			after = c.sumMetrics()
		})
	}

	// Advance virtual time in slices so a cancelled context aborts the run
	// (and with it every scheduled workload publish and churn directive)
	// within one chunk.
	total := sc.end() + sc.Drain
	for ran := time.Duration(0); ran < total; {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("brisa: Scenario %q aborted: %w", sc.Name, err)
		}
		step := simChunk
		if rem := total - ran; rem < step {
			step = rem
		}
		c.Net.RunFor(step)
		ran += step
	}

	// Collection.
	alive := c.AlivePeers()
	rep := &Report{
		Name:    sc.Name,
		Runtime: "sim",
		Nodes:   len(peers),
		Alive:   len(alive),
		Elapsed: c.Net.Now().Sub(t0),
	}
	for wi, w := range sc.Workloads {
		survivors := make([]peerSnapshot, 0, len(alive))
		for _, p := range alive {
			snap := snapshotPeer(p, w.Stream)
			snap.delivered -= deliveredBase[wi][p.ID()]
			survivors = append(survivors, snap)
		}
		rep.Streams = append(rep.Streams, col.streamReport(wi, survivors))
	}
	for wi, w := range sc.BlobWorkloads {
		snaps := make([]blobSnap, 0, len(alive))
		for _, p := range alive {
			snaps = append(snaps, blobSnap{id: p.ID(), stats: p.BlobStats(w.Stream)})
		}
		rep.Blobs = append(rep.Blobs, col.blobStreamReport(wi, peers[w.Source].BlobStats(w.Stream), snaps))
	}

	if sc.probed(ProbeTraffic) {
		sources := make(map[NodeID]bool, len(sc.Workloads)+len(sc.BlobWorkloads))
		for _, w := range sc.Workloads {
			sources[peers[w.Source].ID()] = true
		}
		for _, w := range sc.BlobWorkloads {
			sources[peers[w.Source].ID()] = true
		}
		tr := &TrafficReport{
			DownRate: &stats.Sample{},
			UpRate:   &stats.Sample{},
			Elapsed:  rep.Elapsed,
		}
		elapsed := rep.Elapsed.Seconds()
		var stab, diss uint64
		counted := 0
		for _, p := range alive {
			if sources[p.ID()] {
				continue
			}
			counted++
			u := usageDelta(c.Net.Usage(p.ID()), usageBase[p.ID()])
			stab += u.UpBytes[simnet.PhaseStabilization][0] + u.UpBytes[simnet.PhaseStabilization][1]
			diss += u.UpBytes[simnet.PhaseDissemination][0] + u.UpBytes[simnet.PhaseDissemination][1]
			down := u.DownBytes[simnet.PhaseDissemination][0] + u.DownBytes[simnet.PhaseDissemination][1]
			up := u.UpBytes[simnet.PhaseDissemination][0] + u.UpBytes[simnet.PhaseDissemination][1]
			if elapsed > 0 {
				tr.DownRate.Add(float64(down) / 1024 / elapsed)
				tr.UpRate.Add(float64(up) / 1024 / elapsed)
			}
		}
		if counted > 0 {
			tr.StabMB = float64(stab) / float64(counted) / (1 << 20)
			tr.DissMB = float64(diss) / float64(counted) / (1 << 20)
		}
		rep.Traffic = tr
	}

	if sc.Churn != nil && sc.probed(ProbeRepairs) {
		minutes := churnWindow.Minutes()
		if minutes <= 0 {
			minutes = rep.Elapsed.Minutes()
		}
		cr := &ChurnReport{Window: churnWindow, HardDelays: col.hardRepairDelays()}
		lost := float64(after.ParentsLost - before.ParentsLost)
		orphans := float64(after.Orphans - before.Orphans)
		soft := float64(after.SoftRepairs - before.SoftRepairs)
		hard := float64(after.HardRepairs - before.HardRepairs)
		if minutes > 0 {
			cr.ParentsLostPerMin = lost / minutes
			cr.OrphansPerMin = orphans / minutes
		}
		if soft+hard > 0 {
			cr.SoftPct = 100 * soft / (soft + hard)
			cr.HardPct = 100 * hard / (soft + hard)
		}
		rep.Churn = cr
	}

	if f := c.cfg.Faults; f != nil {
		fr := &FaultsReport{
			Loss:       f.Loss,
			Duplicate:  f.Duplicate,
			Reorder:    f.Reorder,
			Partitions: len(f.Partitions),
			Injected:   c.Net.FaultStats().Delta(faultsBase),
		}
		if f.Buffer != nil {
			fr.BufferCapacity = f.Buffer.Capacity
			fr.BufferPolicy = f.Buffer.Policy.String()
		}
		rep.Faults = fr
	}

	rep.Wall = time.Since(wallStart)
	return rep, nil
}
