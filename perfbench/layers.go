package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/client"
	"repro/internal/journal"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/workload"
)

// span is one timed call into a layer. Parent is 0 for a job's root.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until they are written
// out at exit. A nil tracer records nothing, so untraced runs pay no
// more than a nil check per call.
type tracer struct {
	workload string
	origin   time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, origin: time.Now()} }

func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartNs: now, EndNs: -1})
	return id
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// span records an interval another process or layer stamped, such as
// a job's queue and run times from the service's job view.
func (t *tracer) span(name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Name: name, Workload: t.workload,
		StartNs: start.Sub(t.origin).Nanoseconds(), EndNs: end.Sub(t.origin).Nanoseconds()})
	t.mu.Unlock()
}

// selfTime sums, over the spans with the given names, each span's
// duration minus the part of it that its child spans cover, and counts
// the jobs (root spans named "job") the tracer recorded.
func (t *tracer) selfTime(names ...string) (self time.Duration, jobs int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		if s.Parent == 0 && s.Name == "job" {
			jobs++
		}
	}
	for _, s := range t.spans {
		if !want[s.Name] || s.EndNs < s.StartNs {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, reach), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return self, jobs
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probes are per-call layer costs the traced run measures by replaying
// layer calls on a sample of the workload's own groups.
type probes struct {
	predictNs, trainNs, trackNs, perRecordNs float64
	generateMs                               float64
	storeLoadUs, storeSaveUs                 float64
	snapLoadUs, snapSaveUs                   float64
	encodeUs, decodeUs, snapBytes            float64
	appendP50, appendP90, replayMs           float64
}

// probeItem is one benchmark of a sampled group.
type probeItem struct {
	key    groupKey
	bench  workload.Benchmark
	result sim.Result
}

// sample picks up to n distinct groups, preferring distinct
// configurations, and one benchmark of each, spread over the suites.
func sample(outcomes []outcome, n int) ([]probeItem, error) {
	var out []probeItem
	seenKey := map[groupKey]bool{}
	seenCfg := map[string]bool{}
	for pass := 0; pass < 2 && len(out) < n; pass++ {
		for _, o := range outcomes {
			if len(out) >= n || seenKey[o.key] || len(o.results) == 0 || (pass == 0 && seenCfg[o.key.Config]) {
				continue
			}
			benches, err := o.key.benches()
			if err != nil {
				return nil, err
			}
			seenKey[o.key], seenCfg[o.key.Config] = true, true
			b := (len(out) * 17) % len(benches)
			out = append(out, probeItem{key: o.key, bench: benches[b], result: o.results[b]})
		}
	}
	return out, nil
}

// probeRepeats is how often each store and snapshot call is timed per
// sampled group.
const probeRepeats = 9

// clockCost is the cost of one clock read, subtracted from per-call
// timings.
func clockCost() float64 {
	base := time.Now()
	const n = 200000
	var sum time.Duration
	for i := 0; i < n; i++ {
		a := time.Since(base)
		b := time.Since(base)
		sum += b - a
	}
	return float64(sum) / n
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// encodeState and decodeState mirror the engine's snapshot payload: the
// partial counters, then the predictor state.
func encodeState(r sim.Result, p snap.Snapshotter) []byte {
	enc := snap.NewEncoder()
	enc.Begin("simstate", 1)
	enc.U64(r.Instructions)
	enc.U64(r.Records)
	enc.U64(r.Conditionals)
	enc.U64(r.Mispredicted)
	p.Snapshot(enc)
	return enc.Bytes()
}

func decodeState(payload []byte, p snap.Snapshotter) error {
	dec := snap.NewDecoder(payload)
	dec.Expect("simstate", 1)
	dec.U64()
	dec.U64()
	dec.U64()
	dec.U64()
	if err := dec.Err(); err != nil {
		return err
	}
	return p.RestoreSnapshot(dec)
}

// runProbes replays the workload's layer calls on sampled groups:
// stream generation and predictor calls with per-call timing, store
// and snapshot calls (loading from the run's own store when it kept
// one), and journal open and append (on a copy of the run's journal
// when it has one).
func runProbes(e *env, st *runStats) (probes, error) {
	var pr probes
	items, err := sample(st.outcomes, e.sz.probeItems)
	if err != nil || len(items) == 0 {
		return pr, fmt.Errorf("probe: no sample items: %v", err)
	}
	dir, err := os.MkdirTemp(e.scratch, "probe-")
	if err != nil {
		return pr, err
	}
	defer os.RemoveAll(dir)
	scratch := sim.OpenStore(filepath.Join(dir, "cache"))
	var runStore *sim.Store
	if st.keptStore != "" {
		runStore = sim.OpenStore(st.keptStore)
	}
	cc := clockCost()
	var gen, load, save, snapLoad, snapSave, encode, decode, bytes []float64
	var predNs, trainNs, trackNs, nCond, nOther float64
	streams := make([][]trace.Record, len(items))
	root := e.tr.begin("probe", 0)
	defer e.tr.end(root)
	for i, it := range items {
		budget := min(it.key.Budget, e.sz.probeBudget)
		cache := workload.NewStreamCache(0, "")
		sp := e.tr.begin("workload.StreamCache.Get", root)
		t0 := time.Now()
		stream := cache.Get(it.bench, budget)
		gen = append(gen, float64(time.Since(t0))/1e6)
		e.tr.end(sp)
		if stream == nil {
			return pr, fmt.Errorf("probe: stream of %s not materialized", it.bench.Name)
		}
		streams[i] = stream.Records()
		p, err := predictor.New(it.key.Config)
		if err != nil {
			return pr, err
		}
		sp = e.tr.begin("predictor.replay", root)
		base := time.Now()
		for _, r := range stream.Records() {
			if r.Conditional() {
				a := time.Since(base)
				p.Predict(r.PC)
				b := time.Since(base)
				p.Train(r.PC, r.Target, r.Taken)
				c := time.Since(base)
				predNs += float64(b-a) - cc
				trainNs += float64(c-b) - cc
				nCond++
			} else {
				a := time.Since(base)
				p.TrackOther(r.PC, r.Target, r.Kind, r.Taken)
				b := time.Since(base)
				trackNs += float64(b-a) - cc
				nOther++
			}
		}
		e.tr.end(sp)

		b := it.bench
		key := sim.Key{Engine: sim.EngineVersion, Config: it.key.Config, Suite: it.key.Suite, Trace: b.Name,
			Budget: it.key.Budget, Seed: b.Seed, Shards: 1, Warmup: sim.DefaultShardWarmup}
		group := sim.SnapKey{Engine: sim.EngineVersion, Config: it.key.Config, Suite: it.key.Suite, Trace: b.Name, Seed: b.Seed}
		sp = e.tr.begin("sim.Store", root)
		for i := 0; i < probeRepeats; i++ {
			t0 := time.Now()
			if err := scratch.Save(key, it.result); err != nil {
				return pr, fmt.Errorf("probe: store save: %w", err)
			}
			save = append(save, us(time.Since(t0)))
			from := scratch
			if runStore != nil && it.key.Shards == 1 {
				from = runStore
			}
			t0 = time.Now()
			if _, ok := from.Load(key); !ok {
				return pr, fmt.Errorf("probe: store entry %s/%s not found", it.key, b.Name)
			}
			load = append(load, us(time.Since(t0)))
		}
		e.tr.end(sp)

		sp = e.tr.begin("snap", root)
		sn, ok := p.(snap.Snapshotter)
		if !ok {
			e.tr.end(sp)
			continue
		}
		var payload []byte
		for i := 0; i < probeRepeats; i++ {
			t0 := time.Now()
			payload = encodeState(it.result, sn)
			encode = append(encode, us(time.Since(t0)))
			k := group
			k.Pos = len(stream.Records()) + i
			t0 = time.Now()
			if err := scratch.SaveSnapshot(k, payload); err != nil {
				return pr, fmt.Errorf("probe: snapshot save: %w", err)
			}
			snapSave = append(snapSave, us(time.Since(t0)))
			from, fk := scratch, k
			if runStore != nil && st.hasSnap {
				if pos := runStore.SnapshotPositions(group); len(pos) > 0 {
					from, fk = runStore, group
					fk.Pos = pos[0]
				}
			}
			t0 = time.Now()
			data, ok := from.LoadSnapshot(fk)
			snapLoad = append(snapLoad, us(time.Since(t0)))
			if !ok {
				return pr, fmt.Errorf("probe: snapshot %+v not found", fk)
			}
			fresh := predictor.MustNew(it.key.Config).(snap.Snapshotter)
			t0 = time.Now()
			if err := decodeState(data, fresh); err != nil {
				return pr, fmt.Errorf("probe: snapshot decode: %w", err)
			}
			decode = append(decode, us(time.Since(t0)))
		}
		bytes = append(bytes, float64(len(payload)))
		e.tr.end(sp)
	}
	pr.generateMs = medianF(gen)
	pr.predictNs, pr.trainNs, pr.trackNs = predNs/max(nCond, 1), trainNs/max(nCond, 1), trackNs/max(nOther, 1)
	sp := e.tr.begin("predictor.replay", root)
	pr.perRecordNs = replayCost(items, streams)
	e.tr.end(sp)
	pr.storeLoadUs, pr.storeSaveUs = medianF(load), medianF(save)
	pr.snapLoadUs, pr.snapSaveUs = medianF(snapLoad), medianF(snapSave)
	pr.encodeUs, pr.decodeUs, pr.snapBytes = medianF(encode), medianF(decode), medianF(bytes)
	if err := probeJournal(e, st, &pr, items, dir, root); err != nil {
		return pr, err
	}
	return pr, nil
}

// replayCost is the predictor's cost per record for the host split:
// the sampled replays without per-call clocks, which slow the calls
// they time; the median of three passes.
func replayCost(items []probeItem, streams [][]trace.Record) float64 {
	var costs []float64
	for pass := 0; pass < 3; pass++ {
		n := 0
		t0 := time.Now()
		for i, it := range items {
			p := predictor.MustNew(it.key.Config)
			for _, r := range streams[i] {
				if r.Conditional() {
					p.Predict(r.PC)
					p.Train(r.PC, r.Target, r.Taken)
				} else {
					p.TrackOther(r.PC, r.Target, r.Kind, r.Taken)
				}
			}
			n += len(streams[i])
		}
		costs = append(costs, float64(time.Since(t0))/float64(max(n, 1)))
	}
	return medianF(costs)
}

// probeJournal times journal.Open (replay) on a copy of the run's
// journal, or on a journal of the sampled groups as accepted bench
// jobs when the workload has none, then times appends to it.
func probeJournal(e *env, st *runStats, pr *probes, items []probeItem, dir string, parent int64) error {
	path := filepath.Join(dir, "probe.journal")
	specs := make([]client.Spec, len(items))
	for i, it := range items {
		specs[i] = client.Spec{Type: client.JobBench, Config: it.key.Config, Bench: it.bench.Name, Budget: it.key.Budget}
	}
	if st.keptJournal != "" {
		if err := copyFile(st.keptJournal, path); err != nil {
			return err
		}
	} else {
		j, err := journal.Open(path)
		if err != nil {
			return err
		}
		for i := 0; i < 64; i++ {
			if err := j.Append(journal.Entry{Kind: journal.KindAccepted, ID: fmt.Sprintf("j%d", i+1), Spec: specs[i%len(specs)]}); err != nil {
				j.Close()
				return err
			}
		}
		if err := j.Close(); err != nil {
			return err
		}
	}
	sp := e.tr.begin("journal", parent)
	defer e.tr.end(sp)
	var replay []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		j, err := journal.Open(path)
		if err != nil {
			return err
		}
		replay = append(replay, float64(time.Since(t0))/1e6)
		if err := j.Close(); err != nil {
			return err
		}
	}
	j, err := journal.Open(path)
	if err != nil {
		return err
	}
	var app []time.Duration
	for i := 0; i < 64; i++ {
		t0 := time.Now()
		if err := j.Append(journal.Entry{Kind: journal.KindAccepted, ID: fmt.Sprintf("p%d", i+1), Spec: specs[i%len(specs)]}); err != nil {
			j.Close()
			return err
		}
		app = append(app, time.Since(t0))
	}
	pr.replayMs = medianF(replay)
	pr.appendP50, pr.appendP90 = us(percentile(app, 50)), us(percentile(app, 90))
	return j.Close()
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}

// hostSplit attributes the traced run's host CPU time to layers: the
// run's own counts times the probed per-call costs for the predictor,
// stream generation and store/snapshot calls; for serve (journal
// included), the self time of the service client's calls, that is their
// spans minus the server's queue and run intervals; for dist, the item
// round trips minus their estimated simulation; and the rest to sim
// self (engine bookkeeping, runtime and GC).
type hostSplit struct {
	host                                                 time.Duration
	predictor, workload, simSelf, storeSnap, serve, dist float64
}

func splitHost(st *runStats, pr probes, tr *tracer) hostSplit {
	h := hostSplit{host: st.cpu}
	c := st.eng
	h.predictor = float64(c.records) * pr.perRecordNs / 1e9
	h.workload = float64(c.generated) * pr.generateMs / 1e3
	if st.hasStore {
		loads, saves := float64(c.simulated+c.hits), float64(c.simulated)
		h.storeSnap = (loads*pr.storeLoadUs + saves*pr.storeSaveUs) / 1e6
		if st.hasSnap {
			h.storeSnap += (float64(c.resumed)*(pr.snapLoadUs+pr.decodeUs) + float64(c.simulated)*(pr.encodeUs+pr.snapSaveUs)) / 1e6
		}
	}
	// The service's share is the self time of the client's calls, outside
	// the queue and run intervals of the job that served them, scaled
	// from the traced jobs to all; it includes the journal appends.
	if self, jobs := tr.selfTime("client.Submit", "client.Wait", "client.Result"); jobs > 0 && st.serve.submits > 0 {
		h.serve = self.Seconds() * float64(st.jobs) / float64(jobs)
	}
	if len(st.dist.item) > 0 {
		var items time.Duration
		for _, d := range st.dist.item {
			items += d
		}
		h.dist = max(0, items.Seconds()-float64(st.dist.itemRecords)*pr.perRecordNs/1e9)
	}
	h.simSelf = max(0, st.cpu.Seconds()-(h.predictor+h.workload+h.storeSnap+h.serve+h.dist))
	return h
}

func (h hostSplit) total() float64 {
	return max(h.host.Seconds(), h.predictor+h.workload+h.simSelf+h.storeSnap+h.serve+h.dist)
}

func (h hostSplit) print(w io.Writer, name string, jobs int) {
	t := h.total()
	fmt.Fprintf(w, "where host time goes: %s, %.2f s CPU over %d jobs\n", name, h.host.Seconds(), jobs)
	if t > h.host.Seconds() {
		fmt.Fprintf(w, "  (the replayed estimates add up to %.0f%% of the measured CPU time; shares are of their sum)\n", 100*t/h.host.Seconds())
	}
	for _, row := range []struct {
		name string
		v    float64
	}{
		{"predictor", h.predictor}, {"workload", h.workload}, {"sim self", h.simSelf},
		{"store/snap", h.storeSnap}, {"serve/journal", h.serve}, {"dist", h.dist},
	} {
		fmt.Fprintf(w, "  %-14s %6.1f%%  %8.3f s\n", row.name, 100*row.v/t, row.v)
	}
}

// layerMetrics builds every per-layer metric from a traced run and its
// probes. Counts are per job;
// layers a workload does not use read 0 in counts, while their
// per-call timings come from the probes or from a probe run.
func layerMetrics(st *runStats, pr probes, tr *tracer, serveProbe, distProbe *runStats) metrics {
	m := metrics{}
	jobs := float64(max(st.jobs, 1))
	c := st.eng
	h := splitHost(st, pr, tr)
	t := h.total()

	m.put("predictor.predict_ns", pr.predictNs, "ns")
	m.put("predictor.train_ns", pr.trainNs, "ns")
	m.put("predictor.track_other_ns", pr.trackNs, "ns")
	m.put("predictor.share", h.predictor/t, "ratio")
	m.put("predictor.mpki", meanMPKI(st.outcomes), "MPKI")

	m.put("workload.generate_ms", pr.generateMs, "ms")
	m.put("workload.streams_generated", float64(c.generated)/jobs, "count")
	m.put("workload.stream_hit_ratio", ratio(c.streamHits, c.streamHits+c.generated+c.spillLoads), "ratio")

	var covered uint64
	for _, r := range st.reps {
		covered += r.records
	}
	m.put("sim.self_ms", 1e3*h.simSelf/jobs, "ms")
	m.put("sim.items_simulated", float64(c.simulated)/jobs, "count")
	m.put("sim.items_cached", float64(c.hits)/jobs, "count")
	m.put("sim.items_resumed", float64(c.resumed)/jobs, "count")
	m.put("sim.records_simulated", float64(c.records)/jobs, "count")
	m.put("sim.work_ratio", ratio(c.records, covered), "ratio")
	m.put("sim.store_load_us", pr.storeLoadUs, "us")
	m.put("sim.store_save_us", pr.storeSaveUs, "us")
	m.put("sim.snap_load_us", pr.snapLoadUs, "us")
	m.put("sim.snap_save_us", pr.snapSaveUs, "us")
	m.put("sim.store_bytes_written", float64(c.storeBytes)/jobs, "bytes")
	m.put("snap.encode_us", pr.encodeUs, "us")
	m.put("snap.decode_us", pr.decodeUs, "us")
	m.put("snap.bytes", pr.snapBytes, "bytes")

	m.put("journal.append_us_p50", pr.appendP50, "us")
	m.put("journal.append_us_p90", pr.appendP90, "us")
	m.put("journal.replay_ms", pr.replayMs, "ms")

	sv := st.serve
	if serveProbe != nil {
		sv = serveProbe.serve
	}
	m.put("serve.submit_ms_p50", ms(percentile(sv.submit, 50)), "ms")
	m.put("serve.queue_ms_p50", ms(percentile(sv.queue, 50)), "ms")
	m.put("serve.queue_ms_p90", ms(percentile(sv.queue, 90)), "ms")
	m.put("serve.run_ms_p50", ms(percentile(sv.run, 50)), "ms")
	m.put("serve.run_ms_p90", ms(percentile(sv.run, 90)), "ms")
	m.put("serve.result_ms_p50", ms(percentile(sv.result, 50)), "ms")
	m.put("serve.dedup_ratio", ratio(uint64(st.serve.dedups), uint64(st.serve.submits)), "ratio")
	m.put("serve.cache_hit_ratio", ratio(uint64(st.serve.cacheHits), uint64(st.serve.submits)), "ratio")
	m.put("serve.shed", float64(st.serve.shed)/jobs, "count")

	ds := st.dist
	if distProbe != nil {
		ds.item = distProbe.dist.item
	}
	m.put("dist.item_ms_p50", ms(percentile(ds.item, 50)), "ms")
	m.put("dist.item_ms_p90", ms(percentile(ds.item, 90)), "ms")
	m.put("dist.dispatched", float64(st.dist.dispatched)/jobs, "count")
	m.put("dist.expired", float64(st.dist.expired)/jobs, "count")
	m.put("dist.requeued", float64(st.dist.requeued)/jobs, "count")
	m.put("dist.duplicates", float64(st.dist.duplicates)/jobs, "count")
	m.put("dist.mismatches", float64(st.dist.mismatches)/jobs, "count")

	m.put("share.workload", h.workload/t, "ratio")
	m.put("share.sim_self", h.simSelf/t, "ratio")
	m.put("share.store_snap", h.storeSnap/t, "ratio")
	m.put("share.serve_journal", h.serve/t, "ratio")
	m.put("share.dist", h.dist/t, "ratio")

	var traced, untraced []rep
	for _, r := range st.reps {
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	m.put("tracing.overhead_ratio", recordsPerSec(traced)/recordsPerSec(untraced), "ratio")
	return m
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// meanMPKI averages the MPKI of every distinct delivered result: a
// simulated statistic that a change which only speeds up the simulator
// must leave identical.
func meanMPKI(outcomes []outcome) float64 {
	seen := map[groupKey]bool{}
	var sum float64
	n := 0
	for _, o := range outcomes {
		if seen[o.key] {
			continue
		}
		seen[o.key] = true
		for _, r := range o.results {
			sum += r.MPKI()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
