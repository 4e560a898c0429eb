package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hotnoc"
	"hotnoc/client"
	"hotnoc/server/fleet"
	"hotnoc/server/tenant"
	"hotnoc/server/wire"
)

// startFleet runs a coordinator daemon with n plain worker daemons
// registered. The hour-long lease keeps the timer out of the way;
// worker-loss tests exercise expiry through broken transports instead.
func startFleet(t *testing.T, n int) (*fleet.Coordinator, string, []*httptest.Server) {
	t.Helper()
	co := fleet.NewCoordinator(fleet.Config{Lease: time.Hour})
	_, coordURL := testServer(t, Config{Fleet: co})
	workers := make([]*httptest.Server, n)
	for i := range workers {
		ws := httptest.NewServer(New(Config{}))
		t.Cleanup(ws.Close)
		co.Register(ws.URL, 1)
		workers[i] = ws
	}
	return co, coordURL, workers
}

// runToCompletion submits pts to the daemon at url and waits for the
// job's terminal state, returning its id.
func runToCompletion(t *testing.T, url string, pts []hotnoc.SweepPoint) string {
	t.Helper()
	c := client.New(url, client.WithScale(testScale))
	ctx := context.Background()
	id, err := c.StartSweep(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Minute)
	for {
		info, err := c.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		switch info.State {
		case wire.JobDone:
			return id
		case wire.JobFailed, wire.JobCanceled:
			t.Fatalf("job %s ended %s: %s", id, info.State, info.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 3m", id, info.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// outcomeData replays a finished job's event stream and returns the raw
// data payload of every outcome event — the exact bytes clients decode,
// so comparing two jobs' slices asserts byte-identical streams.
func outcomeData(t *testing.T, base, id string) []string {
	t.Helper()
	resp, err := http.Get(base + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var data []string
	var event string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			if event == wire.EventOutcome {
				data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:")))
			}
		case line == "":
			switch event {
			case wire.EventDone:
				return data
			case wire.EventError:
				t.Fatalf("job %s stream ended with an error event", id)
			}
		}
	}
	t.Fatalf("job %s: stream ended without a terminal event", id)
	return nil
}

// TestFleetByteParityAndExactlyOnce is the tentpole acceptance
// criterion: a mixed periodic+reactive grid submitted to a two-worker
// fleet streams an outcome sequence byte-identical to the same grid on
// a single plain daemon, and the fleet-wide counters show every
// characterization and build computed exactly once.
func TestFleetByteParityAndExactlyOnce(t *testing.T) {
	_, coordURL, _ := startFleet(t, 2)
	_, directURL := testServer(t, Config{})
	pts := append(testGrid(), mixedTestGrid()...)

	fleetJob := runToCompletion(t, coordURL, pts)
	directJob := runToCompletion(t, directURL, pts)

	fl := outcomeData(t, coordURL, fleetJob)
	dl := outcomeData(t, directURL, directJob)
	if len(fl) != len(pts) || len(dl) != len(pts) {
		t.Fatalf("fleet streamed %d and direct %d outcomes, want %d", len(fl), len(dl), len(pts))
	}
	for i := range fl {
		if fl[i] != dl[i] {
			t.Fatalf("outcome %d differs between fleet and single daemon:\nfleet  %s\ndirect %s", i, fl[i], dl[i])
		}
	}

	// Exactly-once artifacts, asserted through the aggregated stats: the
	// grid spans 2 configs x 2 schemes, so the whole fleet must record
	// exactly 4 characterization misses and 2 build misses — each
	// computed by one worker, never repeated on another.
	st, err := client.New(coordURL).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var charMisses, buildMisses uint64
	for _, ls := range st.Labs {
		charMisses += ls.CacheMisses
		buildMisses += ls.BuildMisses
	}
	if charMisses != 4 || buildMisses != 2 {
		t.Fatalf("fleet-wide misses: %d characterizations, %d builds (labs %+v); want exactly 4 and 2",
			charMisses, buildMisses, st.Labs)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("coordinator stats list %d workers, want 2", len(st.Workers))
	}
}

// anonymousRow returns the anonymous tenant's /v1/stats row.
func anonymousRow(t *testing.T, st wire.Stats) wire.TenantStats {
	t.Helper()
	for _, ts := range st.Tenants {
		if ts.ID == tenant.AnonymousID {
			return ts
		}
	}
	t.Fatalf("no anonymous row in /v1/stats tenants %+v", st.Tenants)
	return wire.TenantStats{}
}

// TestFleetStatsCountEachJobOnce: a coordinator's tenant rows are its
// own admission accounting. One 8-point job through a two-worker fleet
// is one done job and 8 points on /v1/stats, read right after the job
// is seen done, and the same figures as the coordinator's /metrics —
// the workers' shard sub-jobs are not added in.
func TestFleetStatsCountEachJobOnce(t *testing.T) {
	_, coordURL, _ := startFleet(t, 2)
	runToCompletion(t, coordURL, testGrid())
	st, err := client.New(coordURL).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	row := anonymousRow(t, st)
	if row.Done != 1 || row.Points != 8 {
		t.Fatalf("anonymous row = %+v, want done 1, points 8", row)
	}
	body := scrapeMetrics(t, coordURL)
	if n := metricValue(t, body, `hotnocd_jobs_total{state="done",tenant="anonymous"}`); n != float64(row.Done) {
		t.Errorf("/metrics counts %v done jobs, /v1/stats %d", n, row.Done)
	}
	if n := metricValue(t, body, `hotnocd_points_total{tenant="anonymous"}`); n != float64(row.Points) {
		t.Errorf("/metrics counts %v points, /v1/stats %d", n, row.Points)
	}
}

// TestFleetStatsMonotonicAcrossWorkerRestart restarts a worker behind
// the same URL: the coordinator's /v1/stats lab counters never go down,
// keep the old incarnation's work, and agree with the fleet series on
// its /metrics.
func TestFleetStatsMonotonicAcrossWorkerRestart(t *testing.T) {
	co := fleet.NewCoordinator(fleet.Config{Lease: time.Hour})
	_, coordURL := testServer(t, Config{Fleet: co})
	var restartable atomic.Pointer[Server]
	restartable.Store(New(Config{}))
	w1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		restartable.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(w1.Close)
	w2 := httptest.NewServer(New(Config{}))
	t.Cleanup(w2.Close)
	co.Register(w1.URL, 1)
	co.Register(w2.URL, 1)

	ctx := context.Background()
	labs := func(url string) hotnoc.LabStats {
		t.Helper()
		st, err := client.New(url).Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var sum hotnoc.LabStats
		for _, ls := range st.Labs {
			sum.Decodes += ls.Decodes
			sum.CacheHits += ls.CacheHits
			sum.CacheMisses += ls.CacheMisses
			sum.BuildHits += ls.BuildHits
			sum.BuildMisses += ls.BuildMisses
		}
		return sum
	}
	noLoss := func(when string, prev, cur hotnoc.LabStats) {
		t.Helper()
		if cur.Decodes < prev.Decodes || cur.CacheHits < prev.CacheHits || cur.CacheMisses < prev.CacheMisses ||
			cur.BuildHits < prev.BuildHits || cur.BuildMisses < prev.BuildMisses {
			t.Fatalf("coordinator lab counters went down %s: %+v -> %+v", when, prev, cur)
		}
	}

	runToCompletion(t, coordURL, testGrid())
	before := labs(coordURL)
	if before.Decodes == 0 {
		t.Fatal("the first sweep recorded no decodes")
	}
	oldIncarnation := labs(w1.URL)

	restartable.Store(New(Config{}))
	during := labs(coordURL)
	noLoss("across the restart", before, during)

	runToCompletion(t, coordURL, testGrid())
	after := labs(coordURL)
	noLoss("after the next sweep", during, after)
	newIncarnation, survivor := labs(w1.URL), labs(w2.URL)
	if want := oldIncarnation.Decodes + newIncarnation.Decodes + survivor.Decodes; after.Decodes != want {
		t.Errorf("coordinator decodes = %d, want %d (old %d + restarted %d + survivor %d)",
			after.Decodes, want, oldIncarnation.Decodes, newIncarnation.Decodes, survivor.Decodes)
	}

	body := scrapeMetrics(t, coordURL)
	for _, c := range []struct {
		series string
		stats  uint64
	}{
		{"hotnocd_fleet_decodes_total", after.Decodes},
		{"hotnocd_fleet_cache_hits_total", after.CacheHits},
		{"hotnocd_fleet_cache_misses_total", after.CacheMisses},
		{"hotnocd_fleet_build_hits_total", after.BuildHits},
		{"hotnocd_fleet_build_misses_total", after.BuildMisses},
	} {
		if n := metricValue(t, body, c.series); n != float64(c.stats) {
			t.Errorf("%s = %v, /v1/stats says %d", c.series, n, c.stats)
		}
	}
}

// TestFleetWorkerLossMidSweep kills a worker once the merged stream has
// produced its first outcome and asserts the sweep still completes:
// every point exactly once, in order, byte-identical to a single-daemon
// run — and a follow-up sweep survives the dead worker's stale claims.
func TestFleetWorkerLossMidSweep(t *testing.T) {
	co, coordURL, workers := startFleet(t, 2)
	_, directURL := testServer(t, Config{})
	// Config A is one cheap point; config E is a 5-point bundle with two
	// characterizations. The planner puts the big E bundle on w-1
	// (workers[0]) and A on w-2, so A's outcome arrives first — while E
	// is still mid-shard on the worker we are about to kill.
	pts := []hotnoc.SweepPoint{
		hotnoc.PeriodicPoint("A", hotnoc.XYShift(), 1),
		hotnoc.PeriodicPoint("E", hotnoc.XYShift(), 1),
		hotnoc.PeriodicPoint("E", hotnoc.XYShift(), 2),
		hotnoc.PeriodicPoint("E", hotnoc.XYShift(), 4),
		hotnoc.PeriodicPoint("E", hotnoc.Rot(), 1),
		hotnoc.PeriodicPoint("E", hotnoc.Rot(), 4),
	}

	ctx := context.Background()
	c := client.New(coordURL, client.WithScale(testScale))
	id, err := c.StartSweep(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(coordURL + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var data []string
	var event string
	killed, done := false, false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() && !done {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			switch event {
			case wire.EventOutcome:
				data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:")))
				if !killed {
					killed = true
					// Hard-kill the E-shard worker: its SSE streams cut
					// mid-flight, future dials are refused.
					workers[0].CloseClientConnections()
					workers[0].Close()
				}
			case wire.EventError:
				t.Fatalf("sweep failed after worker loss: %s", strings.TrimPrefix(line, "data:"))
			}
		case line == "":
			done = event == wire.EventDone
		}
	}
	if !done {
		t.Fatalf("stream ended without a done event (%d outcomes, scanner err %v)", len(data), sc.Err())
	}

	// Complete, in order, duplicate-free: indices must be exactly 0..n-1.
	if len(data) != len(pts) {
		t.Fatalf("merged stream carried %d outcomes, want %d", len(data), len(pts))
	}
	for i, d := range data {
		var m wire.OutcomeMsg
		if err := json.Unmarshal([]byte(d), &m); err != nil {
			t.Fatalf("outcome %d: %v", i, err)
		}
		if m.Index != i {
			t.Fatalf("outcome at stream position %d carries index %d", i, m.Index)
		}
	}

	// And byte-identical to a single-daemon run despite the re-dispatch.
	directJob := runToCompletion(t, directURL, pts)
	dl := outcomeData(t, directURL, directJob)
	for i := range data {
		if data[i] != dl[i] {
			t.Fatalf("outcome %d differs after worker loss:\nfleet  %s\ndirect %s", i, data[i], dl[i])
		}
	}

	// The dead worker may still hold claims if its shard finished before
	// the kill. A follow-up sweep must shake those out: the dispatch to
	// the closed worker fails, expires it, and lands on the survivor.
	runToCompletion(t, coordURL, pts)
	if n := co.WorkerCount(); n != 1 {
		t.Fatalf("fleet still counts %d workers after killing one, want 1", n)
	}
}

// TestFleetNoWorkers: a sweep submitted to a coordinator with no live
// workers fails cleanly instead of hanging.
func TestFleetNoWorkers(t *testing.T) {
	co := fleet.NewCoordinator(fleet.Config{Lease: time.Hour})
	_, coordURL := testServer(t, Config{Fleet: co})
	c := client.New(coordURL, client.WithScale(testScale))
	ctx := context.Background()
	id, err := c.StartSweep(ctx, testGrid()[:1])
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		info, err := c.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == wire.JobFailed {
			if !strings.Contains(info.Error, "no live workers") {
				t.Fatalf("job failed with %q, want the no-live-workers error", info.Error)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job on an empty fleet still %s", info.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFleetWorkerRoutesAndSecret covers the /v1/workers surface: the
// fleet secret gates registration and deregistration (while tenant auth
// is bypassed for those), GET stays a tenant route, and a plain daemon
// has no worker surface at all.
func TestFleetWorkerRoutesAndSecret(t *testing.T) {
	co := fleet.NewCoordinator(fleet.Config{Lease: time.Hour, Secret: "swordfish"})
	_, coordURL := testServer(t, Config{
		Fleet:   co,
		Tenants: testRegistry(t, []*tenant.Tenant{keyed("alice", 1, tenant.Limits{})}, nil),
	})
	ctx := context.Background()

	// No secret: 401 from the fleet gate, not the tenant layer.
	resp, err := http.Post(coordURL+"/v1/workers", "application/json", strings.NewReader(`{"url":"http://127.0.0.1:1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("registration without the fleet secret: %d, want 401", resp.StatusCode)
	}

	// The secret (not a tenant key) admits registration.
	wc := client.New(coordURL, client.WithAPIKey("swordfish"))
	lease, err := wc.RegisterWorker(ctx, wire.WorkerRegistration{URL: "http://127.0.0.1:1/", Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if lease.ID != "w-1" || lease.LeaseSec != 3600 {
		t.Fatalf("lease = %+v, want w-1 with a 3600s lease", lease)
	}
	if _, err := wc.RegisterWorker(ctx, wire.WorkerRegistration{URL: "not-a-url"}); err == nil {
		t.Fatal("relative worker URL accepted")
	}

	// GET /v1/workers is tenant-authenticated: anonymous is 401, a
	// tenant key lists the fleet (with the trailing slash normalized).
	if _, err := client.New(coordURL).Workers(ctx); err == nil {
		t.Fatal("unauthenticated GET /v1/workers succeeded against a keyed registry")
	}
	ws, err := client.New(coordURL, client.WithAPIKey("key-alice")).Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 || ws[0].URL != "http://127.0.0.1:1" || ws[0].Capacity != 2 {
		t.Fatalf("workers = %+v, want the registered worker with its URL trimmed", ws)
	}

	// Deregistration needs the secret too.
	if err := client.New(coordURL, client.WithAPIKey("bogus")).DeregisterWorker(ctx, lease.ID); err == nil {
		t.Fatal("deregistration with a wrong secret succeeded")
	}
	if err := wc.DeregisterWorker(ctx, lease.ID); err != nil {
		t.Fatal(err)
	}
	if co.WorkerCount() != 0 {
		t.Fatal("worker still registered after deregistration")
	}

	// A plain daemon has no fleet: the whole surface is 404.
	_, plainURL := testServer(t, Config{})
	if _, err := client.New(plainURL).Workers(ctx); err == nil || !strings.Contains(err.Error(), "not a fleet coordinator") {
		t.Fatalf("GET /v1/workers on a plain daemon: %v, want the not-a-coordinator 404", err)
	}
}

// TestSetTenantsHotReload: swapping the registry at runtime changes who
// authenticates immediately and carries new weights into live scheduler
// state — the SIGHUP path.
func TestSetTenantsHotReload(t *testing.T) {
	srv, url := testServer(t, Config{
		Tenants: testRegistry(t, []*tenant.Tenant{keyed("alice", 1, tenant.Limits{})}, nil),
	})
	ctx := context.Background()
	alice := client.New(url, client.WithScale(testScale), client.WithAPIKey("key-alice"))
	bob := client.New(url, client.WithScale(testScale), client.WithAPIKey("key-bob"))

	if _, err := alice.Jobs(ctx); err != nil {
		t.Fatalf("alice before reload: %v", err)
	}
	if _, err := bob.Jobs(ctx); err == nil {
		t.Fatal("bob authenticated before the reload that defines him")
	}
	// One sweep so the scheduler holds live state for alice at weight 1.
	if _, err := alice.SweepAll(ctx, []hotnoc.SweepPoint{hotnoc.PeriodicPoint("A", hotnoc.Rot(), 1)}); err != nil {
		t.Fatal(err)
	}

	srv.SetTenants(testRegistry(t, []*tenant.Tenant{
		keyed("alice", 3, tenant.Limits{MaxQueued: 7}),
		keyed("bob", 1, tenant.Limits{}),
	}, nil))

	if _, err := bob.Jobs(ctx); err != nil {
		t.Fatalf("bob after reload: %v", err)
	}
	st, err := alice.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ts := range st.Tenants {
		if ts.ID == "alice" {
			found = true
			if ts.Weight != 3 {
				t.Fatalf("alice's live scheduler weight = %d after reload, want 3", ts.Weight)
			}
		}
	}
	if !found {
		t.Fatal("alice missing from stats after reload")
	}

	// A registry that drops alice locks her out at once.
	srv.SetTenants(testRegistry(t, []*tenant.Tenant{keyed("bob", 1, tenant.Limits{})}, nil))
	if _, err := alice.Jobs(ctx); err == nil {
		t.Fatal("removed tenant still authenticates")
	}
}
