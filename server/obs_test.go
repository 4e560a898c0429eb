package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"hotnoc"
	"hotnoc/client"
	"hotnoc/internal/chipcfg"
	"hotnoc/internal/core"
	"hotnoc/server/tenant"
	"hotnoc/server/wire"
)

// fakeSweep returns a sweepHook backend that emits exactly one outcome
// per receive on release, bracketed by progress events — a
// deterministic stand-in for the Lab that makes a job's progress
// observable step by step from the outside.
func fakeSweep(release <-chan struct{}) func(scale int) sweepFn {
	return func(int) sweepFn {
		return func(ctx context.Context, pts []hotnoc.SweepPoint, progress func(hotnoc.Event)) iter.Seq2[hotnoc.SweepOutcome, error] {
			return func(yield func(hotnoc.SweepOutcome, error) bool) {
				progress(hotnoc.Event{Stage: hotnoc.StageBuildStart, Point: -1})
				for i := range pts {
					select {
					case <-release:
					case <-ctx.Done():
						yield(hotnoc.SweepOutcome{}, ctx.Err())
						return
					}
					progress(hotnoc.Event{Stage: hotnoc.StageEvaluateDone, Point: i})
					out := hotnoc.SweepOutcome{
						Point: pts[i],
						Built: &chipcfg.Built{System: &core.System{}},
					}
					if !yield(out, nil) {
						return
					}
				}
			}
		}
	}
}

// scrapeMetrics fetches url/metrics and returns the exposition body.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue returns the value of the series whose line starts with
// prefix — pass the bare name for an unlabeled series, or name plus its
// full label set for a labeled one.
func metricValue(t *testing.T, body, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, prefix+" ") {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %q not found in scrape", prefix)
	return 0
}

// TestMetricsEndpoint runs a real one-point sweep and asserts the
// daemon's /metrics exposition: valid Prometheus text carrying the Lab's
// stage-latency histograms and cache counters plus the scheduler's
// queue-wait histogram and per-tenant job counters.
func TestMetricsEndpoint(t *testing.T) {
	_, url := testServer(t, Config{})
	c := client.New(url, client.WithScale(testScale))
	pts := []hotnoc.SweepPoint{{Config: "A", Scheme: hotnoc.Rot(), Blocks: 1}}
	if _, err := c.SweepAll(context.Background(), pts); err != nil {
		t.Fatal(err)
	}

	body := scrapeMetrics(t, url)
	for _, want := range []string{
		"# TYPE hotnoc_stage_seconds histogram",
		`hotnoc_stage_seconds_count{scale="8",stage="evaluate"}`,
		`hotnoc_stage_seconds_count{scale="8",stage="build"}`,
		"# TYPE hotnoc_cache_requests_total counter",
		"# TYPE hotnoc_decodes_simulated_total counter",
		"# TYPE hotnocd_queue_wait_seconds histogram",
		"# TYPE hotnocd_jobs_total counter",
		`hotnocd_jobs_total{state="done",tenant="anonymous"} 1`,
		`hotnocd_points_total{tenant="anonymous"} 1`,
		"# TYPE hotnocd_jobs_running gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape is missing %q", want)
		}
	}
	if n := metricValue(t, body, "hotnocd_queue_wait_seconds_count"); n < 1 {
		t.Errorf("hotnocd_queue_wait_seconds_count = %v, want >= 1", n)
	}
	if n := metricValue(t, body, `hotnoc_points_evaluated_total{scale="8"}`); n != 1 {
		t.Errorf("hotnoc_points_evaluated_total = %v, want 1", n)
	}
	// The cold build's calibration decode recorded the static-placement
	// decode, so the orbit's baseline decode at least replays the memo.
	decodes := metricValue(t, body, `hotnoc_decodes_total{scale="8"}`)
	if n := metricValue(t, body, `hotnoc_decodes_simulated_total{scale="8"}`); n < 1 || n >= decodes {
		t.Errorf("hotnoc_decodes_simulated_total = %v of %v decodes, want some but not all", n, decodes)
	}
}

// seriesValue is metricValue for a series that may not exist yet: a
// counter never incremented is absent from the scrape and counts zero.
func seriesValue(t *testing.T, body, prefix string) float64 {
	t.Helper()
	if !strings.Contains(body, "\n"+prefix+" ") {
		return 0
	}
	return metricValue(t, body, prefix)
}

// TestStatsAgreeWithMetrics: after a sweep per tenant and one 429,
// every counter on /v1/stats equals its /metrics series — both surfaces
// read one store — and reading /v1/stats leaves the scrape unchanged.
func TestStatsAgreeWithMetrics(t *testing.T) {
	slow := keyed("slow", 1, tenant.Limits{RatePerSec: 0.25, Burst: 1})
	free := keyed("free", 1, tenant.Limits{})
	srv, url := testServer(t, Config{Tenants: testRegistry(t, []*tenant.Tenant{slow, free}, nil)})
	frozen := time.Now()
	srv.now = func() time.Time { return frozen }

	submit := func(key string, status int) {
		t.Helper()
		resp := postSweep(t, url, "Bearer "+key)
		defer resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("POST /v1/sweeps as %s answered %d, want %d", key, resp.StatusCode, status)
		}
		if status != http.StatusCreated {
			return
		}
		var created wire.SweepCreated
		if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
			t.Fatal(err)
		}
		waitForTerminal(t, client.New(url, client.WithAPIKey(key)), created.ID)
	}
	submit("key-slow", http.StatusCreated)
	submit("key-slow", http.StatusTooManyRequests)
	submit("key-free", http.StatusCreated)

	before := scrapeMetrics(t, url)
	st, err := client.New(url, client.WithAPIKey("key-free")).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	body := scrapeMetrics(t, url)
	if body != before {
		t.Errorf("reading /v1/stats changed /metrics:\nbefore:\n%s\nafter:\n%s", before, body)
	}

	check := func(field string, stats int64, series string) {
		t.Helper()
		if n := seriesValue(t, body, series); n != float64(stats) {
			t.Errorf("%s: /v1/stats %d, /metrics %s %v", field, stats, series, n)
		}
	}
	if len(st.Tenants) != 2 {
		t.Fatalf("tenant rows %+v, want slow and free", st.Tenants)
	}
	for _, ts := range st.Tenants {
		jobs := func(state string) string {
			return fmt.Sprintf(`hotnocd_jobs_total{state=%q,tenant=%q}`, state, ts.ID)
		}
		check(ts.ID+" done", int64(ts.Done), jobs(wire.JobDone))
		check(ts.ID+" failed", int64(ts.Failed), jobs(wire.JobFailed))
		check(ts.ID+" canceled", int64(ts.Canceled), jobs(wire.JobCanceled))
		check(ts.ID+" rejected", int64(ts.Rejected), fmt.Sprintf(`hotnocd_submissions_rejected_total{tenant=%q}`, ts.ID))
		check(ts.ID+" points", ts.Points, fmt.Sprintf(`hotnocd_points_total{tenant=%q}`, ts.ID))
		if ts.Done != 1 || ts.Points != 1 {
			t.Errorf("tenant %s: %d done, %d points; want 1 and 1", ts.ID, ts.Done, ts.Points)
		}
	}
	if len(st.Labs) != 1 {
		t.Fatalf("lab rows %+v, want one at scale %d", st.Labs, testScale)
	}
	ls := st.Labs[0]
	cache := func(kind, result string) string {
		return fmt.Sprintf(`hotnoc_cache_requests_total{kind=%q,result=%q,scale="%d"}`, kind, result, testScale)
	}
	check("decodes", int64(ls.Decodes), fmt.Sprintf(`hotnoc_decodes_total{scale="%d"}`, testScale))
	check("cache_hits", int64(ls.CacheHits), cache("characterization", "hit"))
	check("cache_misses", int64(ls.CacheMisses), cache("characterization", "miss"))
	check("build_hits", int64(ls.BuildHits), cache("build", "hit"))
	check("build_misses", int64(ls.BuildMisses), cache("build", "miss"))
	if ls.Decodes == 0 || ls.CacheMisses != 1 || ls.CacheHits != 1 {
		t.Errorf("lab stats %+v, want decodes, one characterization miss and one hit", ls)
	}
}

// TestMetricsDisabled: DisableMetrics leaves /metrics unrouted.
func TestMetricsDisabled(t *testing.T) {
	_, url := testServer(t, Config{DisableMetrics: true})
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics with metrics disabled: %s, want 404", resp.Status)
	}
}

// TestJobProgressIntrospection steps a fake sweep point by point and
// watches GET /v1/jobs/{id} report advancing points_done, the live
// pipeline stage, and a pace-derived ETA — through the typed
// client.JobProgress helper and on the raw wire.
func TestJobProgressIntrospection(t *testing.T) {
	release := make(chan struct{})
	srv, url := testServer(t, Config{})
	srv.sweepHook = fakeSweep(release)
	c := client.New(url, client.WithScale(testScale))
	ctx := context.Background()

	pts := []hotnoc.SweepPoint{
		{Config: "A", Scheme: hotnoc.Rot(), Blocks: 1},
		{Config: "A", Scheme: hotnoc.Rot(), Blocks: 2},
		{Config: "A", Scheme: hotnoc.Rot(), Blocks: 4},
	}
	id, err := c.StartSweep(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}

	waitFor := func(desc string, ok func(client.JobProgress) bool) client.JobProgress {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			p, err := c.JobProgress(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if ok(p) {
				return p
			}
			if time.Now().After(deadline) {
				t.Fatalf("job never reached %s (state %s, stage %q, %d/%d done)",
					desc, p.State, p.Stage, p.Done, p.Total)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	p := waitFor("running in the build stage", func(p client.JobProgress) bool {
		return p.State == wire.JobRunning && p.Stage == "build"
	})
	if p.Done != 0 || p.Total != 3 {
		t.Fatalf("before first point: %d/%d done, want 0/3", p.Done, p.Total)
	}

	release <- struct{}{}
	p = waitFor("one point done", func(p client.JobProgress) bool { return p.Done == 1 })
	if p.Total != 3 || p.State != wire.JobRunning {
		t.Fatalf("after first point: state %s, %d/%d, want running 1/3", p.State, p.Done, p.Total)
	}
	if p.Stage != "evaluate" {
		t.Errorf("stage after an evaluated point = %q, want evaluate", p.Stage)
	}
	if p.EtaSec <= 0 {
		t.Errorf("running job with progress has EtaSec = %v, want > 0", p.EtaSec)
	}

	// The wire names are points_done / points_total; a rename would break
	// every deployed progress consumer silently, so pin them here.
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"points_done":1`, `"points_total":3`, `"stage":"evaluate"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("GET /v1/jobs/{id} missing %s in %s", want, raw)
		}
	}

	release <- struct{}{}
	release <- struct{}{}
	p = waitFor("completion", func(p client.JobProgress) bool { return p.State == wire.JobDone })
	if p.Done != 3 {
		t.Fatalf("finished job reports %d/3 done", p.Done)
	}
}

// readDiagEvents subscribes to the GET /v1/events SSE stream and
// collects events until stop returns true. The stream is live, so the
// caller must guarantee the stop event is (or will be) emitted.
func readDiagEvents(t *testing.T, url, authorization string, stop func(wire.DiagEvent) bool) []wire.DiagEvent {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if authorization != "" {
		req.Header.Set("Authorization", authorization)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	var evs []wire.DiagEvent
	var data string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case line == "":
			if data == "" {
				continue
			}
			var ev wire.DiagEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad event payload %q: %v", data, err)
			}
			evs = append(evs, ev)
			data = ""
			if stop(ev) {
				return evs
			}
		}
	}
	t.Fatalf("stream ended after %d events without the awaited event (%v)", len(evs), sc.Err())
	return nil
}

// TestDiagEventsOrderingAndResume: one job's lifecycle appears on
// GET /v1/events in submission order with monotonic sequence numbers,
// and ?since= resumes the stream past an already-seen prefix.
func TestDiagEventsOrderingAndResume(t *testing.T) {
	release := make(chan struct{}, 1)
	release <- struct{}{}
	srv, url := testServer(t, Config{})
	srv.sweepHook = fakeSweep(release)
	c := client.New(url, client.WithScale(testScale))
	ctx := context.Background()

	id, err := c.StartSweep(ctx, []hotnoc.SweepPoint{{Config: "A", Scheme: hotnoc.Rot(), Blocks: 1}})
	if err != nil {
		t.Fatal(err)
	}
	finished := func(ev wire.DiagEvent) bool {
		return ev.Type == wire.DiagJobFinished && ev.Job == id
	}
	evs := readDiagEvents(t, url+"/v1/events", "", finished)

	var types []string
	var seqs []int64
	for _, ev := range evs {
		if ev.Job == id {
			types = append(types, ev.Type)
		}
	}
	for _, ev := range evs {
		seqs = append(seqs, ev.Seq)
	}
	want := []string{wire.DiagJobSubmitted, wire.DiagJobQueued, wire.DiagJobDispatched, wire.DiagJobFinished}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("job lifecycle on the stream = %v, want %v", types, want)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("sequence numbers not strictly increasing: %v", seqs)
		}
	}
	if done := evs[len(evs)-1]; done.State != wire.JobDone || done.Points != 1 {
		t.Fatalf("job-finished event = %+v, want state done with 1 point", done)
	}

	// Resume past the first two events: the replay must start strictly
	// after the cursor and still include the terminal event.
	cursor := evs[1].Seq
	resumed := readDiagEvents(t, fmt.Sprintf("%s/v1/events?since=%d", url, cursor), "", finished)
	if len(resumed) == 0 || resumed[0].Seq <= cursor {
		t.Fatalf("resume from %d replayed %+v", cursor, resumed)
	}

	// A malformed cursor is a client error, not a silent full replay.
	resp, err := http.Get(url + "/v1/events?since=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET /v1/events?since=bogus: %s, want 400", resp.Status)
	}
}

// TestDiagEventsTenantIsolation: on a keyed daemon the diagnostics
// stream is tenant-scoped — a tenant sees its own job lifecycle and
// nothing of any other tenant's — and unauthenticated subscriptions are
// refused like every other /v1 route.
func TestDiagEventsTenantIsolation(t *testing.T) {
	reg := testRegistry(t, []*tenant.Tenant{
		keyed("a", 1, tenant.Limits{}),
		keyed("b", 1, tenant.Limits{}),
	}, nil)
	release := make(chan struct{}, 8)
	for i := 0; i < 8; i++ {
		release <- struct{}{}
	}
	srv, url := testServer(t, Config{Tenants: reg})
	srv.sweepHook = fakeSweep(release)

	resp, err := http.Get(url + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated GET /v1/events: %s, want 401", resp.Status)
	}

	submit := func(key string) string {
		t.Helper()
		resp := postSweep(t, url, "Bearer "+key)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /v1/sweeps as %s: %s", key, resp.Status)
		}
		var created wire.SweepCreated
		if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
			t.Fatal(err)
		}
		return created.ID
	}
	idA := submit("key-a")
	idB := submit("key-b")

	// b's stream, read until b's job finishes: the replay covers the full
	// history, so any of a's events would already have been delivered.
	evsB := readDiagEvents(t, url+"/v1/events?since=0", "Bearer key-b", func(ev wire.DiagEvent) bool {
		return ev.Type == wire.DiagJobFinished && ev.Job == idB
	})
	for _, ev := range evsB {
		if ev.Tenant == "a" || ev.Job == idA {
			t.Errorf("tenant b received tenant a's event %+v", ev)
		}
	}

	evsA := readDiagEvents(t, url+"/v1/events?since=0", "Bearer key-a", func(ev wire.DiagEvent) bool {
		return ev.Type == wire.DiagJobFinished && ev.Job == idA
	})
	var own int
	for _, ev := range evsA {
		if ev.Tenant == "b" || ev.Job == idB {
			t.Errorf("tenant a received tenant b's event %+v", ev)
		}
		if ev.Job == idA {
			own++
		}
	}
	if own < 4 {
		t.Errorf("tenant a saw %d events for its own job, want the full lifecycle (4)", own)
	}
}

// TestFleetMetricsAggregation: a coordinator's /metrics carries
// per-worker-labeled counters whose sum matches the fleet-wide series,
// worker lifecycle shows up on its diagnostics stream, and killing a
// worker never makes the fleet totals regress — departed workers' work
// stays counted by the stats ledger.
func TestFleetMetricsAggregation(t *testing.T) {
	_, coordURL, workers := startFleet(t, 2)

	// Registration has already happened; both joins are in the replay.
	joins := 0
	readDiagEvents(t, coordURL+"/v1/events?since=0", "", func(ev wire.DiagEvent) bool {
		if ev.Type == wire.DiagWorkerJoined {
			joins++
		}
		return joins == 2
	})

	runToCompletion(t, coordURL, testGrid()[:2])

	body := scrapeMetrics(t, coordURL)
	if n := metricValue(t, body, "hotnocd_fleet_workers"); n != 2 {
		t.Errorf("hotnocd_fleet_workers = %v, want 2", n)
	}
	if n := metricValue(t, body, "hotnocd_queue_wait_seconds_count"); n < 1 {
		t.Errorf("coordinator queue-wait histogram empty (count %v)", n)
	}
	var sum float64
	for _, ws := range workers {
		series := fmt.Sprintf(`hotnocd_fleet_worker_decodes_total{worker=%q}`, ws.URL)
		sum += metricValue(t, body, series)
	}
	total := metricValue(t, body, "hotnocd_fleet_decodes_total")
	if total != sum || total <= 0 {
		t.Errorf("fleet decode total %v != per-worker sum %v (or no work recorded)", total, sum)
	}

	// Kill a worker and sweep again: the coordinator drops it on the
	// failed dispatch and reroutes, its counters stay banked, and the
	// departure is announced on the diagnostics stream.
	workers[0].Close()
	runToCompletion(t, coordURL, testGrid()[2:4])

	body2 := scrapeMetrics(t, coordURL)
	if after := metricValue(t, body2, "hotnocd_fleet_decodes_total"); after < total {
		t.Errorf("fleet decode total regressed after worker loss: %v -> %v", total, after)
	}
	series := fmt.Sprintf(`hotnocd_fleet_worker_decodes_total{worker=%q}`, workers[0].URL)
	if !strings.Contains(body2, series) {
		t.Errorf("dead worker's series %s vanished from the scrape", series)
	}
	readDiagEvents(t, coordURL+"/v1/events?since=0", "", func(ev wire.DiagEvent) bool {
		return ev.Type == wire.DiagWorkerLeft && ev.URL == workers[0].URL
	})
}
